"""Derivative-free optimization of circuit parameters, and the seeded random streams.

Nelder-Mead with adaptive simplex parameters plus seeded random restarts
stands in for the usual COBYLA-style local optimizer; the search algorithms
only rely on the derivative-free minimization contract.

`_nelder_mead` is a port of SciPy 1.17's `_minimize_neldermead` with
``adaptive=True`` (Nelder & Mead 1965; adaptive parameters of Gao & Han,
Comput. Optim. Appl. 51, 2012), cut down to the one path qcas uses: a 1-D
float start, no bounds, no callback, no iteration cap, an evaluation budget
and absolute x/f tolerances.  It performs SciPy's arithmetic in SciPy's
order, with its reductions, sorts and gathers through equivalent ndarray
methods, so it returns the same points, costs, evaluation counts and success
flags bit for bit, and importing qcas does not import SciPy's optimize
package, which alone took longer to import than the rest of qcas.

`OptResult.converged` means that some restart met both tolerances before
the evaluation budget ran out.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def check_int(name: str, value, least: int):
    """Raise a ValueError that starts with `name` unless `value` is an
    integer >= `least`; the config classes name their fields this way."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_choice(name: str, value, choices):
    """Raise a ValueError that starts with `name` unless `value` is in `choices`."""
    choices = tuple(choices)
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_range(name: str, value, least: int, most: int):
    """Raise a ValueError that starts with `name` unless `value` is an
    integer in least..most."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value <= most):
        raise ValueError(f"{name} must be in {least}..{most}, got {value!r}")


def check_positive(name: str, value):
    """Raise a ValueError that starts with `name` unless `value` is a finite
    real number > 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


@dataclass(frozen=True)
class OptBudget:
    """The opt section of a run config."""

    max_evals: int = 0  # 0 = size the budget from the parameter count
    x_tol: float = 1e-6
    f_tol: float = 1e-9
    restarts: int = 3

    def __post_init__(self):
        check_int("max_evals", self.max_evals, 0)
        check_int("restarts", self.restarts, 1)
        check_positive("x_tol", self.x_tol)
        check_positive("f_tol", self.f_tol)

    def evals_for(self, n_params: int) -> int:
        if self.max_evals > 0:
            return self.max_evals
        return 150 * (n_params + 1)


@dataclass
class OptResult:
    theta_star: np.ndarray
    cost: float
    evals_used: int
    converged: bool


def _guard(cost):
    """Wrap the cost so non-finite values are reported as +inf, not fatal.
    The optimizer passes float vectors only, so the argument is not converted."""

    def wrapped(theta):
        value = float(cost(theta))
        return value if math.isfinite(value) else math.inf

    return wrapped


class _BudgetSpent(RuntimeError):
    """An evaluation beyond the budget was asked for."""


def _nelder_mead(func, x0, maxfev, xatol, fatol):
    """Adaptive Nelder-Mead from `x0`, a 1-D float array; returns (x, fun,
    nfev, success, f0), with f0 the cost of `x0`, the first vertex it evaluates.

    `func` maps a float vector to a float.  `success` is ``nfev < maxfev``:
    the simplex met both tolerances with budget to spare.  An evaluation
    that would exceed `maxfev` aborts the rest of its iteration, a shrink
    included, as in SciPy.  The same arithmetic in the same order, with
    reductions, sorts and gathers through equivalent ndarray methods.
    """
    N = len(x0)

    dim = float(N)
    rho = 1
    chi = 1 + 2/dim
    psi = 0.75 - 1/(2*dim)
    sigma = 1 - 1/dim

    nonzdelt = 0.05
    zdelt = 0.00025

    sim = np.empty((N + 1, N), dtype=float)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt)*y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y

    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return func(x.copy())  # the cost may keep or change its argument

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    f0 = float(fsim[0])  # maxfev >= 1, so x0 was evaluated
    # Sorted twice, as in SciPy: argsort's default sort is not stable, so
    # the second pass is not assumed to leave tied costs in place.
    ind = fsim.argsort()
    sim = sim.take(ind, 0)
    fsim = fsim.take(ind)
    ind = fsim.argsort()
    fsim = fsim.take(ind)
    sim = sim.take(ind, 0)

    while nfev < maxfev:
        try:
            if np.abs(sim[1:] - sim[0]).max() <= xatol:
                with np.errstate(invalid="ignore"):  # inf - inf when costs are +inf
                    f_spread = np.abs(fsim[0] - fsim[1:]).max()
                if f_spread <= fatol:
                    break

            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            doshrink = 0

            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)

                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            else:  # fsim[0] <= fxr
                if fxr < fsim[-2]:
                    sim[-1] = xr
                    fsim[-1] = fxr
                else:  # fxr >= fsim[-2]
                    # Perform contraction
                    if fxr < fsim[-1]:
                        xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                        fxc = f(xc)

                        if fxc <= fxr:
                            sim[-1] = xc
                            fsim[-1] = fxc
                        else:
                            doshrink = 1
                    else:
                        # Perform an inside contraction
                        xcc = (1 - psi) * xbar + psi * sim[-1]
                        fxcc = f(xcc)

                        if fxcc < fsim[-1]:
                            sim[-1] = xcc
                            fsim[-1] = fxcc
                        else:
                            doshrink = 1

                    if doshrink:
                        for j in range(1, N + 1):
                            sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                            fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind)

    return sim[0], fsim.min(), nfev, nfev < maxfev, f0


def minimize(cost, theta0, budget: OptBudget, rng: np.random.Generator) -> OptResult:
    """Derivative-free local minimization; never returns worse than theta0,
    a 1-D float array of at least one parameter (`score_cell` fits no
    other).  The first restart starts at theta0, and its first evaluation is
    theta0's cost, so a tie with theta0 keeps theta0."""
    f = _guard(cost)
    max_evals = budget.evals_for(theta0.size)
    best_theta = theta0.copy()
    best_cost = None
    evals = 0
    converged = False
    starts = [theta0] + [
        rng.uniform(-math.pi, math.pi, size=theta0.size)
        for _ in range(budget.restarts - 1)
    ]
    for start in starts:
        x, fun, nfev, success, f0 = _nelder_mead(f, start, max_evals,
                                                 budget.x_tol, budget.f_tol)
        if best_cost is None:
            best_cost = f0
        evals += nfev
        if fun < best_cost:
            best_cost = float(fun)
            best_theta = np.asarray(x, dtype=float)
        converged = converged or success
    return OptResult(best_theta, best_cost, evals, converged)


# The tag of each seeded purpose's stream; "res.fit" is keyed by cell content.
STREAMS = {
    "data.noise": 0x5E7, "data.digits": 0xD16, "data.tetris": 0x7E7,
    "data.state_compress": 0x5C5, "data.regen_targets": 0x717, "data.image_split": 0x1D5,
    "res.sample": 0x2E5, "res.fit": None, "relm.select": 0xE70, "relm.controller": 0xC7,
    "relm.fit": 0x5C0, "rs.sample": 0xA5, "rs.fit": 0xEC,
}


def stream(seed: int, purpose: str, *keys) -> np.random.Generator:
    """The Generator of one purpose of `STREAMS`, a function of (seed,
    purpose, keys) alone: entropy ``[seed, tag, *keys]``, or for "res.fit",
    whose one key is a cell, the first 8 bytes of the sha256 of the seed and
    the cell's dict, so a cell fits alike wherever RES meets it."""
    tag = STREAMS[purpose]
    if tag is not None:
        return np.random.default_rng([seed, tag, *keys])
    import hashlib
    from .cell import cell_to_dict  # imported here, as qcas.cell imports this module
    text = json.dumps([seed, cell_to_dict(*keys)], sort_keys=True)
    return np.random.default_rng(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


class Draws:
    """The scalar draws of a PCG64 Generator, read from its raw 64-bit words.

    `integers(low, high)` and `random()` return what the Generator's methods
    return, in the same order: a range of one value draws nothing, a range
    of up to 2**32 values is Lemire's bounded 32-bit method with its retry
    (arXiv:1805.10941) on the low half of a word and then its buffered upper
    half, and a uniform is ``(word >> 11) * 2**-53`` of a whole word.  The
    words come in blocks of `_BLOCK` from `random_raw`, so a draw costs a
    Python call instead of a numpy dispatch.  The Draws owns the Generator
    from then on; a half-word the Generator had buffered is taken over.
    """

    _BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise ValueError(f"Draws reads PCG64 words, not {type(bit_generator).__name__}")
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        self._next = iter(()).__next__  # the unread words of the last block
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> int:
        self._next = iter(self._raw(self._BLOCK).tolist()).__next__
        return self._next()

    def integers(self, low: int, high: int | None = None) -> int:
        if high is None:
            low, high = 0, low
        n = high - low
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers draws from 1..2**32 values, got low={low}, high={high}")
        if n == 1:
            return low
        while True:
            u = self._half
            if u is None:
                try:
                    word = self._next()
                except StopIteration:
                    word = self._refill()
                u, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                self._half = None
            m = u * n
            if m & 0xFFFFFFFF >= 0x100000000 % n:  # else a biased draw: retry
                return low + (m >> 32)

    def random(self) -> float:
        try:
            word = self._next()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * 2.0**-53


class Scored(NamedTuple):
    """A cell with its fitted parameters and validation score: the entry
    every search keeps, unpacking as (cell, theta, score)."""

    cell: object
    theta: np.ndarray
    score: float


def score_cell(cell, task, budget: OptBudget, make_rng,
               theta_init: np.ndarray | None = None) -> Scored:
    """Build a cell's circuit, fit its parameters on the task's training cost
    and return it scored on validation.

    Validation score is the task's own figure of merit (higher is better).
    A cell whose width is not the task's fails in the simulator kernel, whose
    ValueError names both widths.  `theta_init` warm-starts the optimizer
    when its shape matches.
    `make_rng()` returns the Generator that the fit draws its random starts
    from; only a cell with parameters calls it, so a parameter-free one builds none.
    """
    from .cell import cell_to_circuit  # imported here, as qcas.cell imports this module

    circuit = cell_to_circuit(cell)
    n = circuit.n_params
    if n == 0:
        theta = np.zeros(0)
        return Scored(cell, theta, task.validation_score(circuit, theta))
    rng = make_rng()
    if theta_init is not None and np.shape(theta_init) == (n,):
        theta0 = np.asarray(theta_init, dtype=float)
    else:
        theta0 = rng.uniform(-math.pi, math.pi, size=n)
    result = minimize(functools.partial(task.training_cost, circuit), theta0, budget, rng)
    theta = result.theta_star
    return Scored(cell, theta, task.validation_score(circuit, theta))
