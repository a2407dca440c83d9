"""Derivative-free optimization of circuit parameters.

Nelder-Mead with adaptive simplex parameters plus seeded random restarts
stands in for the usual COBYLA-style local optimizer; the search algorithms
only rely on the derivative-free minimization contract.

`_nelder_mead` is a port of SciPy 1.17's `_minimize_neldermead` with
``adaptive=True`` (Nelder & Mead 1965; adaptive parameters of Gao & Han,
Comput. Optim. Appl. 51, 2012), cut down to the one path qcas uses: no
bounds, no callback, no iteration cap, an evaluation budget and absolute
x/f tolerances.  It performs SciPy's numpy operations in SciPy's order, so
it returns the same points, costs, evaluation counts and success flags bit
for bit, and importing qcas does not import SciPy's optimize package, which
alone took longer to import than the rest of qcas.

`OptResult.converged` means that some restart met both tolerances before
the evaluation budget ran out.
"""

from __future__ import annotations

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
    """Wrap the cost so non-finite values are reported as +inf, not fatal."""

    def wrapped(theta):
        value = float(cost(np.asarray(theta, dtype=float)))
        if not math.isfinite(value):
            return math.inf
        return value

    return wrapped


class _BudgetSpent(RuntimeError):
    """An evaluation beyond the budget was asked for."""


def _nelder_mead(func, x0, maxfev, xatol, fatol):
    """Adaptive Nelder-Mead from `x0`; returns (x, fun, nfev, success).

    `func` maps a float vector to a float.  `success` is ``nfev < maxfev``:
    the simplex met both tolerances with budget to spare.  An evaluation
    that would exceed `maxfev` aborts the rest of its iteration, a shrink
    included, as in SciPy.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim != 1:
        raise ValueError("'x0' must only have one dimension.")
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
        return func(np.copy(x))  # the cost may keep or change its argument

    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # Sorted twice, as in SciPy: argsort's default sort is not stable, so
    # the second pass is not assumed to leave tied costs in place.
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    while nfev < maxfev:
        try:
            if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol:
                with np.errstate(invalid="ignore"):  # inf - inf when costs are +inf
                    f_spread = np.max(np.abs(fsim[0] - fsim[1:]))
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
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], np.min(fsim), nfev, nfev < maxfev


def minimize(cost, theta0, budget: OptBudget, rng: np.random.Generator) -> OptResult:
    """Derivative-free local minimization; never returns worse than theta0."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    if theta0.size == 0:
        value = _guard(cost)(theta0)
        return OptResult(theta0, value, 1, True)
    f = _guard(cost)
    max_evals = budget.evals_for(theta0.size)
    best_theta = theta0.copy()
    best_cost = f(theta0)
    evals = 1
    converged = False
    starts = [theta0] + [
        rng.uniform(-math.pi, math.pi, size=theta0.size)
        for _ in range(budget.restarts - 1)
    ]
    for start in starts:
        x, fun, nfev, success = _nelder_mead(f, start, max_evals,
                                             budget.x_tol, budget.f_tol)
        evals += nfev
        if fun < best_cost:
            best_cost = float(fun)
            best_theta = np.asarray(x, dtype=float)
        converged = converged or success
    return OptResult(best_theta, best_cost, evals, converged)


class Scored(NamedTuple):
    """A cell with its fitted parameters and validation score: the entry
    every search keeps, unpacking as (cell, theta, score)."""

    cell: object
    theta: np.ndarray
    score: float


def score_cell(cell, task, budget: OptBudget, rng: np.random.Generator,
               theta_init: np.ndarray | None = None) -> Scored:
    """Lazily materialize a cell into a circuit, fit its parameters on the
    task's training cost and return it scored on validation.

    Validation score is the task's own figure of merit (higher is better).
    `theta_init` warm-starts the optimizer when its shape matches.
    """
    from .cell import cell_to_circuit

    circuit = cell_to_circuit(cell)
    if circuit.n_qubits != task.n_qubits:
        raise ValueError("cell width does not match task width")
    n = circuit.n_params
    if n == 0:
        theta = np.zeros(0)
        return Scored(cell, theta, task.validation_score(circuit, theta))
    if theta_init is not None and np.shape(theta_init) == (n,):
        theta0 = np.asarray(theta_init, dtype=float)
    else:
        theta0 = rng.uniform(-math.pi, math.pi, size=n)
    result = minimize(lambda th: task.training_cost(circuit, th), theta0, budget, rng)
    theta = result.theta_star
    return Scored(cell, theta, task.validation_score(circuit, theta))
