"""Derivative-free parameter optimization and cell scoring.

The Nelder-Mead port is checked against SciPy's adaptive Nelder-Mead as an
oracle; scipy is a test-time dependency only.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcas.cell import Cell
from qcas.optim import OptBudget, _guard, _nelder_mead, minimize, score_cell
from qcas.sim import Circuit, basis_state, gate, ghz_state, run_circuit
from qcas.tasks import gen_noise_dataset, make_denoise_task


class TestBudget:
    def test_default_budget_scales_with_params(self):
        budget = OptBudget()
        assert budget.evals_for(3) == 600
        assert OptBudget(max_evals=50).evals_for(3) == 50

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            OptBudget(max_evals=-1)
        with pytest.raises(ValueError):
            OptBudget(restarts=0)
        with pytest.raises(ValueError):
            OptBudget(x_tol=0.0)

    @pytest.mark.parametrize("field, value", [
        ("x_tol", math.nan),
        ("f_tol", math.nan),
        ("x_tol", math.inf),
        ("f_tol", math.inf),
        ("x_tol", -math.inf),
        ("x_tol", "1e-6"),
        ("max_evals", 2.5),
        ("max_evals", True),
        ("restarts", True),
        ("restarts", 2.0),
    ])
    def test_bad_value_named_in_error(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            OptBudget(**{field: value})
        assert repr(value) in str(info.value)

    def test_numpy_integers_accepted(self):
        budget = OptBudget(max_evals=np.int64(7), restarts=np.int32(2))
        assert budget.evals_for(3) == 7


class TestMinimize:
    def test_quadratic(self):
        result = minimize(lambda th: (th[0] - 2.0) ** 2, [0.0], OptBudget(),
                          np.random.default_rng(0))
        assert abs(result.theta_star[0] - 2.0) < 1e-4

    def test_ry_rotation_angle(self):
        circ = Circuit(1, [gate("RY", 0, param_slot=0)])

        def cost(th):
            out = run_circuit(basis_state(1), circ, th)
            return 1.0 - abs(out.amplitudes[1]) ** 2

        result = minimize(cost, [0.1], OptBudget(), np.random.default_rng(0))
        assert abs(abs(result.theta_star[0]) - math.pi) < 1e-3

    def test_rosenbrock(self):
        def rosen(th):
            return (th[0] - 1.0) ** 2 + 100.0 * (th[1] - th[0] ** 2) ** 2

        # oracle: coarse grid multistart confirms the global minimum near (1,1)
        grid = np.linspace(-2, 2, 41)
        best = min(rosen((a, b)) for a in grid for b in grid)
        assert best >= 0.0 and rosen((1.0, 1.0)) == 0.0

        result = minimize(rosen, [-1.0, 1.0], OptBudget(max_evals=2000, restarts=1),
                          np.random.default_rng(0))
        assert result.cost <= 1e-3
        assert result.evals_used <= 2001

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(3)

        def nasty(th):
            return float(np.sum(np.sin(5 * th) ** 2)) + 0.001 * float(np.sum(th**2))

        theta0 = rng.uniform(-1, 1, size=4)
        result = minimize(nasty, theta0, OptBudget(max_evals=20, restarts=2), rng)
        assert result.cost <= nasty(theta0) + 1e-15

    def test_non_finite_costs_survive(self):
        def spiky(th):
            if abs(th[0]) > 1.0:
                return float("nan")
            return th[0] ** 2

        result = minimize(spiky, [0.5], OptBudget(max_evals=200),
                          np.random.default_rng(0))
        assert math.isfinite(result.cost)

    def test_zero_parameter_vector(self):
        result = minimize(lambda th: 0.25, np.zeros(0), OptBudget(),
                          np.random.default_rng(0))
        assert result.cost == 0.25
        assert result.theta_star.size == 0

    def test_deterministic_given_seed(self):
        def f(th):
            return float(np.sum((th - 1.3) ** 2))

        a = minimize(f, [0.0, 0.0], OptBudget(), np.random.default_rng(9))
        b = minimize(f, [0.0, 0.0], OptBudget(), np.random.default_rng(9))
        assert np.array_equal(a.theta_star, b.theta_star)
        assert a.cost == b.cost


ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def make_cost(kind, n, seed):
    r = np.random.default_rng(seed)
    w, c = r.uniform(0.5, 2.0, size=n), r.normal(size=n)
    if kind == "bowl":
        return lambda x: float(np.sum(w * (x - c) ** 2))
    if kind == "plateau":  # ties between vertices
        return lambda x: float(np.round(np.sum((x - c) ** 2), 1))
    if kind == "steps":
        return lambda x: float(np.sum(np.floor(2 * x) ** 2))
    if kind == "non_finite":  # _guard turns the NaN half-space to +inf
        return lambda x: math.nan if np.sum(x) > c[0] else float(np.sum(np.sin(3 * x) ** 2))
    if kind == "constant":  # every move fails, so every iteration shrinks
        return lambda x: 0.5
    return lambda x: float(np.sum(np.cos(w * x)) + 0.01 * np.sum(x ** 2))


COST_KINDS = ("bowl", "plateau", "steps", "non_finite", "constant", "wavy")


@st.composite
def problems(draw):
    n = draw(st.integers(1, 8))
    x0 = draw(st.lists(st.one_of(st.just(0.0), st.floats(-3, 3)), min_size=n, max_size=n))
    kind = draw(st.sampled_from(COST_KINDS))
    seed = draw(st.integers(0, 2**16))
    if draw(st.sampled_from(("full", "full", "simplex"))) == "full":
        maxfev = draw(st.integers(n + 2, 150))
    else:
        maxfev = draw(st.integers(1, n + 1))  # ends inside the initial simplex
    xatol = draw(st.sampled_from([1e-8, 1e-4, 1e-2, 0.3]))
    fatol = draw(st.sampled_from([1e-9, 1e-4, 1e-1]))
    return n, np.array(x0), kind, seed, maxfev, xatol, fatol


def scipy_nelder_mead(func, x0, maxfev, xatol, fatol):
    from scipy.optimize import minimize as scipy_minimize

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # its inf - inf among +inf costs
        return scipy_minimize(func, x0, method="Nelder-Mead",
                              options={"maxfev": maxfev, "xatol": xatol,
                                       "fatol": fatol, "adaptive": True})


def scipy_reference_minimize(cost, theta0, budget, rng):
    """`minimize` written on SciPy's Nelder-Mead, the optimizer it replaces."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    f = _guard(cost)
    max_evals = budget.evals_for(theta0.size)
    best_theta, best_cost, evals, converged = theta0.copy(), f(theta0), 1, False
    starts = [theta0] + [rng.uniform(-math.pi, math.pi, size=theta0.size)
                         for _ in range(budget.restarts - 1)]
    for start in starts:
        res = scipy_nelder_mead(f, start, max_evals, budget.x_tol, budget.f_tol)
        evals += int(res.nfev)
        if res.fun < best_cost:
            best_cost = float(res.fun)
            best_theta = np.asarray(res.x, dtype=float)
        converged = converged or bool(res.success)
    return best_theta, best_cost, evals, converged


def without_runtime_warnings(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return call(*args)


class TestNelderMeadAgainstScipy:
    # a constant cost shrinks every iteration: with n = 3 the budget of 7
    # runs out after the initial 4, a reflection, a contraction and the
    # first of 3 shrink evaluations
    @example(problem=(3, np.array([0.5, -1.0, 2.0]), "constant", 0, 7, 1e-8, 1e-9))
    @example(problem=(4, np.array([0.0, 0.0, 1.0, 0.0]), "bowl", 1, 3, 1e-8, 1e-9))
    # the initial simplex's x spread is exactly zdelt = xatol: done at once
    @example(problem=(1, np.array([0.0]), "constant", 0, 10, 0.00025, 1e-9))
    @ORACLE
    @given(problem=problems())
    def test_port_matches_scipy(self, problem):
        n, x0, kind, seed, maxfev, xatol, fatol = problem
        f = _guard(make_cost(kind, n, seed))
        expected = scipy_nelder_mead(f, x0, maxfev, xatol, fatol)
        x, fun, nfev, success = without_runtime_warnings(
            _nelder_mead, f, x0, maxfev, xatol, fatol)
        assert np.array_equal(x, expected.x)
        assert fun == expected.fun
        assert nfev == expected.nfev
        assert success == expected.success

    @ORACLE
    @given(problem=problems(), restarts=st.integers(1, 3), rng_seed=st.integers(0, 2**16))
    def test_minimize_matches_scipy(self, problem, restarts, rng_seed):
        n, x0, kind, seed, maxfev, xatol, fatol = problem
        cost = make_cost(kind, n, seed)
        budget = OptBudget(max_evals=maxfev, x_tol=xatol, f_tol=fatol, restarts=restarts)
        theta, value, evals, converged = scipy_reference_minimize(
            cost, x0, budget, np.random.default_rng(rng_seed))
        result = without_runtime_warnings(
            minimize, cost, x0, budget, np.random.default_rng(rng_seed))
        assert np.array_equal(result.theta_star, theta)
        assert result.cost == value
        assert result.evals_used == evals
        assert result.converged == converged

    def test_cost_may_overwrite_its_argument(self):
        def clobbering(x):
            value = float(x @ x)
            x[:] = 99.0
            return value

        clobbered = _nelder_mead(clobbering, np.ones(2), 40, 1e-8, 1e-9)
        clean = _nelder_mead(lambda x: float(x @ x), np.ones(2), 40, 1e-8, 1e-9)
        assert np.array_equal(clobbered[0], clean[0])
        assert clobbered[1:] == clean[1:]

    def test_two_dimensional_theta0_rejected(self):
        with pytest.raises(ValueError):
            minimize(lambda th: 0.0, np.zeros((2, 2)), OptBudget(),
                     np.random.default_rng(0))
        with pytest.raises(ValueError):
            _nelder_mead(lambda x: 0.0, np.zeros((2, 2)), 10, 1e-6, 1e-9)

    def test_all_infinite_costs_warn_nothing(self):
        # the collapsed 1-D simplex reaches the f test with inf - inf
        result = without_runtime_warnings(
            minimize, lambda th: math.nan, [0.3],
            OptBudget(max_evals=50, x_tol=1e-2, restarts=1), np.random.default_rng(0))
        assert result.cost == math.inf


@pytest.fixture(scope="module")
def clean_task():
    dataset = gen_noise_dataset("bitflip", seed=0, p_train=0.0,
                                n_train=4, n_val=4, n_test=1, p_grid=(0.0,))
    return make_denoise_task(dataset)


class TestScoreCell:

    def test_zero_param_cell_direct_evaluation(self, clean_task):
        cell, theta, score = score_cell(Cell(3), clean_task, OptBudget(),
                                        np.random.default_rng(0))
        assert cell == Cell(3)
        assert theta.size == 0
        assert 0.0 <= score <= 1.0

    def test_identity_cell_on_clean_data_analytic_score(self, clean_task):
        # every sample is the clean GHZ state.  The empty encoder leaves the
        # trash entangled, so substituting the |00> reference during the round
        # trip gives <GHZ| rho_A (x) |00><00| |GHZ> = (1/2)(1/2) = 0.25
        score = score_cell(Cell(3), clean_task, OptBudget(), np.random.default_rng(0)).score
        assert score == pytest.approx(0.25, abs=1e-9)

    def test_perfect_encoder_on_clean_data_scores_one(self, clean_task):
        # inverse GHZ preparation maps GHZ to |000>: trash hits the reference
        # exactly and the round trip is lossless
        cell = Cell(3, [[], [], []], {(1, 2): ["CNOT"], (0, 1): ["CNOT"]})
        cell.node_ops[0] = ["H"]
        # emission order is rotations first, so encode with the adjoint layout:
        # CNOT(1,2), CNOT(0,1), H(0) expressed directly as a circuit
        circ = Circuit(3, [gate("CNOT", 1, 2), gate("CNOT", 0, 1), gate("H", 0)])
        out = run_circuit(ghz_state(3), circ)
        assert abs(abs(out.amplitudes[0]) - 1.0) < 1e-12

    def test_deterministic_scores(self, clean_task):
        cell = Cell(3, [["RY"], ["RY"], ["RY"]])
        budget = OptBudget(max_evals=60, restarts=1)
        a = score_cell(cell, clean_task, budget, np.random.default_rng(4))
        b = score_cell(cell, clean_task, budget, np.random.default_rng(4))
        assert a.cell is b.cell is cell
        assert np.array_equal(a.theta, b.theta) and a.score == b.score

    def test_warm_start_used_when_shape_matches(self, clean_task):
        cell = Cell(3, [["RY"], [], []])
        warm = np.array([0.0])
        budget = OptBudget(max_evals=5, restarts=1)
        theta = score_cell(cell, clean_task, budget, np.random.default_rng(0),
                           theta_init=warm).theta
        assert abs(theta[0]) < 1.0  # stayed near the warm start, not a random angle

    def test_width_mismatch_rejected(self, clean_task):
        with pytest.raises(ValueError):
            score_cell(Cell(2), clean_task, OptBudget(), np.random.default_rng(0))
