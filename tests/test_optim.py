"""Derivative-free parameter optimization and cell scoring.

The Nelder-Mead port is checked against SciPy's adaptive Nelder-Mead as an
oracle; scipy is a test-time dependency only.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference
from reference import UNBOUNDED, content_stream, score_with_generator, stream_state

from qcas import optim, relm, res, tasks
from qcas.cell import Cell, SoftConstraint, build_vocab, cell_to_circuit
from qcas.optim import (STREAMS, Draws, OptBudget, _guard, _nelder_mead, minimize, score_cell,
                         stream)
from qcas.sim import SPACE_CLIFFORD, SPACE_GENERIC, Circuit, apply_circuit_columns, basis_state, gate, ghz_state
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
        result = minimize(lambda th: (th[0] - 2.0) ** 2, np.array([0.0]), OptBudget(),
                          np.random.default_rng(0))
        assert abs(result.theta_star[0] - 2.0) < 1e-4

    def test_ry_rotation_angle(self):
        circ = Circuit(1, [gate("RY", 0)])

        def cost(th):
            out = apply_circuit_columns(circ, th, basis_state(1)[:, None])[:, 0]
            return 1.0 - abs(out[1]) ** 2

        result = minimize(cost, np.array([0.1]), OptBudget(), np.random.default_rng(0))
        assert abs(abs(result.theta_star[0]) - math.pi) < 1e-3

    def test_rosenbrock(self):
        def rosen(th):
            return (th[0] - 1.0) ** 2 + 100.0 * (th[1] - th[0] ** 2) ** 2

        # oracle: coarse grid multistart confirms the global minimum near (1,1)
        grid = np.linspace(-2, 2, 41)
        best = min(rosen((a, b)) for a in grid for b in grid)
        assert best >= 0.0 and rosen((1.0, 1.0)) == 0.0

        result = minimize(rosen, np.array([-1.0, 1.0]), OptBudget(max_evals=2000, restarts=1),
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

        result = minimize(spiky, np.array([0.5]), OptBudget(max_evals=200),
                          np.random.default_rng(0))
        assert math.isfinite(result.cost)

    def test_deterministic_given_seed(self):
        def f(th):
            return float(np.sum((th - 1.3) ** 2))

        a = minimize(f, np.array([0.0, 0.0]), OptBudget(), np.random.default_rng(9))
        b = minimize(f, np.array([0.0, 0.0]), OptBudget(), np.random.default_rng(9))
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
    """`minimize` written on SciPy's Nelder-Mead, the optimizer it replaces.
    SciPy does not return the cost of its first vertex, theta0, so this
    evaluates it once more and does not count that call: `minimize` takes
    it from its own first restart."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    f = _guard(cost)
    max_evals = budget.evals_for(theta0.size)
    best_theta, best_cost, evals, converged = theta0.copy(), f(theta0), 0, False
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
        x, fun, nfev, success, f0 = without_runtime_warnings(
            _nelder_mead, f, x0, maxfev, xatol, fatol)
        assert np.array_equal(x, expected.x)
        assert fun == expected.fun
        assert nfev == expected.nfev
        assert success == expected.success
        assert f0 == f(x0)

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
            minimize, lambda th: math.nan, np.array([0.3]),
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
                                        lambda: np.random.default_rng(0))
        assert cell == Cell(3)
        assert theta.size == 0
        assert 0.0 <= score <= 1.0

    def test_identity_cell_on_clean_data_analytic_score(self, clean_task):
        # every sample is the clean GHZ state.  The empty encoder leaves the
        # trash entangled, so substituting the |00> reference during the round
        # trip gives <GHZ| rho_A (x) |00><00| |GHZ> = (1/2)(1/2) = 0.25
        score = score_cell(Cell(3), clean_task, OptBudget(),
                           lambda: np.random.default_rng(0)).score
        assert score == pytest.approx(0.25, abs=1e-9)

    def test_perfect_encoder_on_clean_data_scores_one(self, clean_task):
        # inverse GHZ preparation maps GHZ to |000>: trash hits the reference
        # exactly and the round trip is lossless
        cell = Cell(3, [["H"], [], []], {(1, 2): ["CNOT"], (0, 1): ["CNOT"]})
        # emission order is rotations first, so encode with the adjoint layout:
        # CNOT(1,2), CNOT(0,1), H(0) expressed directly as a circuit
        circ = Circuit(3, [gate("CNOT", 1, 2), gate("CNOT", 0, 1), gate("H", 0)])
        out = apply_circuit_columns(circ, (), ghz_state(3)[:, None])[:, 0]
        assert abs(abs(out[0]) - 1.0) < 1e-12

    def test_deterministic_scores(self, clean_task):
        cell = Cell(3, [["RY"], ["RY"], ["RY"]])
        budget = OptBudget(max_evals=60, restarts=1)
        a = score_cell(cell, clean_task, budget, lambda: np.random.default_rng(4))
        b = score_cell(cell, clean_task, budget, lambda: np.random.default_rng(4))
        assert a.cell is b.cell is cell
        assert np.array_equal(a.theta, b.theta) and a.score == b.score

    def test_warm_start_used_when_shape_matches(self, clean_task):
        cell = Cell(3, [["RY"], [], []])
        warm = np.array([0.0])
        budget = OptBudget(max_evals=5, restarts=1)
        theta = score_cell(cell, clean_task, budget, lambda: np.random.default_rng(0),
                           theta_init=warm).theta
        assert abs(theta[0]) < 1.0  # stayed near the warm start, not a random angle

    def test_width_mismatch_rejected(self, clean_task):
        with pytest.raises(ValueError, match="columns have 8 rows, but a 2-qubit circuit needs 4"):
            score_cell(Cell(2), clean_task, OptBudget(), lambda: np.random.default_rng(0))


class TestFittingRng:
    """`score_cell` builds its fitting rng from a factory, and only for a cell
    with parameters; each search hands it a factory of the stream it used to
    pass as a Generator: a RELM child's `[seed, 0x5C0, epoch, j]`, RES's
    content digest (`reference.content_stream`) and random search's
    `[seed, 0xEC, i]`."""

    BUDGET = OptBudget(max_evals=30, restarts=2)

    def test_parameter_free_cell_builds_no_rng(self, clean_task):
        def unexpected():
            raise AssertionError("a parameter-free cell built an rng")

        cell = Cell(3, [["H"], [], []], {(0, 1): ["CNOT"]})
        entry = score_cell(cell, clean_task, self.BUDGET, unexpected)
        assert entry.theta.size == 0
        assert entry.score == score_cell(cell, clean_task, self.BUDGET,
                                         lambda: np.random.default_rng(0)).score

    @staticmethod
    def scored_by(monkeypatch, module):
        calls = []
        original = module.score_cell

        def recorded(cell, task, budget, make_rng, **kwargs):
            entry = original(cell, task, budget, make_rng, **kwargs)
            calls.append((cell, make_rng, kwargs, entry))
            return entry

        monkeypatch.setattr(module, "score_cell", recorded)
        return calls

    def search(self, name, task, vocab, pop):
        """Score cells as search `name` does at seed 7: two RELM epochs of 3
        children from `pop`, RES's scoring of `pop`'s cells, or a random
        search of 4 cells."""
        if name == "relm":
            config = relm.RelmConfig(epochs=2, tournament_size=2, batch_size=3,
                                     population_size=4, max_seq=6, embed_dim=4, n_heads=1,
                                     n_blocks=1, ff_dim=8)
            relm.relm_search(task, config, pop, vocab, UNBOUNDED, self.BUDGET, 7)
        elif name == "res":
            res.evaluate_population([e.cell for e in pop], task, self.BUDGET, 7)
        else:
            tasks.random_search(task, vocab, 4, UNBOUNDED, 7, layer_budget=1,
                                opt_budget=self.BUDGET)

    @pytest.mark.parametrize("search", ["relm", "res", "rs"])
    def test_searches_fit_from_their_streams(self, clean_task, monkeypatch, search):
        seed = 7
        pop = tasks.random_search(clean_task, build_vocab(SPACE_GENERIC), 4, UNBOUNDED, seed,
                                  layer_budget=1, opt_budget=self.BUDGET)[1]
        calls = self.scored_by(monkeypatch, {"relm": relm, "res": res, "rs": tasks}[search])
        self.search(search, clean_task, build_vocab(SPACE_GENERIC), pop)
        streams = {"relm": [[seed, 0x5C0, epoch, j] for epoch in (1, 2) for j in range(3)],
                   "res": [content_stream(seed, e.cell) for e in pop],
                   "rs": [[seed, 0xEC, i] for i in range(4)]}[search]
        assert len(calls) == len(streams)
        assert any(cell_to_circuit(cell).n_params for cell, *_ in calls)
        for (cell, make_rng, kwargs, entry), stream in zip(calls, streams):
            expected = (stream if isinstance(stream, np.random.Generator)
                        else np.random.default_rng(stream))
            assert make_rng().bit_generator.state == expected.bit_generator.state
            if cell_to_circuit(cell).n_params:
                reference = score_with_generator(cell, clean_task, self.BUDGET, expected,
                                                 **kwargs)
                assert entry.cell is reference[0]
                assert np.array_equal(entry.theta, reference[1])
                assert entry.score == reference[2]

    @pytest.mark.parametrize("search", ["relm", "res", "rs"])
    def test_parameter_free_cells_draw_no_fit_stream(self, clean_task, monkeypatch, search):
        # no "*.fit" stream means no Generator built for a fit and, on RES's
        # content-keyed path, no cell hashed
        pop = tasks.random_search(clean_task, build_vocab(SPACE_CLIFFORD), 4, UNBOUNDED, 7,
                                  layer_budget=1, opt_budget=self.BUDGET)[1]
        purposes = []

        def recording(seed, purpose, *keys):
            purposes.append(purpose)
            return stream(seed, purpose, *keys)

        for module in (relm, res, tasks):
            monkeypatch.setattr(module, "stream", recording)
        calls = self.scored_by(monkeypatch, {"relm": relm, "res": res, "rs": tasks}[search])
        self.search(search, clean_task, build_vocab(SPACE_CLIFFORD), pop)
        assert len(calls) >= 4
        assert not any(cell_to_circuit(cell).n_params for cell, *_ in calls)
        assert set(purposes) == {"relm": {"relm.select", "relm.controller"},
                                 "res": set(), "rs": {"rs.sample"}}[search]


def stream_mentions(node, names, function=None):
    """(enclosing function or None, name) of each mention of one of `names`
    under `node`: a name, an attribute or an import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    found = []
    if isinstance(node, ast.Name) and node.id in names:
        found.append((function, node.id))
    elif isinstance(node, ast.Attribute) and node.attr in names:
        found.append((function, node.attr))
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        imported = [alias.name.split(".")[0] for alias in node.names]
        imported += [node.module.split(".")[0]] if getattr(node, "module", None) else []
        found += [(function, name) for name in imported if name in names]
    for child in ast.iter_child_nodes(node):
        found += stream_mentions(child, names, function)
    return found


def purposes_named(tree):
    """The purpose of each `stream(seed, purpose, ...)` call and each
    `partial(stream, seed, purpose, ...)` under `tree`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "stream":
            yield node.args[1].value
        elif node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "stream":
            yield node.args[2].value


class TestStreamTable:
    """Every seeded Generator in qcas comes from `optim.stream`: each purpose
    of its table has its own tag, is named where qcas draws from it, and
    builds the entropy it built as a literal at its call site."""

    TREES = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(optim.__file__).parent.glob("*.py"))}

    def test_generators_and_digests_are_built_only_in_stream(self):
        names = {"default_rng", "SeedSequence", "hashlib"}
        found = {(file, function, name) for file, tree in self.TREES.items()
                 for function, name in stream_mentions(tree, names)}
        assert {(file, function) for file, function, _ in found} == {("optim.py", "stream")}
        assert {name for *_, name in found} == {"default_rng", "hashlib"}

    def test_tags_are_distinct_and_every_purpose_is_drawn(self):
        tags = [tag for tag in STREAMS.values() if tag is not None]
        assert len(set(tags)) == len(tags) == len(STREAMS) - 1
        named = [p for tree in self.TREES.values() for p in purposes_named(tree)]
        assert set(named) == set(STREAMS)

    @pytest.mark.parametrize("purpose, keys, entropy", [
        ("data.noise", (), [5, 0x5E7]), ("data.digits", (), [5, 0xD16]),
        ("data.tetris", (), [5, 0x7E7]), ("data.state_compress", (), [5, 0x5C5]),
        ("data.regen_targets", (), [5, 0x717]), ("data.image_split", (), [5, 0x1D5]),
        ("res.sample", (), [5, 0x2E5]), ("relm.select", (), [5, 0xE70]),
        ("relm.controller", (), [5, 0xC7]), ("relm.fit", (2, 3), [5, 0x5C0, 2, 3]),
        ("rs.sample", (), [5, 0xA5]), ("rs.fit", (4,), [5, 0xEC, 4]),
    ])
    def test_each_purpose_builds_its_entropy(self, purpose, keys, entropy):
        state = stream(5, purpose, *keys).bit_generator.state
        assert state == np.random.default_rng(entropy).bit_generator.state

    def test_res_fit_is_keyed_by_cell_content(self):
        cell = Cell(3, [["RY"], [], ["RX"]], {(0, 1): ["CRZ"]})
        twin = Cell(3, [["RY"], [], ["RX"]], {(0, 1): ["CRZ"]})
        state = stream(5, "res.fit", cell).bit_generator.state
        assert state == content_stream(5, twin).bit_generator.state
        assert state != content_stream(6, cell).bit_generator.state


class TestDraws:
    def test_only_a_pcg64_stream(self):
        with pytest.raises(ValueError, match="MT19937"):
            Draws(np.random.Generator(np.random.MT19937(0)))


def scalar_expansion(rng, n_qubits, n_counts, n_rot, n_pairs, n_ent):
    """`Draws.expansion` as the Generator's scalar `integers` and `random` calls."""
    counts, ids, directed, kinds = [], [], [], []
    if n_rot:
        for _ in range(n_qubits):
            counts.append(int(rng.integers(n_counts)))
            ids += [int(rng.integers(n_rot)) for _ in range(counts[-1])]
    if n_ent:
        for i in range(n_pairs):
            if rng.random() < 0.5:
                directed.append(2 * i + (rng.random() >= 0.5))
                kinds.append(int(rng.integers(n_ent)))
    return counts, ids, directed, kinds


# (n_qubits, n_counts, n_rot, n_pairs, n_ent): SPACE_CLIFFORD at 5 qubits and
# layer budget 1; SPACE_GENERIC at layer budget 2, 3 counts and 3 rotation
# kinds; one kind in a category, or none; ranges where Lemire's method
# retries about half its rotation and kind draws (the crafted words below
# make a count draw retry); ranges that retry about a quarter of their draws
# (3 * 2**30), just under 2**32, and the whole 32-bit range
EXPANSION_SHAPES = {"clifford": (5, 2, 4, 10, 1), "generic": (3, 3, 3, 3, 4),
                    "one-rotation-kind": (4, 4, 1, 6, 0), "no-rotation-kind": (4, 2, 0, 6, 2),
                    "one-kind-each": (2, 2, 1, 1, 1), "retrying": (3, 3, 2**31 + 1, 3, 2**31 + 1),
                    "wide": (3, 4, 3 * 2**30, 4, 2**32 - 5), "whole-32-bit": (3, 3, 2**32, 3, 2**32)}


class TestExpansion:
    """`Draws.expansion` decodes one candidate in one call: the same choices,
    and the stream left where it stands, as the Generator's scalar
    `integers` and `random` calls on the same seed, so a numpy whose
    `integers` draws differently fails here instead of changing qcas's runs."""

    @pytest.mark.parametrize("shape", EXPANSION_SHAPES.values(), ids=EXPANSION_SHAPES)
    @pytest.mark.parametrize("half_used", [False, True], ids=["fresh", "half-used"])
    @pytest.mark.parametrize("block", [1, 7, Draws._BLOCK])
    def test_same_choices_as_the_scalar_calls(self, monkeypatch, block, half_used, shape):
        # blocks of 1 and 7 words refill in the middle of a candidate
        monkeypatch.setattr(Draws, "_BLOCK", block)
        generator, wrapped = np.random.default_rng(block), np.random.default_rng(block)
        if half_used:  # the Generator holds the upper half of a word
            generator.integers(2)
            wrapped.integers(2)
        draws = Draws(wrapped)
        for _ in range(200):
            got = draws.expansion(*shape)
            assert got == scalar_expansion(generator, *shape)
            assert all(type(v) is int for values in got for v in values)
            assert stream_state(draws) == stream_state(generator)

    def test_lemire_retry_on_crafted_words(self, monkeypatch):
        # low half 0 is a biased draw for 3 values (0 * 3 mod 2**32 < 2**32 % 3),
        # so each of these words retries at least once
        words = iter([0xAAAAAAAB << 32, 0, 0xFFFFFFFF << 32 | 0x55555556, 0, 1 << 63,
                      0xAAAAAAAB << 32])
        monkeypatch.setattr(Draws, "_BLOCK", 1)
        draws = Draws(np.random.default_rng(0))
        draws._raw = lambda size: np.array([next(words)], dtype=np.uint64)
        assert draws.expansion(1, 3, 3, 1, 3) == ([2], [1, 2], [1], [2])
        # it read all six words, and no more: the last in full, none left over
        assert (draws._pos, draws._half) == (1, None)
        assert next(words, None) is None


class TestSearchesOnDraws:
    """RES and random search read their sampling streams through `Draws`,
    and return the same entries as when the reference sampler draws from the
    Generator itself."""

    BUDGET = OptBudget(max_evals=30, restarts=2)

    @staticmethod
    def entries(result):
        return [(entry.cell, entry.theta.tolist(), entry.score) for entry in result]

    def run(self, search, task, space):
        vocab, constraint = build_vocab(space), SoftConstraint("n_layers", 3)
        if search == "res":
            config = res.ResConfig(population_size=6, constraint=constraint, max_phases=3)
            result = res.res_search(task, vocab, config, self.BUDGET, 11)
            return (self.entries([result.best, *result.population]),
                    [vars(phase) for phase in result.phases])
        best, scored = tasks.random_search(task, vocab, 6, constraint, 11, layer_budget=2,
                                           opt_budget=self.BUDGET)
        return self.entries([best, *scored])

    @pytest.mark.parametrize("space", [SPACE_CLIFFORD, SPACE_GENERIC], ids=["clifford", "generic"])
    @pytest.mark.parametrize("search", ["res", "rs"])
    def test_same_entries_as_the_generator(self, clean_task, monkeypatch, search, space):
        through_draws = self.run(search, clean_task, space)
        module = {"res": res, "rs": tasks}[search]
        monkeypatch.setattr(module, "Draws", lambda g: g)
        monkeypatch.setattr(module, "random_cell", lambda vocab, n, rng, layer_budget, c:
                            reference.random_cell(space, n, rng, layer_budget, c))
        monkeypatch.setattr(res, "expand_cell", lambda seed, vocab, rng, layer_budget, c:
                            reference.expand_cell(seed, space, rng, layer_budget, c))
        assert self.run(search, clean_task, space) == through_draws


class TestEvaluationAccounting:
    """`evals_used` is the number of cost calls, the SciPy oracle asks for as
    many (besides its extra call at theta0), and a scored cell costs exactly
    that many calls of the task's `training_cost`.  An evaluation made
    cheaper keeps all three; skipping or batching evaluations breaks them, so
    "cheaper per eval" stays apart from "fewer evals"."""

    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("max_evals,converged", [(40, False), (2000, True)],
                             ids=["budget-spent", "converged"])
    def test_evals_used_is_the_number_of_cost_calls(self, restarts, max_evals, converged):
        def bowl(theta):
            return float(np.sum((theta - np.array([0.3, -0.2])) ** 2))

        def counting(calls):
            def cost(theta):
                calls.append(1)
                return bowl(theta)
            return cost

        budget = OptBudget(max_evals=max_evals, restarts=restarts)
        calls, oracle_calls = [], []
        result = minimize(counting(calls), np.array([1.0, -0.5]), budget,
                          np.random.default_rng(3))
        _, _, oracle_evals, _ = scipy_reference_minimize(
            counting(oracle_calls), [1.0, -0.5], budget, np.random.default_rng(3))
        assert result.converged is converged
        # the oracle's own evaluation of theta0 is not one of minimize's
        assert result.evals_used == len(calls) == oracle_evals == len(oracle_calls) - 1
        if not converged:  # every restart spends its budget, theta0 first
            assert len(calls) == restarts * max_evals

    @pytest.mark.parametrize("budget", [OptBudget(max_evals=30, restarts=3),
                                        OptBudget(max_evals=2000, restarts=1)],
                             ids=["budget-spent", "converged"])
    def test_score_cell_calls_training_cost_once_per_evaluation(self, clean_task, budget,
                                                                monkeypatch):
        # patched on the class, as perfbench's evaluation counter does
        results, calls = [], []
        real_minimize, real_cost = optim.minimize, type(clean_task).training_cost

        def recording(*args):
            results.append(real_minimize(*args))
            return results[-1]

        def counted(self, circuit, theta):
            calls.append(1)
            return real_cost(self, circuit, theta)

        monkeypatch.setattr(optim, "minimize", recording)
        monkeypatch.setattr(type(clean_task), "training_cost", counted)
        cell = Cell(3, [["RY"], ["RX"], []], {(0, 1): ["CRZ"]})
        score_cell(cell, clean_task, budget, lambda: np.random.default_rng(8))
        assert len(results) == 1
        assert results[0].converged is (budget.max_evals == 2000)
        assert len(calls) == results[0].evals_used
