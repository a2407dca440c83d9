"""Random Elastic Search: population evaluation, constraint handling,
expansion phases, elitism and determinism."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import UNBOUNDED, oracle_unitary, stream_state

import qcas.cell
import qcas.res
from qcas import optim, relm, tasks
from qcas.cell import (
    Cell,
    SoftConstraint,
    build_vocab,
    cell_to_circuit,
    can_grow,
    eval_soft_constraint,
    expand_cell,
    metrics,
    random_cell,
    sample_admissible,
)
from qcas.optim import Draws, OptBudget
from qcas.res import ResConfig, evaluate_population, res_search
from qcas.sim import (
    GATE_KINDS,
    SPACE_CLIFFORD,
    SPACE_GENERIC,
    SPACE_SINGLE_CLIFFORD,
    gate,
)
from qcas.tasks import (
    UnitaryRegenTask,
    gen_hidden_targets,
    gen_noise_dataset,
    make_denoise_task,
)

FAST_OPT = OptBudget(max_evals=80, restarts=1)
GENERIC, CLIFFORD = build_vocab(SPACE_GENERIC), build_vocab(SPACE_CLIFFORD)


def h_target_task():
    """1-qubit task: match H|0> (a hidden single-layer Clifford circuit)."""
    targets = gen_hidden_targets(1, "single", 1, 50, seed=3)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)  # H|0>
    target = next(t for t in targets if abs(np.vdot(t.evolved, plus)) ** 2 > 0.999)
    return UnitaryRegenTask(target)


@pytest.fixture(scope="module")
def task():
    dataset = gen_noise_dataset("bitflip", seed=0, p_train=0.0,
                                n_train=4, n_val=4, n_test=1, p_grid=(0.0,))
    return make_denoise_task(dataset)


class TestEvaluatePopulation:

    def test_identity_cell_analytic_score(self, task):
        results = evaluate_population([Cell(3)], task, FAST_OPT, seed=0)
        # clean GHZ through the trash-substituting round trip: see optimizer tests
        assert results[0].score == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("search", ["res", "rs", "relm"])
    def test_scores_independent_of_list_order(self, task, monkeypatch, search):
        # Each search scores every cell through `score_cell` with the cell's
        # own stream factory, so scoring its cells in any order gives the
        # search's entries: a RES population, an `rs` batch, one RELM epoch's
        # children.
        calls = []

        def recorded(cell, task, budget, make_rng, **kwargs):
            entry = optim.score_cell(cell, task, budget, make_rng, **kwargs)
            calls.append((cell, make_rng, kwargs, entry))
            return entry

        pop = tasks.random_search(task, GENERIC, 6, UNBOUNDED, 7, layer_budget=1,
                                  opt_budget=FAST_OPT)[1]
        monkeypatch.setattr({"res": qcas.res, "rs": tasks, "relm": relm}[search],
                            "score_cell", recorded)
        if search == "res":
            evaluate_population([e.cell for e in pop], task, FAST_OPT, seed=7)
        elif search == "rs":
            tasks.random_search(task, GENERIC, 6, UNBOUNDED, 7, layer_budget=1,
                                opt_budget=FAST_OPT)
        else:
            config = relm.RelmConfig(epochs=1, tournament_size=2, batch_size=6,
                                     population_size=6, max_seq=4, embed_dim=4, n_heads=1,
                                     n_blocks=1, ff_dim=8)
            relm.relm_search(task, config, pop, GENERIC, UNBOUNDED,
                             FAST_OPT, 7)
        assert sum(cell_to_circuit(cell).n_params > 0 for cell, *_ in calls) >= 2
        shuffled = calls[:]
        random.Random(search).shuffle(shuffled)
        for cell, make_rng, kwargs, entry in shuffled:
            other = optim.score_cell(cell, task, FAST_OPT, make_rng, **kwargs)
            assert other.cell is entry.cell and other.score == entry.score
            assert other.theta.dtype == entry.theta.dtype
            assert other.theta.tobytes() == entry.theta.tobytes()


class TestResSearch:
    def test_binding_constraint_single_phase(self):
        task = h_target_task()
        config = ResConfig(population_size=10,
                           constraint=SoftConstraint("n_layers", 1),
                           layer_budget_per_phase=1, max_phases=5)
        result = res_search(task, CLIFFORD, config, FAST_OPT, 0)
        assert metrics(result.best.cell).n_layers <= 1

    def test_solves_match_h_within_two_phases(self):
        task = h_target_task()
        # oracle: exhaustive enumeration over <=2-gate 1-qubit circuits shows
        # an exact solution exists in the space
        from qcas.sim import Circuit, GATE_KINDS
        tags = ["H", "S", "T", "I"]
        exact = False
        for a in tags + [None]:
            for b in tags + [None]:
                gates = [gate(t, 0) for t in (a, b) if t is not None]
                out = oracle_unitary(Circuit(1, gates), ())[:, 0]
                if 1.0 - abs(np.vdot(out, task.target.evolved)) ** 2 <= 1e-9:
                    exact = True
        assert exact

        config = ResConfig(population_size=10,
                           constraint=SoftConstraint("n_layers", 2),
                           max_phases=2)
        result = res_search(task, CLIFFORD, config, FAST_OPT, 1)
        assert 1.0 - result.best.score <= 1e-3

    def test_returned_cell_satisfies_constraint(self):
        targets = gen_hidden_targets(3, "dense", 3, 3, seed=5)
        constraint = SoftConstraint("n_layers", 3)
        for target in targets:
            config = ResConfig(population_size=8, constraint=constraint, max_phases=3)
            result = res_search(UnitaryRegenTask(target), CLIFFORD, config, FAST_OPT, 2)
            assert eval_soft_constraint(constraint, result.best.cell)

    def test_deterministic_given_seed(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=9)[0]
        task = UnitaryRegenTask(target)
        config = ResConfig(population_size=6, max_phases=3)
        a = res_search(task, CLIFFORD, config, FAST_OPT, 4)
        b = res_search(task, CLIFFORD, config, FAST_OPT, 4)
        assert a.best.cell == b.best.cell
        assert a.best.score == b.best.score
        assert [vars(p) for p in a.phases] == [vars(p) for p in b.phases]

    def test_trace_phases_are_sequential(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=10)[0]
        config = ResConfig(population_size=6, max_phases=4)
        result = res_search(UnitaryRegenTask(target), CLIFFORD, config, FAST_OPT, 5)
        phases = [p.phase for p in result.phases]
        assert phases == list(range(1, len(phases) + 1))
        assert all(p.n_scored <= config.population_size for p in result.phases)

    def test_global_best_never_below_phase_one(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=12)[0]
        config = ResConfig(population_size=6, max_phases=4)
        result = res_search(UnitaryRegenTask(target), CLIFFORD, config, FAST_OPT, 6)
        assert result.best.score >= result.phases[0].best_score - 1e-12

    @pytest.mark.parametrize("space, quantity, bound", [
        (SPACE_CLIFFORD, "n_gates", 3), ({"CNOT"}, "n_gates", 2), ({"CNOT"}, "n_layers", 2),
        ({"CNOT"}, "n_params", 1), ({"CNOT"}, "n_two_qubit", 2)],
        ids=["clifford-n_gates", "cnot-n_gates", "cnot-n_layers", "cnot-n_params",
             "cnot-n_two_qubit"])
    def test_seed_without_headroom_draws_nothing(self, task, space, quantity, bound,
                                                 monkeypatch):
        # the search ends before its last phase, at a best cell with no room
        # left (in the {CNOT} space, already after phase 1; under n_params, by
        # filling every pair), without drawing from it; the loop that drew
        # from it until the cap ran out, admitting nothing, returns the same
        constraint, vocab = SoftConstraint(quantity, bound), build_vocab(space)
        config = ResConfig(population_size=6, constraint=constraint, max_phases=4)
        seeds = []

        def counted(seed, *args):
            seeds.append(seed)
            return expand_cell(seed, *args)
        monkeypatch.setattr(qcas.res, "expand_cell", counted)
        result = res_search(task, vocab, config, FAST_OPT, 3)
        assert len(result.phases) < config.max_phases
        assert not can_grow(result.best.cell, vocab, constraint)
        assert all(can_grow(seed, vocab, constraint) for seed in seeds)
        grown = len(seeds)
        monkeypatch.setattr(qcas.res, "can_grow", lambda *args: True)
        drained = res_search(task, vocab, config, FAST_OPT, 3)
        cap = (config.population_size - 1) * 100
        assert seeds[grown:] == seeds[:grown] + [result.best.cell] * cap
        assert (drained.best.cell, drained.best.score) == (result.best.cell, result.best.score)
        assert np.array_equal(drained.best.theta, result.best.theta)
        assert [vars(p) for p in drained.phases] == [vars(p) for p in result.phases]
        assert [(c, list(t), s) for c, t, s in drained.population] == [
            (c, list(t), s) for c, t, s in result.population]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(space=st.sampled_from([SPACE_CLIFFORD, SPACE_GENERIC, frozenset({"RY", "H", "CNOT"})]),
           quantity=st.sampled_from(["n_params", "n_layers", "n_two_qubit", "n_gates"]),
           bound=st.integers(1, 4), max_phases=st.integers(1, 4),
           layer_budget=st.integers(1, 2), n_qubits=st.integers(2, 3),
           seed=st.integers(0, 2**16))
    def test_rotations_per_qubit_are_bounded(self, space, quantity, bound, max_phases,
                                             layer_budget, n_qubits, seed):
        # the counts the config check holds relm.max_seq to: at most
        # layer_budget per phase on a qubit, and at most the bound of a
        # quantity that counts every rotation
        built = []

        def recorded(sample):
            def wrapper(*args):
                cell = sample(*args)
                built.append(cell)
                return cell
            return wrapper

        task = UnitaryRegenTask(gen_hidden_targets(n_qubits, "dense", 1, 1, seed=seed)[0])
        config = ResConfig(population_size=4, constraint=SoftConstraint(quantity, bound),
                           layer_budget_per_phase=layer_budget, max_phases=max_phases)
        with pytest.MonkeyPatch.context() as mp:
            for name in ("random_cell", "expand_cell"):
                mp.setattr(qcas.res, name, recorded(getattr(qcas.res, name)))
            res_search(task, build_vocab(space), config, OptBudget(max_evals=10, restarts=1), seed)
        most = max_phases * layer_budget
        if quantity in ("n_layers", "n_gates") or (
                quantity == "n_params"
                and all(GATE_KINDS[t].param_count for t in space if GATE_KINDS[t].arity == 1)):
            most = min(most, bound)
        cells = [cell for cell in built if cell is not None]
        assert cells
        assert max(len(ops) for cell in cells for ops in cell.node_ops) <= most

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="^population_size "):
            ResConfig(population_size=0)
        with pytest.raises(ValueError, match="^max_phases .*2.5"):
            ResConfig(max_phases=2.5)


def reference_expand_cell(seed, space, rng, layer_budget=1):
    """expand_cell as it was before it took a constraint: copy the seed's
    ops, draw the additions onto the copy, then build the child."""
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    node_ops = [list(ops) for ops in seed.node_ops]
    edge_ops = dict(seed.edge_ops)
    for q in range(seed.n_qubits):
        if rot:
            k = int(rng.integers(0, layer_budget + 1))
            node_ops[q].extend(rot[rng.integers(len(rot))] for _ in range(k))
    if ent:
        for a in range(seed.n_qubits):
            for b in range(a + 1, seed.n_qubits):
                if (a, b) in edge_ops or (b, a) in edge_ops:
                    continue
                if rng.random() < 0.5:
                    c, t = (a, b) if rng.random() < 0.5 else (b, a)
                    edge_ops[(c, t)] = [ent[rng.integers(len(ent))]]
    return Cell(seed.n_qubits, node_ops, edge_ops)


def reference_sample(make, constraint, count, max_tries, exclude):
    """Build every candidate, then check the constraint and the exclusion."""
    cells = []
    for _ in range(count * max_tries):
        if len(cells) == count:
            break
        cell = make()
        if exclude is not None and cell == exclude:
            continue
        if constraint is None or eval_soft_constraint(constraint, cell):
            cells.append(cell)
    return cells


# The last two have a gate category with one kind (as CNOT is in
# SPACE_CLIFFORD), for which expand_cell draws no index.
SPACES = [SPACE_SINGLE_CLIFFORD, SPACE_CLIFFORD, SPACE_GENERIC,
          frozenset({"RY", "CNOT"}), frozenset({"RX", "CRX", "CRZ"})]


@st.composite
def expansions(draw):
    """A gate space, a seed cell over it (edges may carry several ops or
    none), a layer budget and an optional constraint, whose bound may be the
    seed's own quantity: where it is None, the reference samples
    unconstrained and qcas under `UNBOUNDED`."""
    space = draw(st.sampled_from(SPACES))
    n = draw(st.integers(1, 5))
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    node_ops, edge_ops = [], {}
    if draw(st.booleans()):
        node_ops = [draw(st.lists(st.sampled_from(rot), max_size=3)) for _ in range(n)]
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        if ent and pairs:
            for c, t in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)):
                if (t, c) not in edge_ops:
                    edge_ops[(c, t)] = draw(st.lists(st.sampled_from(ent), max_size=2))
    seed = Cell(n, node_ops, edge_ops)
    quantity = draw(st.sampled_from([None, "n_params", "n_layers", "n_two_qubit", "n_gates"]))
    constraint = (None if quantity is None else SoftConstraint(quantity, draw(st.one_of(
        st.integers(1, 12), st.just(max(1, getattr(metrics(seed), quantity)))))))
    return space, seed, draw(st.integers(1, 3)), constraint


class TestSampler:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=expansions(), count=st.integers(1, 4), max_tries=st.integers(1, 12),
           rng_seed=st.integers(0, 2**32 - 1), fresh=st.booleans())
    def test_matches_building_every_candidate(self, case, count, max_tries, rng_seed, fresh):
        space, seed, layer_budget, constraint = case
        bound, vocab = constraint or UNBOUNDED, build_vocab(space)
        rng = Draws(np.random.default_rng(rng_seed))
        ref_rng = np.random.default_rng(rng_seed)
        if fresh:  # phase 1: random cells, nothing excluded
            n = seed.n_qubits
            got = sample_admissible(
                lambda: random_cell(vocab, n, rng, layer_budget, bound), count, max_tries)
            want = reference_sample(
                lambda: reference_expand_cell(Cell(n), space, ref_rng, layer_budget),
                constraint, count, max_tries, None)
        else:  # later phases: expansions of the seed, the seed excluded
            got = sample_admissible(
                lambda: expand_cell(seed, vocab, rng, layer_budget, bound),
                count, max_tries, exclude=seed)
            want = reference_sample(
                lambda: reference_expand_cell(seed, space, ref_rng, layer_budget),
                constraint, count, max_tries, seed)
        assert got == want
        assert stream_state(rng) == stream_state(ref_rng)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=expansions(), quantity=st.sampled_from(["n_params", "n_layers",
                                                        "n_two_qubit", "n_gates"]),
           rng_seed=st.integers(0, 2**32 - 1))
    def test_constraint_decided_at_the_bound(self, case, quantity, rng_seed):
        # a child exactly at the bound is built, one just over it is not
        space, seed, layer_budget, _ = case
        vocab = build_vocab(space)
        want = reference_expand_cell(seed, space, np.random.default_rng(rng_seed),
                                     layer_budget)
        amount = getattr(metrics(want), quantity)
        for bound in (amount, amount - 1):
            if bound < 1:
                continue
            rng = Draws(np.random.default_rng(rng_seed))
            got = expand_cell(seed, vocab, rng, layer_budget, SoftConstraint(quantity, bound))
            if bound == amount:
                assert got == want
            else:
                assert got is None
            ref_rng = np.random.default_rng(rng_seed)
            reference_expand_cell(seed, space, ref_rng, layer_budget)
            assert stream_state(rng) == stream_state(ref_rng)

    @pytest.mark.parametrize("args", [(1,), (0, 1)])
    def test_one_value_integers_draws_nothing(self, args):
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        assert rng.integers(*args) == 0
        assert rng.bit_generator.state == state, (
            f"numpy's integers{args} now draws from the generator; expand_cell skips "
            "that call for a gate category with one kind, so its seeded cells would change")

    @pytest.fixture
    def built(self, monkeypatch):
        """The cells `qcas.cell` builds from here on, in order."""
        built = []

        class CountedCell(Cell):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(qcas.cell, "Cell", CountedCell)
        return built

    def test_rejected_candidate_builds_no_cell(self, built):
        seed = Cell(3, [["RX", "RY"], [], ["RZ"]], {(0, 1): ["CNOT"]})
        rng = Draws(np.random.default_rng(0))
        # the seed already breaks n_layers <= 2, so every child does too
        for _ in range(50):
            assert expand_cell(seed, GENERIC, rng, 2, SoftConstraint("n_layers", 2)) is None
        assert built == []
        child = expand_cell(seed, GENERIC, rng, 2, SoftConstraint("n_layers", 20))
        assert built == [child]

    def test_random_cell_grows_a_shared_empty_cell(self, built, monkeypatch):
        # one empty seed per width, built on first use; after that a call
        # builds only the cell it returns
        monkeypatch.setattr(qcas.cell, "_empty_cell",
                            functools.lru_cache(typed=True)(qcas.cell._empty_cell.__wrapped__))
        rng = Draws(np.random.default_rng(1))
        cells = [random_cell(CLIFFORD, 4, rng, 1, SoftConstraint("n_gates", 4))
                 for _ in range(60)]
        assert None in cells
        assert built[0] is qcas.cell._empty_cell(4)
        assert built[1:] == [cell for cell in cells if cell is not None] != []
