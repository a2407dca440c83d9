"""Random Elastic Search: population evaluation, constraint handling,
expansion phases, elitism and determinism."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcas.cell
from qcas.cell import (
    Cell,
    SoftConstraint,
    eval_soft_constraint,
    expand_cell,
    metrics,
    random_cell,
    sample_admissible,
)
from qcas.optim import OptBudget
from qcas.res import ResConfig, evaluate_population, res_search
from qcas.sim import (
    GATE_KINDS,
    SPACE_CLIFFORD,
    SPACE_GENERIC,
    SPACE_SINGLE_CLIFFORD,
    basis_state,
    gate,
    pure_fidelity,
    run_circuit,
)
from qcas.tasks import (
    UnitaryRegenTask,
    gen_hidden_targets,
    gen_noise_dataset,
    make_denoise_task,
)

FAST_OPT = OptBudget(max_evals=80, restarts=1)


def h_target_task():
    """1-qubit task: match H|0> (a hidden single-layer Clifford circuit)."""
    targets = gen_hidden_targets(1, "single", 1, 50, seed=3)
    target = next(t for t in targets
                  if pure_fidelity(t.evolved,
                                   run_circuit(basis_state(1),
                                               type(t.circuit)(1, [gate("H", 0)]))) > 0.999)
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

    def test_scores_independent_of_list_order(self, task):
        cells = [Cell(3), Cell(3, [["RY"], [], []]), Cell(3, [[], ["RX"], []])]
        forward = evaluate_population(cells, task, FAST_OPT, seed=7)
        backward = evaluate_population(cells[::-1], task, FAST_OPT, seed=7)
        for f, b in zip(forward, backward[::-1]):
            assert f.cell is b.cell and f.score == b.score


class TestResSearch:
    def test_binding_constraint_single_phase(self):
        task = h_target_task()
        config = ResConfig(population_size=10,
                           constraint=SoftConstraint("n_layers", 1),
                           layer_budget_per_phase=1, opt_budget=FAST_OPT,
                           max_phases=5, seed=0)
        result = res_search(task, SPACE_CLIFFORD, config)
        assert metrics(result.best_cell).n_layers <= 1

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
                out = run_circuit(basis_state(1), Circuit(1, gates))
                if 1.0 - pure_fidelity(out, task.target.evolved) <= 1e-9:
                    exact = True
        assert exact

        config = ResConfig(population_size=10,
                           constraint=SoftConstraint("n_layers", 2),
                           opt_budget=FAST_OPT, max_phases=2, seed=1)
        result = res_search(task, SPACE_CLIFFORD, config)
        assert 1.0 - result.score <= 1e-3

    def test_returned_cell_satisfies_constraint(self):
        targets = gen_hidden_targets(3, "dense", 3, 3, seed=5)
        constraint = SoftConstraint("n_layers", 3)
        for target in targets:
            config = ResConfig(population_size=8, constraint=constraint,
                               opt_budget=FAST_OPT, max_phases=3, seed=2)
            result = res_search(UnitaryRegenTask(target), SPACE_CLIFFORD, config)
            assert eval_soft_constraint(constraint, result.best_cell)

    def test_deterministic_given_seed(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=9)[0]
        task = UnitaryRegenTask(target)
        config = ResConfig(population_size=6, opt_budget=FAST_OPT,
                           max_phases=3, seed=4)
        a = res_search(task, SPACE_CLIFFORD, config)
        b = res_search(task, SPACE_CLIFFORD, config)
        assert a.best_cell == b.best_cell
        assert a.score == b.score
        assert [vars(p) for p in a.trace.phases] == [vars(p) for p in b.trace.phases]

    def test_trace_phases_are_sequential(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=10)[0]
        config = ResConfig(population_size=6, opt_budget=FAST_OPT,
                           max_phases=4, seed=5)
        result = res_search(UnitaryRegenTask(target), SPACE_CLIFFORD, config)
        phases = [p.phase for p in result.trace.phases]
        assert phases == list(range(1, len(phases) + 1))
        assert all(p.evals <= config.population_size for p in result.trace.phases)

    def test_global_best_never_below_phase_one(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=12)[0]
        config = ResConfig(population_size=6, opt_budget=FAST_OPT,
                           max_phases=4, seed=6)
        result = res_search(UnitaryRegenTask(target), SPACE_CLIFFORD, config)
        assert result.score >= result.trace.phases[0].best_score - 1e-12

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="^population_size "):
            ResConfig(population_size=0)
        with pytest.raises(ValueError, match="^max_phases .*2.5"):
            ResConfig(max_phases=2.5)


def reference_expand_cell(seed, space, rng, layer_budget=1):
    """expand_cell as it was before it took a constraint: copy the seed,
    then draw its additions."""
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    child = copy.deepcopy(seed)
    for q in range(seed.n_qubits):
        if rot:
            k = int(rng.integers(0, layer_budget + 1))
            child.node_ops[q].extend(rot[rng.integers(len(rot))] for _ in range(k))
    if ent:
        for a in range(seed.n_qubits):
            for b in range(a + 1, seed.n_qubits):
                if (a, b) in child.edge_ops or (b, a) in child.edge_ops:
                    continue
                if rng.random() < 0.5:
                    c, t = (a, b) if rng.random() < 0.5 else (b, a)
                    child.edge_ops[(c, t)] = [ent[rng.integers(len(ent))]]
    return child


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


SPACES = [SPACE_SINGLE_CLIFFORD, SPACE_CLIFFORD, SPACE_GENERIC]


@st.composite
def expansions(draw):
    """A gate space, a seed cell over it (edges may carry several ops or
    none), a layer budget and an optional constraint."""
    space = draw(st.sampled_from(SPACES))
    n = draw(st.integers(1, 5))
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    seed = Cell(n)
    if draw(st.booleans()):
        seed.node_ops = [draw(st.lists(st.sampled_from(rot), max_size=3)) for _ in range(n)]
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        if ent and pairs:
            for c, t in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)):
                if (t, c) not in seed.edge_ops:
                    seed.edge_ops[(c, t)] = draw(st.lists(st.sampled_from(ent), max_size=2))
    quantity = draw(st.sampled_from([None, "n_params", "n_layers", "n_two_qubit", "n_gates"]))
    constraint = (None if quantity is None
                  else SoftConstraint(quantity, draw(st.integers(1, 12))))
    return space, seed, draw(st.integers(1, 3)), constraint


class TestSampler:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=expansions(), count=st.integers(1, 4), max_tries=st.integers(1, 12),
           rng_seed=st.integers(0, 2**32 - 1), fresh=st.booleans())
    def test_matches_building_every_candidate(self, case, count, max_tries, rng_seed, fresh):
        space, seed, layer_budget, constraint = case
        rng = np.random.default_rng(rng_seed)
        ref_rng = np.random.default_rng(rng_seed)
        if fresh:  # phase 1: random cells, nothing excluded
            n = seed.n_qubits
            got = sample_admissible(
                lambda: random_cell(space, n, rng, layer_budget, constraint), count, max_tries)
            want = reference_sample(
                lambda: reference_expand_cell(Cell(n), space, ref_rng, layer_budget),
                constraint, count, max_tries, None)
        else:  # later phases: expansions of the seed, the seed excluded
            got = sample_admissible(
                lambda: expand_cell(seed, space, rng, layer_budget, constraint),
                count, max_tries, exclude=seed)
            want = reference_sample(
                lambda: reference_expand_cell(seed, space, ref_rng, layer_budget),
                constraint, count, max_tries, seed)
        assert [(c.n_qubits, c.node_ops, c.edge_ops) for c in got] == \
            [(c.n_qubits, c.node_ops, c.edge_ops) for c in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=expansions(), quantity=st.sampled_from(["n_params", "n_layers",
                                                        "n_two_qubit", "n_gates"]),
           rng_seed=st.integers(0, 2**32 - 1))
    def test_constraint_decided_at_the_bound(self, case, quantity, rng_seed):
        # a child exactly at the bound is built, one just over it is not
        space, seed, layer_budget, _ = case
        want = reference_expand_cell(seed, space, np.random.default_rng(rng_seed),
                                     layer_budget)
        amount = getattr(metrics(want), quantity)
        for bound in (amount, amount - 1):
            if bound < 1:
                continue
            rng = np.random.default_rng(rng_seed)
            got = expand_cell(seed, space, rng, layer_budget, SoftConstraint(quantity, bound))
            if bound == amount:
                assert (got.n_qubits, got.node_ops, got.edge_ops) == \
                    (want.n_qubits, want.node_ops, want.edge_ops)
            else:
                assert got is None
            ref_rng = np.random.default_rng(rng_seed)
            reference_expand_cell(seed, space, ref_rng, layer_budget)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rejected_candidate_builds_no_cell(self, monkeypatch):
        built = []

        class CountedCell(Cell):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        seed = Cell(3, [["RX", "RY"], [], ["RZ"]], {(0, 1): ["CNOT"]})
        monkeypatch.setattr(qcas.cell, "Cell", CountedCell)
        rng = np.random.default_rng(0)
        # the seed already breaks n_layers <= 2, so every child does too
        for _ in range(50):
            assert expand_cell(seed, SPACE_GENERIC, rng, 2, SoftConstraint("n_layers", 2)) is None
        assert built == []
        child = expand_cell(seed, SPACE_GENERIC, rng, 2, SoftConstraint("n_layers", 20))
        assert built == [child]
