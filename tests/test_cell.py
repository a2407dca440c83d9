"""Cell IR: vocabularies, sampling, expansion, circuit emission, action
slots and their decoding, metrics, soft constraints and serialization."""

import copy
import dataclasses
import itertools
import json
import pickle

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import UNBOUNDED, stream_state

from qcas.cell import (
    Cell,
    CellMetrics,
    NO_OP,
    SoftConstraint,
    build_vocab,
    can_grow,
    cell_from_dict,
    cell_to_circuit,
    cell_to_dict,
    decode_actions,
    encode_actions,
    eval_soft_constraint,
    expand_cell,
    metrics,
    random_cell,
    select_best,
)
from qcas.optim import Draws
from qcas.sim import (
    GATE_KINDS,
    Circuit,
    GateInstance,
    SPACE_CLIFFORD,
    SPACE_GENERIC,
    SPACE_SINGLE_CLIFFORD,
    circuit_unitary,
    gate,
)

DRAWS = Draws(np.random.default_rng(20240818))
GENERIC = build_vocab(SPACE_GENERIC)

_ROTATION_TAGS = sorted(t for t, k in GATE_KINDS.items() if k.arity == 1)
_ENTANGLE_TAGS = sorted(t for t, k in GATE_KINDS.items() if k.arity == 2)


@st.composite
def cells(draw):
    """Cells over every gate kind: up to 4 rotations per qubit and up to 3
    two-qubit ops on any ordered pair."""
    n = draw(st.integers(1, 5))
    rotations = st.lists(st.sampled_from(_ROTATION_TAGS), max_size=4)
    node_ops = [draw(rotations) for _ in range(n)]
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edge_ops = {p: draw(st.lists(st.sampled_from(_ENTANGLE_TAGS), max_size=3))
                for p in chosen}
    return Cell(n, node_ops, edge_ops)


def circuit_metrics(cell):
    """Reference metrics read off the emitted circuit gate by gate."""
    circuit = cell_to_circuit(cell)
    depth = [0] * cell.n_qubits
    for g in circuit.gates:
        level = max(depth[q] for q in g.targets) + 1
        for q in g.targets:
            depth[q] = level
    return CellMetrics(
        n_params=circuit.n_params,
        n_layers=max(depth, default=0),
        n_two_qubit=sum(1 for g in circuit.gates if g.kind.arity == 2),
        n_gates=len(circuit.gates),
    )


def reference_cell_to_circuit(cell):
    """The canonical emission with a fresh, validated gate per emitted op."""
    edge_ops = dict(cell.edge_ops)
    locations = [((q,), ops) for q, ops in enumerate(cell.node_ops)]
    locations += [(edge, edge_ops[edge]) for edge in sorted(edge_ops)]
    gates = [GateInstance(GATE_KINDS[tag], targets) for targets, ops in locations for tag in ops]
    return Circuit(cell.n_qubits, gates)


def reference_decode_actions(rot_actions, ent_actions, vocab):
    """Decoding index by index, looking each kind up in a freshly sorted
    vocabulary."""
    n = rot_actions.shape[0]
    node_ops, edge_ops = [[] for _ in range(n)], {}
    for q in range(n):
        for idx in rot_actions[q]:
            if idx != 0:
                kinds = sorted(vocab.rotation_ids, key=vocab.rotation_ids.get)
                node_ops[q].append(kinds[int(idx)])
    for c in range(n):
        for t in range(n):
            if c != t and ent_actions[c, t] != 0:
                kinds = sorted(vocab.entangle_ids, key=vocab.entangle_ids.get)
                edge_ops[(c, t)] = [kinds[int(ent_actions[c, t])]]
    return Cell(n, node_ops, edge_ops)


class TestCellValue:
    def test_fields_cannot_be_set(self):
        cell = Cell(2, [["RY"], []], {(0, 1): ["CNOT"]})
        for name, value in (("n_qubits", 3), ("node_ops", ()), ("edge_ops", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cell, name, value)
        assert cell == Cell(2, [["RY"], []], {(0, 1): ["CNOT"]})

    def test_canonical_form(self):
        # lists, a dict, an edge with no ops and the input edge order make
        # no difference: the cell holds tuples, edges sorted, empty ones gone
        loose = Cell(3, [["RY"], [], ["RX", "RZ"]],
                     {(2, 0): ["CRX"], (1, 2): [], (0, 1): ["CNOT", "CRZ"]})
        exact = Cell(3, (("RY",), (), ("RX", "RZ")),
                     (((0, 1), ("CNOT", "CRZ")), ((2, 0), ("CRX",))))
        assert loose == exact and hash(loose) == hash(exact)
        assert loose.node_ops == (("RY",), (), ("RX", "RZ"))
        assert loose.edge_ops == (((0, 1), ("CNOT", "CRZ")), ((2, 0), ("CRX",)))
        assert Cell(2) == Cell(2, [[], []], {(1, 0): []}) == Cell(2, ((), ()), ())
        assert len({loose, exact, Cell(2)}) == 2

    @pytest.mark.parametrize("args, message", [
        ((2, [[], []], [((0, 1), ["CNOT"]), ((0, 1), ["CRX"])]), r"repeated edge \(0, 1\)"),
        ((2, [[], []], {(1, 1): ["CNOT"]}), r"invalid edge \(1, 1\)"),
        ((2, [[], []], {(0, 2): ["CNOT"]}), r"invalid edge \(0, 2\)"),
        ((2, [[], []], [(("0", 1), ["CNOT"])]), r"invalid edge \('0', 1\)"),
        ((2, [["FOO"], []]), "unknown gate kind 'FOO'"),
        ((2, [[], []], {(0, 1): ["BAR"]}), "unknown gate kind 'BAR'"),
        ((2, [["RY"]]), "node_ops must have one entry per qubit, got 1"),
        ((0,), "n_qubits must be an integer >= 1, got 0"),
    ], ids=["repeated-edge", "self-loop-edge", "edge-out-of-range", "edge-of-strings",
            "unknown-node-tag", "unknown-edge-tag", "missing-qubit", "no-qubits"])
    def test_bad_cell_rejected_by_name(self, args, message):
        with pytest.raises(ValueError, match=message):
            Cell(*args)


class TestVocab:
    def test_ry_cnot_space(self):
        vocab = build_vocab({"RY", "CNOT"})
        assert vocab.rotation_ids == {NO_OP: 0, "RY": 1}
        assert vocab.entangle_ids == {NO_OP: 0, "CNOT": 1}

    def test_single_qubit_clifford_space(self):
        vocab = build_vocab(SPACE_SINGLE_CLIFFORD)
        assert vocab.v_rot == 5  # NO_OP + H, I, S, T
        assert vocab.v_ent == 1  # NO_OP only

    def test_decode_is_inverse_of_ids(self):
        vocab = build_vocab(SPACE_GENERIC)
        for tag, idx in vocab.rotation_ids.items():
            assert vocab.rotation_kinds[idx] == tag
        for tag, idx in vocab.entangle_ids.items():
            assert vocab.entangle_kinds[idx] == tag

    def test_id_assignment_deterministic(self):
        a = build_vocab(SPACE_GENERIC)
        b = build_vocab(sorted(SPACE_GENERIC, reverse=True))
        assert a.rotation_ids == b.rotation_ids
        assert a.entangle_ids == b.entangle_ids

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_vocab({"RY", "TOFFOLI"})
        with pytest.raises(ValueError):
            build_vocab(set())


class TestRandomCell:
    def test_single_qubit_space_has_no_edges(self):
        for _ in range(20):
            cell = random_cell(build_vocab(SPACE_SINGLE_CLIFFORD), 3, DRAWS, 1, UNBOUNDED)
            assert cell.edge_ops == ()

    def test_fresh_edges_carry_one_op(self):
        for _ in range(100):
            cell = random_cell(GENERIC, 3, DRAWS, 1, UNBOUNDED)
            for _, ops in cell.edge_ops:
                assert len(ops) == 1

    def test_edge_frequency_half(self):
        hits = 0
        for _ in range(1000):
            cell = random_cell(build_vocab({"RY", "CNOT"}), 2, DRAWS, 1, UNBOUNDED)
            hits += bool(cell.edge_ops)
        assert abs(hits / 1000 - 0.5) < 0.05

    def test_rotation_count_within_budget(self):
        for _ in range(50):
            cell = random_cell(GENERIC, 3, DRAWS, 2, UNBOUNDED)
            assert all(len(ops) <= 2 for ops in cell.node_ops)


class TestExpandCell:
    def test_expand_empty_behaves_like_random(self):
        rng_a = Draws(np.random.default_rng(5))
        rng_b = Draws(np.random.default_rng(5))
        fresh = random_cell(GENERIC, 3, rng_a, 1, UNBOUNDED)
        grown = expand_cell(Cell(3), GENERIC, rng_b, 1, UNBOUNDED)
        assert grown == fresh

    def test_seed_contained_in_child(self):
        for _ in range(100):
            seed = random_cell(GENERIC, 3, DRAWS, 1, UNBOUNDED)
            child = expand_cell(seed, GENERIC, DRAWS, 1, UNBOUNDED)
            for q in range(3):
                assert child.node_ops[q][: len(seed.node_ops[q])] == seed.node_ops[q]
            for edge, ops in seed.edge_ops:
                assert dict(child.edge_ops)[edge] == ops

    def test_gate_count_monotone(self):
        for _ in range(50):
            seed = random_cell(GENERIC, 3, DRAWS, 1, UNBOUNDED)
            child = expand_cell(seed, GENERIC, DRAWS, 1, UNBOUNDED)
            assert metrics(child).n_gates >= metrics(seed).n_gates

    def test_existing_edges_never_duplicated(self):
        seed = Cell(2, [[], []], {(0, 1): ["CNOT"]})
        for _ in range(20):
            child = expand_cell(seed, GENERIC, DRAWS, 1, UNBOUNDED)
            assert dict(child.edge_ops)[(0, 1)] == ("CNOT",)
            assert (1, 0) not in dict(child.edge_ops)


QUANTITIES = ("n_params", "n_layers", "n_two_qubit", "n_gates")
# one 2-qubit kind, four, none, and one with one rotation kind as well
SAMPLER_SPACES = {"clifford": SPACE_CLIFFORD, "generic": SPACE_GENERIC,
                  "single-clifford": SPACE_SINGLE_CLIFFORD, "ry-cnot": frozenset({"RY", "CNOT"})}


class TestDrawStream:
    """`random_cell` / `expand_cell` on a `Draws` against the reference
    sampler on the Generator: the same cell or None from every call, and the
    same stream position after it.  Where the reference samples
    unconstrained, qcas samples under `UNBOUNDED`."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("space", SAMPLER_SPACES.values(), ids=SAMPLER_SPACES)
    def test_matches_the_reference_sampler(self, space, n):
        vocab = build_vocab(space)
        outcomes = {True: 0, False: 0}  # under a constraint: built, rejected
        halves = set()
        # a bound one above the seed's quantity, and one equal to it, where
        # nearly every candidate is rejected by the seed's table
        for layer_budget, quantity, slack in itertools.product(
                (1, 2, 3), (None, *QUANTITIES), (1, 0)):
            if quantity is None and slack == 0:
                continue
            for rng_seed in range(3):
                seed = reference.random_cell(space, n, np.random.default_rng(rng_seed + 100),
                                             layer_budget)
                constraint = (None if quantity is None else SoftConstraint(
                    quantity, max(1, getattr(metrics(seed), quantity) + slack)))
                bound = constraint or UNBOUNDED
                generator, ref_rng = (np.random.default_rng(rng_seed) for _ in range(2))
                if rng_seed == 1:  # start from a half-used 32-bit buffer
                    for g in (generator, ref_rng):
                        g.integers(2)
                rng = Draws(generator)
                for i in range(12):
                    if i % 3:
                        got = expand_cell(seed, vocab, rng, layer_budget, bound)
                        want = reference.expand_cell(seed, space, ref_rng, layer_budget,
                                                     constraint)
                    else:
                        got = random_cell(vocab, n, rng, layer_budget, bound)
                        want = reference.random_cell(space, n, ref_rng, layer_budget,
                                                     constraint)
                    assert got == want
                    state = stream_state(rng)
                    assert state == stream_state(ref_rng)
                    halves.add(state[1] is None)
                    if constraint is not None:
                        outcomes[got is not None] += 1
        # the tight bounds both build and reject, and the 32-bit buffer of
        # `integers` is seen both full and empty
        assert outcomes[True] and outcomes[False]
        assert halves == {True, False}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=cells(), space=st.sampled_from(list(SAMPLER_SPACES.values())),
           layer_budget=st.integers(1, 3), quantity=st.sampled_from(QUANTITIES),
           rng_seed=st.integers(0, 2**32 - 1))
    def test_grown_quantity_is_the_childs(self, seed, space, layer_budget, quantity, rng_seed):
        # the quantity read from the seed's table plus the draws is the metric
        # of the child the same draws build with no constraint: a bound at it
        # builds that child, one below it builds none, and both draw alike
        vocab = build_vocab(space)
        rng = Draws(np.random.default_rng(rng_seed))
        child = expand_cell(seed, vocab, rng, layer_budget, UNBOUNDED)
        amount, position = getattr(metrics(child), quantity), stream_state(rng)
        for bound in (amount, amount - 1):
            if bound >= 1:
                rng = Draws(np.random.default_rng(rng_seed))
                got = expand_cell(seed, vocab, rng, layer_budget, SoftConstraint(quantity, bound))
                assert got == (child if bound == amount else None)
                assert stream_state(rng) == position

    def test_growth_profile_is_not_part_of_the_value(self):
        # the seed's one cache: its open pairs, rotation counts and the table
        # of single additions that fit
        seed, fresh = (Cell(3, [["RX"], [], ["H", "S"]], {(0, 1): ["CNOT"]}) for _ in range(2))
        rng, cached = Draws(np.random.default_rng(0)), {"_plan"}
        expand_cell(seed, GENERIC, rng, 1, SoftConstraint("n_gates", 9))
        assert cached <= set(vars(seed)) and not cached & set(vars(fresh))
        assert seed == fresh and hash(seed) == hash(fresh) and repr(seed) == repr(fresh)
        assert pickle.dumps(seed) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(seed))
        assert restored == seed and not cached & set(vars(restored))


class TestSamplersOnDraws:
    """`random_cell` and `expand_cell` read each candidate with one
    `Draws.expansion` call: from seeds they built themselves they give the
    same cell or None, call for call, and leave the stream where it stands, as
    the reference sampler making scalar `integers` and `random` calls of the
    Generator, also from a half-used 32-bit buffer."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("space", SAMPLER_SPACES.values(), ids=SAMPLER_SPACES)
    def test_same_cells_as_the_generator(self, space, n):
        vocab = build_vocab(space)
        outcomes = {True: 0, False: 0}  # under a constraint: built, rejected
        for layer_budget in (1, 2, 3):
            for quantity in (None, *QUANTITIES):
                for rng_seed in range(3):
                    seed = random_cell(vocab, n, Draws(np.random.default_rng(rng_seed + 100)),
                                       layer_budget, UNBOUNDED)
                    constraint = None if quantity is None else SoftConstraint(
                        quantity, max(1, getattr(metrics(seed), quantity) + 1))
                    generator, scalar = (np.random.default_rng(rng_seed) for _ in range(2))
                    if rng_seed == 1:  # start from a half-used 32-bit buffer
                        for g in (generator, scalar):
                            g.integers(2)
                    draws = Draws(generator)
                    for i in range(12):
                        if i % 3:
                            got = expand_cell(seed, vocab, draws, layer_budget,
                                              constraint or UNBOUNDED)
                            want = reference.expand_cell(seed, space, scalar, layer_budget,
                                                         constraint)
                        else:
                            got = random_cell(vocab, n, draws, layer_budget,
                                              constraint or UNBOUNDED)
                            want = reference.random_cell(space, n, scalar, layer_budget,
                                                         constraint)
                        assert got == want
                        assert stream_state(draws) == stream_state(scalar)
                        if quantity is not None:
                            outcomes[got is not None] += 1
        assert outcomes[True] and outcomes[False]


HEADROOM_SPACES = (SPACE_GENERIC, SPACE_CLIFFORD, SPACE_SINGLE_CLIFFORD, frozenset({"CNOT"}),
                   frozenset({"CNOT", "CRX"}))


class TestCanGrow:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=cells(), space=st.sampled_from(HEADROOM_SPACES),
           quantity=st.sampled_from(QUANTITIES), slack=st.integers(0, 2),
           layer_budget=st.integers(1, 3))
    # seeds with no room left: one qubit at its depth, and every pair filled;
    # and one whose only child that fits adds CNOT(2, 1), not CNOT(1, 2)
    @example(Cell(1, [["H"]]), SPACE_CLIFFORD, "n_layers", 0, 1)
    @example(Cell(3, [[], ["H"], []], {(2, 0): ["CNOT"]}), frozenset({"CNOT"}), "n_layers", 1, 1)
    @example(Cell(2, [["RX"], []], {(0, 1): ["CNOT"]}), frozenset({"CNOT"}), "n_params", 0, 2)
    @example(Cell(2, [[], []], {(1, 0): ["CRX"]}), frozenset({"CNOT"}), "n_two_qubit", 2, 3)
    def test_matches_the_one_op_children(self, seed, space, quantity, slack, layer_budget):
        # a seed can grow iff a child with one op more is within the bound;
        # where none is, expand_cell draws only rejections and the seed
        bound = max(1, getattr(metrics(seed), quantity) + slack)
        constraint = SoftConstraint(quantity, bound)
        fits = any(getattr(metrics(child), quantity) <= bound
                   for child in reference.one_op_children(seed, space))
        vocab = build_vocab(space)
        assert can_grow(seed, vocab, constraint) == fits
        if not fits:
            rng = Draws(np.random.default_rng(bound))
            assert all(expand_cell(seed, vocab, rng, layer_budget, constraint) in (None, seed)
                       for _ in range(300))


class TestCellCircuit:
    def test_empty_cell_empty_circuit(self):
        circ = cell_to_circuit(Cell(2))
        assert circ.gates == () and circ.n_params == 0

    def test_simple_cell_emission(self):
        cell = Cell(2, [["RY"], []], {(0, 1): ["CNOT"]})
        circ = cell_to_circuit(cell)
        assert [g.kind.tag for g in circ.gates] == ["RY", "CNOT"]
        assert circ.n_params == 1

    def test_theta_binds_in_gate_order(self):
        circ = cell_to_circuit(Cell(1, [["RX", "RY"]]))
        assert circ == Circuit(1, [gate("RX", 0), gate("RY", 0)])
        a, b = 0.3, -1.1
        want = reference.oracle_gate("RY", (0,), b, 1) @ reference.oracle_gate("RX", (0,), a, 1)
        assert np.allclose(circuit_unitary(circ, [a, b]), want, atol=1e-12)
        assert not np.allclose(circuit_unitary(circ, [b, a]), want, atol=1e-6)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cell=cells())
    def test_matches_fresh_gate_instances(self, cell):
        assert cell_to_circuit(cell) == reference_cell_to_circuit(cell)

    def test_gate_instances_are_shared_and_immutable(self):
        cell = Cell(2, [["RY", "H"], []], {(0, 1): ["CNOT"]})
        a, b = cell_to_circuit(cell), cell_to_circuit(copy.deepcopy(cell))
        assert all(x is y for x, y in zip(a.gates, b.gates))
        assert gate.cache_info().maxsize is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.gates[0].targets = (1,)
        # circuits that share gate instances cannot edit each other's gates
        with pytest.raises(TypeError):
            b.gates[0] = gate("RX", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.gates = ()
        assert a.gates[0] == gate("RY", 0)
        # one step per gate that is not I, X or CNOT
        assert len(a.steps) == sum(g.kind.tag not in ("I", "X", "CNOT") for g in a.gates)


class TestViews:
    """A cell's action slots (`encode_actions`), the view of it RELM's
    controller reads and one-hot encodes."""

    VOCAB = build_vocab(SPACE_GENERIC)

    def test_empty_cell_all_noop(self):
        rot, ent = encode_actions(Cell(2), self.VOCAB, max_seq=3)
        assert rot.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert ent.tolist() == [[0, 0], [0, 0]]

    def test_single_rotation_slot(self):
        vocab = build_vocab({"RY"})
        rot, _ = encode_actions(Cell(1, [["RY"]]), vocab, max_seq=2)
        assert rot.tolist() == [[1, 0]]

    def test_rows_sum_to_one(self):
        # every slot holds one in-vocab id, so each one-hot row has a single 1
        for _ in range(20):
            cell = random_cell(GENERIC, 3, DRAWS, 2, UNBOUNDED)
            rot, ent = encode_actions(cell, self.VOCAB, max_seq=4)
            assert rot.min() >= 0 and rot.max() < self.VOCAB.v_rot
            assert ent.min() >= 0 and ent.max() < self.VOCAB.v_ent
            assert np.allclose(np.eye(self.VOCAB.v_rot)[rot].sum(axis=-1), 1.0)
            assert np.allclose(np.eye(self.VOCAB.v_ent)[ent].sum(axis=-1), 1.0)

    def test_overlong_sequence_rejected(self):
        cell = Cell(2, [[], ["RY", "RY", "RY"]])
        with pytest.raises(ValueError, match="qubit 1 has 3 rotations, more than max_seq 2"):
            encode_actions(cell, self.VOCAB, max_seq=2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(space=st.sampled_from([SPACE_SINGLE_CLIFFORD, SPACE_CLIFFORD, SPACE_GENERIC]),
           n=st.integers(1, 5), layer_budget=st.integers(1, 3), grow=st.booleans(),
           spare=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_decode_inverts_encode(self, space, n, layer_budget, grow, spare, seed):
        # sampled and grown cells have one op per edge, so the slots keep them whole
        rng, vocab = Draws(np.random.default_rng(seed)), build_vocab(space)
        cell = random_cell(vocab, n, rng, layer_budget, UNBOUNDED)
        if grow:
            cell = expand_cell(cell, vocab, rng, layer_budget, UNBOUNDED)
        max_seq = max(1, *map(len, cell.node_ops)) + spare
        rot, ent = encode_actions(cell, vocab, max_seq)
        assert rot.shape == (n, max_seq) and ent.shape == (n, n)
        assert decode_actions(rot, ent, vocab) == cell


class TestDecodeActions:
    VOCAB = build_vocab(SPACE_GENERIC)

    def test_all_noop_gives_empty_cell(self):
        cell = decode_actions(np.zeros((2, 3), dtype=int),
                              np.zeros((2, 2), dtype=int), self.VOCAB)
        assert cell == Cell(2)

    def test_roundtrip_via_argmax(self):
        # the argmax of the one-hots the controller builds from the slots
        for _ in range(100):
            cell = random_cell(GENERIC, 3, DRAWS, 2, UNBOUNDED)
            rot, ent = encode_actions(cell, self.VOCAB, max_seq=4)
            back = decode_actions(np.eye(self.VOCAB.v_rot)[rot].argmax(axis=-1),
                                  np.eye(self.VOCAB.v_ent)[ent].argmax(axis=-1), self.VOCAB)
            assert back == cell

    def test_diagonal_ignored(self):
        ent = np.ones((2, 2), dtype=int)  # diagonal nonzero on purpose
        cell = decode_actions(np.zeros((2, 2), dtype=int), ent, self.VOCAB)
        assert all(c != t for (c, t), _ in cell.edge_ops)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(space=st.sampled_from([SPACE_SINGLE_CLIFFORD, SPACE_CLIFFORD, SPACE_GENERIC]),
           n=st.integers(1, 5), max_seq=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_decoding_gate_by_gate(self, space, n, max_seq, seed):
        vocab = build_vocab(space)
        rng = np.random.default_rng(seed)
        rot = rng.integers(0, vocab.v_rot, size=(n, max_seq))
        ent = rng.integers(0, vocab.v_ent, size=(n, n))
        assert decode_actions(rot, ent, vocab) == reference_decode_actions(rot, ent, vocab)

    def test_vocab_kinds_in_id_order(self):
        vocab = build_vocab(SPACE_GENERIC)
        assert vocab.rotation_kinds == (NO_OP, "RX", "RY", "RZ")
        assert vocab.entangle_kinds == (NO_OP, "CNOT", "CRX", "CRY", "CRZ")
        assert vocab.rotation_kinds is vocab.rotation_kinds


class TestMetrics:
    def test_empty_cell(self):
        assert metrics(Cell(3)) == CellMetrics(0, 0, 0, 0)

    def test_counting_example(self):
        cell = Cell(2, [["RY", "RZ"], ["RY"]], {(0, 1): ["CNOT"]})
        m = metrics(cell)
        assert m.n_params == 3
        assert m.n_two_qubit == 1
        assert m.n_gates == 4

    def test_layer_depth_parallel_rotations(self):
        # one rotation per qubit runs in a single layer
        cell = Cell(3, [["RY"], ["RY"], ["RY"]])
        assert metrics(cell).n_layers == 1

    def test_layer_depth_with_entangler(self):
        cell = Cell(2, [["RY"], ["RY"]], {(0, 1): ["CNOT"]})
        assert metrics(cell).n_layers == 2

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(cell=cells())
    def test_matches_metrics_of_the_emitted_circuit(self, cell):
        assert metrics(cell) == circuit_metrics(cell)

    @pytest.mark.parametrize("node_ops, edge_ops, message", [
        ([["CNOT"], []], {}, "CNOT needs 2 targets"),
        ([[], []], {(0, 1): ["RX"]}, "RX needs 1 targets"),
    ], ids=["two-qubit-tag-on-node", "one-qubit-tag-on-edge"])
    def test_tag_arity_must_fit_its_location(self, node_ops, edge_ops, message):
        # checked when the cell is built, so no circuit or metric sees it
        with pytest.raises(ValueError, match=message):
            Cell(2, node_ops, edge_ops)


class TestSelectBest:
    def test_highest_score_wins(self):
        scored = [(Cell(1), None, 0.2), (Cell(1), None, 0.9), (Cell(1), None, 0.5)]
        assert select_best(scored) == 1

    def test_ties_prefer_fewer_params_then_earlier_index(self):
        two, one = Cell(1, [["RX", "RY"]]), Cell(1, [["RX"]])
        scored = [(two, None, 0.5), (one, None, 0.5), (Cell(1, [["RZ"]]), None, 0.5)]
        assert select_best(scored) == 1
        assert select_best([(one, None, 0.5), (Cell(1, [["H"]]), None, 0.5)]) == 1


class TestSoftConstraint:
    def test_empty_cell_always_admissible(self):
        for quantity in ("n_params", "n_layers", "n_two_qubit", "n_gates"):
            assert eval_soft_constraint(SoftConstraint(quantity, 1), Cell(2))

    def test_param_bound_violated(self):
        cell = Cell(2, [["RX", "RY"], ["RX", "RY"]])
        assert not eval_soft_constraint(SoftConstraint("n_params", 3), cell)
        assert eval_soft_constraint(SoftConstraint("n_params", 4), cell)

    def test_bad_quantity_rejected(self):
        with pytest.raises(ValueError):
            SoftConstraint("n_qubits", 2)
        with pytest.raises(ValueError):
            SoftConstraint("n_params", 0)


class TestSerialization:
    def test_roundtrip_random_cells(self):
        # the path of run records: cell_to_dict, JSON text, cell_from_dict
        for _ in range(50):
            cell = random_cell(GENERIC, 3, DRAWS, 2, UNBOUNDED)
            assert cell_from_dict(json.loads(json.dumps(cell_to_dict(cell)))) == cell

    def test_dict_form_is_sorted_and_versioned(self):
        cell = Cell(2, [["RY"], []], {(1, 0): ["CRZ"]})
        doc = cell_to_dict(cell)
        assert doc["format"] == 1
        assert doc["edge_ops"] == [{"control": 1, "target": 0, "ops": ["CRZ"]}]

    def test_unknown_format_rejected(self):
        doc = cell_to_dict(Cell(1))
        doc["format"] = 99
        with pytest.raises(ValueError):
            cell_from_dict(doc)
