"""Cell IR: vocabularies, sampling, expansion, circuit emission, one-hot
views, action decoding, metrics, soft constraints and serialization."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcas.cell import (
    Cell,
    CellMetrics,
    NO_OP,
    SoftConstraint,
    _gate_instance,
    build_vocab,
    cell_from_dict,
    cell_to_circuit,
    cell_to_dict,
    decode_actions,
    encode_views,
    eval_soft_constraint,
    expand_cell,
    metrics,
    random_cell,
    select_best,
)
from qcas.sim import (
    GATE_KINDS,
    Circuit,
    GateInstance,
    SPACE_CLIFFORD,
    SPACE_GENERIC,
    SPACE_SINGLE_CLIFFORD,
    circuit_plan,
    gate,
)

RNG = np.random.default_rng(20240818)

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
    gates, slot = [], 0
    locations = [((q,), ops) for q, ops in enumerate(cell.node_ops)]
    locations += [(edge, cell.edge_ops[edge]) for edge in sorted(cell.edge_ops)]
    for targets, ops in locations:
        for tag in ops:
            if GATE_KINDS[tag].param_count:
                gates.append(gate(tag, *targets, param_slot=slot))
                slot += 1
            else:
                gates.append(gate(tag, *targets))
    return Circuit(cell.n_qubits, gates)


def reference_decode_actions(rot_actions, ent_actions, vocab):
    """Decoding index by index, looking each kind up in a freshly sorted
    vocabulary."""
    cell = Cell(rot_actions.shape[0])
    for q in range(cell.n_qubits):
        for idx in rot_actions[q]:
            if idx != 0:
                kinds = sorted(vocab.rotation_ids, key=vocab.rotation_ids.get)
                cell.node_ops[q].append(kinds[int(idx)])
    for c in range(cell.n_qubits):
        for t in range(cell.n_qubits):
            if c != t and ent_actions[c, t] != 0:
                kinds = sorted(vocab.entangle_ids, key=vocab.entangle_ids.get)
                cell.edge_ops[(c, t)] = [kinds[int(ent_actions[c, t])]]
    return cell


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
            cell = random_cell(SPACE_SINGLE_CLIFFORD, 3, RNG)
            assert cell.edge_ops == {}

    def test_fresh_edges_carry_one_op(self):
        for _ in range(100):
            cell = random_cell(SPACE_GENERIC, 3, RNG)
            for ops in cell.edge_ops.values():
                assert len(ops) == 1

    def test_edge_frequency_half(self):
        hits = 0
        for _ in range(1000):
            cell = random_cell({"RY", "CNOT"}, 2, RNG)
            hits += bool(cell.edge_ops)
        assert abs(hits / 1000 - 0.5) < 0.05

    def test_rotation_count_within_budget(self):
        for _ in range(50):
            cell = random_cell(SPACE_GENERIC, 3, RNG, layer_budget=2)
            assert all(len(ops) <= 2 for ops in cell.node_ops)


class TestExpandCell:
    def test_expand_empty_behaves_like_random(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        fresh = random_cell(SPACE_GENERIC, 3, rng_a)
        grown = expand_cell(Cell(3), SPACE_GENERIC, rng_b)
        assert grown == fresh

    def test_seed_contained_in_child(self):
        for _ in range(100):
            seed = random_cell(SPACE_GENERIC, 3, RNG)
            child = expand_cell(seed, SPACE_GENERIC, RNG)
            for q in range(3):
                assert child.node_ops[q][: len(seed.node_ops[q])] == seed.node_ops[q]
            for edge, ops in seed.edge_ops.items():
                assert child.edge_ops[edge] == ops

    def test_gate_count_monotone(self):
        for _ in range(50):
            seed = random_cell(SPACE_GENERIC, 3, RNG)
            child = expand_cell(seed, SPACE_GENERIC, RNG)
            assert metrics(child).n_gates >= metrics(seed).n_gates

    def test_existing_edges_never_duplicated(self):
        seed = Cell(2, [[], []], {(0, 1): ["CNOT"]})
        for _ in range(20):
            child = expand_cell(seed, SPACE_GENERIC, RNG)
            assert child.edge_ops[(0, 1)] == ["CNOT"]
            assert (1, 0) not in child.edge_ops


class TestCellCircuit:
    def test_empty_cell_empty_circuit(self):
        circ = cell_to_circuit(Cell(2))
        assert circ.gates == [] and circ.n_params == 0

    def test_simple_cell_emission(self):
        cell = Cell(2, [["RY"], []], {(0, 1): ["CNOT"]})
        circ = cell_to_circuit(cell)
        assert [g.kind.tag for g in circ.gates] == ["RY", "CNOT"]
        assert circ.gates[0].param_slot == 0
        assert circ.n_params == 1

    def test_param_slots_are_fresh_and_ordered(self):
        cell = Cell(2, [["RX", "RZ"], ["RY"]], {(1, 0): ["CRX"]})
        circ = cell_to_circuit(cell)
        slots = [g.param_slot for g in circ.gates]
        assert slots == [0, 1, 2, 3]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(cell=cells())
    def test_matches_fresh_gate_instances(self, cell):
        assert cell_to_circuit(cell) == reference_cell_to_circuit(cell)

    def test_gate_instances_are_shared_and_immutable(self):
        cell = Cell(2, [["RY", "H"], []], {(0, 1): ["CNOT"]})
        a, b = cell_to_circuit(cell), cell_to_circuit(copy.deepcopy(cell))
        assert all(x is y for x, y in zip(a.gates, b.gates))
        assert _gate_instance.cache_info().maxsize is not None
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.gates[0].targets = (1,)
        # a run compiles a's plan; editing b's gate list leaves a's gates alone
        circuit_plan(a)
        b.gates[0] = gate("RX", 1, param_slot=0)
        assert a.gates[0] == gate("RY", 0, param_slot=0)
        assert circuit_plan(a).gates == tuple(a.gates)


class TestViews:
    VOCAB = build_vocab(SPACE_GENERIC)

    def test_empty_cell_all_noop(self):
        views = encode_views(Cell(2), self.VOCAB, max_seq=3)
        assert np.all(views.rotation_view[:, :, 0] == 1.0)
        assert np.all(views.entangle_view[:, :, 0] == 1.0)

    def test_single_rotation_slot(self):
        vocab = build_vocab({"RY"})
        views = encode_views(Cell(1, [["RY"]]), vocab, max_seq=2)
        assert views.rotation_view[0, 0].tolist() == [0.0, 1.0]
        assert views.rotation_view[0, 1].tolist() == [1.0, 0.0]

    def test_rows_sum_to_one(self):
        for _ in range(20):
            cell = random_cell(SPACE_GENERIC, 3, RNG, layer_budget=2)
            views = encode_views(cell, self.VOCAB, max_seq=4)
            assert np.allclose(views.rotation_view.sum(axis=-1), 1.0)
            assert np.allclose(views.entangle_view.sum(axis=-1), 1.0)

    def test_overlong_sequence_rejected(self):
        cell = Cell(1, [["RY", "RY", "RY"]])
        with pytest.raises(ValueError):
            encode_views(cell, self.VOCAB, max_seq=2)


class TestDecodeActions:
    VOCAB = build_vocab(SPACE_GENERIC)

    def test_all_noop_gives_empty_cell(self):
        cell = decode_actions(np.zeros((2, 3), dtype=int),
                              np.zeros((2, 2), dtype=int), self.VOCAB)
        assert cell == Cell(2)

    def test_roundtrip_via_argmax(self):
        for _ in range(100):
            cell = random_cell(SPACE_GENERIC, 3, RNG, layer_budget=2)
            views = encode_views(cell, self.VOCAB, max_seq=4)
            back = decode_actions(views.rotation_view.argmax(axis=-1),
                                  views.entangle_view.argmax(axis=-1), self.VOCAB)
            assert back == cell

    def test_diagonal_ignored(self):
        ent = np.ones((2, 2), dtype=int)  # diagonal nonzero on purpose
        cell = decode_actions(np.zeros((2, 2), dtype=int), ent, self.VOCAB)
        assert all(c != t for (c, t) in cell.edge_ops)

    def test_out_of_range_action_rejected(self):
        with pytest.raises(ValueError):
            decode_actions(np.full((2, 2), 99), np.zeros((2, 2), dtype=int),
                           self.VOCAB)
        with pytest.raises(ValueError):
            decode_actions(np.full((2, 2), -1), np.zeros((2, 2), dtype=int),
                           self.VOCAB)
        with pytest.raises(ValueError):
            decode_actions(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int),
                           self.VOCAB)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(space=st.sampled_from([SPACE_SINGLE_CLIFFORD, SPACE_CLIFFORD, SPACE_GENERIC]),
           n=st.integers(1, 5), max_seq=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_decoding_gate_by_gate(self, space, n, max_seq, seed):
        vocab = build_vocab(space)
        rng = np.random.default_rng(seed)
        rot = rng.integers(0, vocab.v_rot, size=(n, max_seq))
        ent = rng.integers(0, vocab.v_ent, size=(n, n))
        got = decode_actions(rot, ent, vocab)
        want = reference_decode_actions(rot, ent, vocab)
        assert (got.n_qubits, got.node_ops, got.edge_ops) == \
            (want.n_qubits, want.node_ops, want.edge_ops)

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

    @pytest.mark.parametrize("cell", [
        Cell(2, [["CNOT"], []]),
        Cell(2, [[], []], {(0, 1): ["RX"]}),
    ], ids=["two-qubit-tag-on-node", "one-qubit-tag-on-edge"])
    def test_tag_arity_must_fit_its_location(self, cell):
        with pytest.raises(ValueError, match="needs"):
            cell_to_circuit(cell)
        with pytest.raises(ValueError, match="needs"):
            metrics(cell)


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
            cell = random_cell(SPACE_GENERIC, 3, RNG, layer_budget=2)
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
