"""Cell IR: vocabularies, sampling, expansion, circuit round-trips, one-hot
views, action decoding, metrics, soft constraints and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcas.cell import (
    Cell,
    CellMetrics,
    NO_OP,
    SoftConstraint,
    build_vocab,
    cell_from_dict,
    cell_to_circuit,
    cell_to_dict,
    circuit_to_cell,
    decode_actions,
    dumps_cell,
    encode_views,
    eval_soft_constraint,
    expand_cell,
    loads_cell,
    metrics,
    random_cell,
    select_best,
)
from qcas.sim import (
    GATE_KINDS,
    Circuit,
    SPACE_GENERIC,
    SPACE_SINGLE_CLIFFORD,
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
            assert vocab.decode_rotation(idx) == tag
        for tag, idx in vocab.entangle_ids.items():
            assert vocab.decode_entangle(idx) == tag

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

    def test_roundtrip_on_random_cells(self):
        vocab = build_vocab(SPACE_GENERIC)
        for _ in range(100):
            cell = random_cell(SPACE_GENERIC, 3, RNG, layer_budget=2)
            back = circuit_to_cell(cell_to_circuit(cell), vocab)
            assert back == cell

    def test_ghz_prep_circuit_to_cell(self):
        vocab = build_vocab({"H", "CNOT"})
        circ = Circuit(3, [gate("H", 0), gate("CNOT", 0, 1), gate("CNOT", 1, 2)])
        cell = circuit_to_cell(circ, vocab)
        assert cell.node_ops == [["H"], [], []]
        assert cell.edge_ops == {(0, 1): ["CNOT"], (1, 2): ["CNOT"]}

    def test_param_slots_are_fresh_and_ordered(self):
        cell = Cell(2, [["RX", "RZ"], ["RY"]], {(1, 0): ["CRX"]})
        circ = cell_to_circuit(cell)
        slots = [g.param_slot for g in circ.gates]
        assert slots == [0, 1, 2, 3]


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
        for _ in range(50):
            cell = random_cell(SPACE_GENERIC, 3, RNG, layer_budget=2)
            assert loads_cell(dumps_cell(cell)) == cell

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
