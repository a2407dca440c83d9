"""Cell intermediate representation for circuit search.

A cell is a directed graph over qubit nodes: rotation self-loops carry an
ordered list of 1-qubit gate kinds per qubit, entanglement edges carry an
ordered list of 2-qubit gate kinds per (control, target) pair.  Gate order
between locations is deliberately not encoded; `cell_to_circuit` fixes a
canonical emission order so runs are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .sim import GATE_KINDS, Circuit, GateInstance

NO_OP = "NO_OP"

CELL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Gate vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateVocab:
    """Bijection between gate kinds and dense integer ids, per category.

    NO_OP always takes id 0 in both categories so one-hot padding and
    action decoding share the same convention.
    """

    rotation_ids: dict
    entangle_ids: dict

    @property
    def rotation_kinds(self) -> list[str]:
        return sorted(self.rotation_ids, key=self.rotation_ids.get)

    @property
    def entangle_kinds(self) -> list[str]:
        return sorted(self.entangle_ids, key=self.entangle_ids.get)

    @property
    def v_rot(self) -> int:
        return len(self.rotation_ids)

    @property
    def v_ent(self) -> int:
        return len(self.entangle_ids)

    def decode_rotation(self, idx: int) -> str:
        return self.rotation_kinds[idx]

    def decode_entangle(self, idx: int) -> str:
        return self.entangle_kinds[idx]


def build_vocab(space) -> GateVocab:
    """Deterministic id assignment: NO_OP at 0, then kinds sorted by name."""
    space = set(space)
    if not space:
        raise ValueError("gate space must be nonempty")
    unknown = space - set(GATE_KINDS)
    if unknown:
        raise ValueError(f"unknown gate kinds: {sorted(unknown)}")
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    rotation_ids = {NO_OP: 0, **{t: i + 1 for i, t in enumerate(rot)}}
    entangle_ids = {NO_OP: 0, **{t: i + 1 for i, t in enumerate(ent)}}
    return GateVocab(rotation_ids, entangle_ids)


# ---------------------------------------------------------------------------
# Cell
# ---------------------------------------------------------------------------


@dataclass
class Cell:
    n_qubits: int
    node_ops: list = field(default_factory=list)  # per qubit: list of 1q tags
    edge_ops: dict = field(default_factory=dict)  # (control, target) -> list of 2q tags

    def __post_init__(self):
        if not self.node_ops:
            self.node_ops = [[] for _ in range(self.n_qubits)]
        if len(self.node_ops) != self.n_qubits:
            raise ValueError("node_ops must have one entry per qubit")
        for (c, t) in self.edge_ops:
            if c == t or not (0 <= c < self.n_qubits) or not (0 <= t < self.n_qubits):
                raise ValueError(f"invalid edge ({c}, {t})")

    def copy(self) -> "Cell":
        return Cell(
            self.n_qubits,
            [list(ops) for ops in self.node_ops],
            {k: list(v) for k, v in self.edge_ops.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.node_ops == other.node_ops
            and {k: v for k, v in self.edge_ops.items() if v}
            == {k: v for k, v in other.edge_ops.items() if v}
        )


def random_cell(space, n_qubits: int, rng: np.random.Generator,
                layer_budget: int = 1) -> Cell:
    """Sample a fresh cell: up to `layer_budget` rotations per qubit and at
    most one 2-qubit op per edge (each unordered pair drawn with prob 1/2)."""
    if layer_budget < 1:
        raise ValueError("layer_budget must be >= 1")
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    cell = Cell(n_qubits)
    for q in range(n_qubits):
        if rot:
            k = int(rng.integers(0, layer_budget + 1))
            cell.node_ops[q] = [rot[rng.integers(len(rot))] for _ in range(k)]
    if ent:
        for a in range(n_qubits):
            for b in range(a + 1, n_qubits):
                if rng.random() < 0.5:
                    c, t = (a, b) if rng.random() < 0.5 else (b, a)
                    cell.edge_ops[(c, t)] = [ent[rng.integers(len(ent))]]
    return cell


def expand_cell(seed: Cell, space, rng: np.random.Generator,
                layer_budget: int = 1) -> Cell:
    """Grow a seed cell: keep everything it has, append fresh rotations and
    fill in missing edges with newly sampled 2-qubit ops."""
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    child = seed.copy()
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


def cell_to_circuit(cell: Cell) -> Circuit:
    """Canonical emission: per qubit ascending, its rotations in list order;
    then edges in (control, target) lexicographic order.  Parametric gates
    receive fresh parameter slots in emission order."""
    gates = []
    slot = 0

    def emit(tag, targets):
        nonlocal slot
        kind = GATE_KINDS[tag]
        if kind.param_count == 1:
            g = GateInstance(kind, targets, slot)
            slot += 1
        else:
            g = GateInstance(kind, targets)
        gates.append(g)

    for q in range(cell.n_qubits):
        for tag in cell.node_ops[q]:
            emit(tag, (q,))
    for (c, t) in sorted(cell.edge_ops):
        for tag in cell.edge_ops[(c, t)]:
            emit(tag, (c, t))
    return Circuit(cell.n_qubits, gates)


def circuit_to_cell(circuit: Circuit, vocab: GateVocab) -> Cell:
    """Group a circuit back into the IR, preserving per-location gate order."""
    cell = Cell(circuit.n_qubits)
    for g in circuit.gates:
        tag = g.kind.tag
        if g.kind.arity == 1:
            if tag not in vocab.rotation_ids:
                raise ValueError(f"gate kind {tag} not in vocab")
            cell.node_ops[g.targets[0]].append(tag)
        else:
            if tag not in vocab.entangle_ids:
                raise ValueError(f"gate kind {tag} not in vocab")
            cell.edge_ops.setdefault(tuple(g.targets), []).append(tag)
    return cell


# ---------------------------------------------------------------------------
# One-hot views and action decoding
# ---------------------------------------------------------------------------


@dataclass
class CellViews:
    rotation_view: np.ndarray  # (n_qubits, max_seq, v_rot)
    entangle_view: np.ndarray  # (n_qubits, n_qubits, v_ent)


def encode_views(cell: Cell, vocab: GateVocab, max_seq: int) -> CellViews:
    n = cell.n_qubits
    rot = np.zeros((n, max_seq, vocab.v_rot))
    ent = np.zeros((n, n, vocab.v_ent))
    rot[:, :, 0] = 1.0
    ent[:, :, 0] = 1.0
    for q in range(n):
        if len(cell.node_ops[q]) > max_seq:
            raise ValueError("node op sequence exceeds max_seq")
        for s, tag in enumerate(cell.node_ops[q]):
            rot[q, s, 0] = 0.0
            rot[q, s, vocab.rotation_ids[tag]] = 1.0
    for (c, t), ops in cell.edge_ops.items():
        if ops:
            ent[c, t, 0] = 0.0
            ent[c, t, vocab.entangle_ids[ops[0]]] = 1.0
    return CellViews(rot, ent)


def decode_actions(rot_actions: np.ndarray, ent_actions: np.ndarray,
                   vocab: GateVocab) -> Cell:
    """Turn per-slot vocab indices back into a cell; NO_OP indices and the
    (ignored) entanglement diagonal produce no gates."""
    rot_actions = np.asarray(rot_actions, dtype=int)
    ent_actions = np.asarray(ent_actions, dtype=int)
    n = rot_actions.shape[0]
    if rot_actions.max(initial=0) >= vocab.v_rot or ent_actions.max(initial=0) >= vocab.v_ent:
        raise ValueError("action index out of vocab range")
    cell = Cell(n)
    for q in range(n):
        for idx in rot_actions[q]:
            if idx != 0:
                cell.node_ops[q].append(vocab.decode_rotation(int(idx)))
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            idx = int(ent_actions[c, t])
            if idx != 0:
                cell.edge_ops[(c, t)] = [vocab.decode_entangle(idx)]
    return cell


# ---------------------------------------------------------------------------
# Metrics and soft constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellMetrics:
    n_params: int
    n_layers: int
    n_two_qubit: int
    n_gates: int


def metrics(cell: Cell) -> CellMetrics:
    """Resource counts of `cell_to_circuit(cell)`, read from the cell in the
    same emission order (rotations per qubit, then edges in sorted order); a
    gate's layer is one past the deepest of its qubits."""
    depth = [0] * cell.n_qubits
    n_params = n_gates = 0
    for q in range(cell.n_qubits):
        for tag in cell.node_ops[q]:
            kind = GATE_KINDS[tag]
            if kind.arity != 1:
                raise ValueError(f"{tag} needs {kind.arity} targets")
            depth[q] += 1
            n_params += kind.param_count
            n_gates += 1
    n_two_qubit = 0
    for (c, t) in sorted(cell.edge_ops):
        for tag in cell.edge_ops[(c, t)]:
            kind = GATE_KINDS[tag]
            if kind.arity != 2:
                raise ValueError(f"{tag} needs {kind.arity} targets")
            level = max(depth[c], depth[t]) + 1
            depth[c] = depth[t] = level
            n_params += kind.param_count
            n_two_qubit += 1
    return CellMetrics(
        n_params=n_params,
        n_layers=max(depth, default=0),
        n_two_qubit=n_two_qubit,
        n_gates=n_gates + n_two_qubit,
    )


def select_best(scored) -> int:
    """Index of the best (cell, theta, score) entry; ties broken by fewer
    parameters, then by the earlier index."""
    return max(
        range(len(scored)),
        key=lambda i: (scored[i][2], -metrics(scored[i][0]).n_params, -i),
    )


@dataclass(frozen=True)
class SoftConstraint:
    """Upper bound tau on one resource quantity of a cell."""

    quantity: str  # one of CellMetrics field names
    bound: int

    def __post_init__(self):
        if self.quantity not in ("n_params", "n_layers", "n_two_qubit", "n_gates"):
            raise ValueError(f"unknown soft quantity {self.quantity!r}")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")


def eval_soft_constraint(c: SoftConstraint, cell: Cell) -> bool:
    return getattr(metrics(cell), c.quantity) <= c.bound


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cell_to_dict(cell: Cell) -> dict:
    return {
        "format": CELL_FORMAT_VERSION,
        "n_qubits": cell.n_qubits,
        "node_ops": [list(ops) for ops in cell.node_ops],
        "edge_ops": [
            {"control": c, "target": t, "ops": list(ops)}
            for (c, t), ops in sorted(cell.edge_ops.items())
            if ops
        ],
    }


def cell_from_dict(doc: dict) -> Cell:
    if doc.get("format") != CELL_FORMAT_VERSION:
        raise ValueError(f"unsupported cell format {doc.get('format')!r}")
    return Cell(
        doc["n_qubits"],
        [list(ops) for ops in doc["node_ops"]],
        {(e["control"], e["target"]): list(e["ops"]) for e in doc["edge_ops"]},
    )


def dumps_cell(cell: Cell) -> str:
    return json.dumps(cell_to_dict(cell), indent=2)


def loads_cell(text: str) -> Cell:
    return cell_from_dict(json.loads(text))
