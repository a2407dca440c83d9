"""Cell intermediate representation for circuit search.

A cell is a directed graph over qubit nodes: rotation self-loops carry an
ordered list of 1-qubit gate kinds per qubit, entanglement edges carry an
ordered list of 2-qubit gate kinds per (control, target) pair.  Gate order
between locations is deliberately not encoded; `cell_to_circuit` fixes a
canonical emission order so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .optim import check_int
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
    action decoding share the same convention.  The kinds in id order are
    worked out once per vocabulary, on first use.
    """

    rotation_ids: dict
    entangle_ids: dict

    @cached_property
    def rotation_kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self.rotation_ids, key=self.rotation_ids.get))

    @cached_property
    def entangle_kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self.entangle_ids, key=self.entangle_ids.get))

    @property
    def v_rot(self) -> int:
        return len(self.rotation_ids)

    @property
    def v_ent(self) -> int:
        return len(self.entangle_ids)


def build_vocab(space) -> GateVocab:
    """Deterministic id assignment: NO_OP at 0, then kinds sorted by name."""
    space = frozenset(space)
    if not space:
        raise ValueError("gate space must be nonempty")
    unknown = space - set(GATE_KINDS)
    if unknown:
        raise ValueError(f"unknown gate kinds: {sorted(unknown)}")
    rot, ent = _space_kinds(space)
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.node_ops == other.node_ops
            and {k: v for k, v in self.edge_ops.items() if v}
            == {k: v for k, v in other.edge_ops.items() if v}
        )


@lru_cache(maxsize=64)
def _space_kinds(space: frozenset) -> tuple[tuple, tuple]:
    """The rotation kinds and the 2-qubit kinds of a gate space, each sorted."""
    rot = tuple(sorted(t for t in space if GATE_KINDS[t].arity == 1))
    ent = tuple(sorted(t for t in space if GATE_KINDS[t].arity == 2))
    return rot, ent


def random_cell(space, n_qubits: int, rng: np.random.Generator,
                layer_budget: int = 1, constraint: SoftConstraint | None = None):
    """Sample a fresh cell: up to `layer_budget` rotations per qubit and at
    most one 2-qubit op per edge (each unordered pair drawn with prob 1/2).

    This is `expand_cell` of the empty cell, `constraint` included."""
    if layer_budget < 1:
        raise ValueError("layer_budget must be >= 1")
    return expand_cell(Cell(n_qubits), space, rng, layer_budget, constraint)


def expand_cell(seed: Cell, space, rng: np.random.Generator,
                layer_budget: int = 1, constraint: SoftConstraint | None = None):
    """Grow a seed cell: keep everything it has, append fresh rotations and
    fill in missing edges with newly sampled 2-qubit ops.

    With a `constraint`, the child's constrained quantity is worked out from
    the seed and the drawn additions, and a child that breaks it is never
    built: None is returned instead.  The rng draws are the same either way.
    """
    rot, ent = _space_kinds(frozenset(space))
    n = seed.n_qubits
    integers, random = rng.integers, rng.random
    added = [[] for _ in range(n)]
    if rot:
        for q in range(n):
            k = int(integers(0, layer_budget + 1))
            if k:
                added[q] = [rot[integers(len(rot))] for _ in range(k)]
    new_edges = {}
    if ent:
        have = seed.edge_ops
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) in have or (b, a) in have:
                    continue
                if random() < 0.5:
                    edge = (a, b) if random() < 0.5 else (b, a)
                    new_edges[edge] = [ent[integers(len(ent))]]
    if (constraint is not None
            and _grown_quantity(constraint.quantity, seed, added, new_edges) > constraint.bound):
        return None
    edge_ops = {edge: list(ops) for edge, ops in seed.edge_ops.items()}
    edge_ops.update(new_edges)
    return Cell(n, [ops + more for ops, more in zip(seed.node_ops, added)], edge_ops)


def sample_admissible(make, count: int, max_tries: int = 100,
                      exclude: Cell | None = None) -> list:
    """Up to `count` cells from at most count * max_tries calls of `make`,
    which samples one candidate and returns None for one that breaks the
    constraint; a candidate equal to `exclude` is skipped too."""
    cells = []
    for _ in range(count * max_tries):
        if len(cells) == count:
            break
        cell = make()
        if cell is not None and (exclude is None or cell != exclude):
            cells.append(cell)
    return cells


def _grown_quantity(quantity: str, seed: Cell, added: list, new_edges: dict) -> int:
    """`quantity` of `metrics` of the child that `expand_cell` builds from
    `seed`, the rotations `added` per qubit and `new_edges`, read without
    building the child."""
    if quantity == "n_layers":
        # metrics' depth rule over the merged edges in sorted order
        depth = [len(ops) + len(more) for ops, more in zip(seed.node_ops, added)]
        for (c, t), ops in sorted([*seed.edge_ops.items(), *new_edges.items()]):
            for _ in ops:
                depth[c] = depth[t] = max(depth[c], depth[t]) + 1
        return max(depth, default=0)
    # the other quantities add up over the gates
    base = getattr(metrics(seed), quantity)
    if quantity == "n_two_qubit":
        return base + len(new_edges)
    tags = [tag for more in added for tag in more]
    tags += [ops[0] for ops in new_edges.values()]
    if quantity == "n_params":
        return base + sum(GATE_KINDS[tag].param_count for tag in tags)
    return base + len(tags)


@lru_cache(maxsize=4096)
def _gate_instance(tag: str, targets: tuple, slot: int | None) -> GateInstance:
    """One shared, immutable `GateInstance` per (tag, targets, slot)."""
    return GateInstance(GATE_KINDS[tag], targets, slot)


def cell_to_circuit(cell: Cell) -> Circuit:
    """Canonical emission: per qubit ascending, its rotations in list order;
    then edges in (control, target) lexicographic order.  Parametric gates
    receive fresh parameter slots in emission order.  Gate instances are
    immutable, so circuits share them."""
    gates = []
    slot = 0

    def emit(tag, targets):
        nonlocal slot
        if GATE_KINDS[tag].param_count:
            gates.append(_gate_instance(tag, targets, slot))
            slot += 1
        else:
            gates.append(_gate_instance(tag, targets, None))

    for q in range(cell.n_qubits):
        for tag in cell.node_ops[q]:
            emit(tag, (q,))
    for (c, t) in sorted(cell.edge_ops):
        for tag in cell.edge_ops[(c, t)]:
            emit(tag, (c, t))
    return Circuit(cell.n_qubits, gates)


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
    if ent_actions.shape != (n, n):
        raise ValueError("entangle actions must be (n_qubits, n_qubits)")
    if (rot_actions.max(initial=0) >= vocab.v_rot or ent_actions.max(initial=0) >= vocab.v_ent
            or rot_actions.min(initial=0) < 0 or ent_actions.min(initial=0) < 0):
        raise ValueError("action index out of vocab range")
    rot_kinds, ent_kinds = vocab.rotation_kinds, vocab.entangle_kinds
    node_ops = [[rot_kinds[idx] for idx in row if idx] for row in rot_actions.tolist()]
    edge_ops = {}
    for c, row in enumerate(ent_actions.tolist()):
        for t, idx in enumerate(row):
            if idx and c != t:
                edge_ops[(c, t)] = [ent_kinds[idx]]
    return Cell(n, node_ops, edge_ops)


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
        quantities = ("n_params", "n_layers", "n_two_qubit", "n_gates")
        if self.quantity not in quantities:
            raise ValueError(f"quantity must be one of {quantities}, got {self.quantity!r}")
        check_int("bound", self.bound, 1)


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
