"""Cell intermediate representation for circuit search.

A cell is a directed graph over qubit nodes: rotation self-loops carry a
tuple of 1-qubit gate kinds per qubit, entanglement edges carry a tuple of
2-qubit gate kinds per (control, target) pair.  A cell is an immutable value
in canonical form, checked once when it is built, so equal cells compare and
hash equal.  Gate order between locations is deliberately not encoded;
`cell_to_circuit` fixes a canonical emission order so runs are reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .optim import Draws, check_choice, check_int
from .sim import GATE_KINDS, Circuit, gate

NO_OP = "NO_OP"

CELL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Gate vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateVocab:
    """Bijection between gate kinds and dense integer ids, per category.

    The kinds of each category in id order, with NO_OP, the id of an empty
    action slot, at 0 in both.  The ids are worked out once per vocabulary,
    on first use.
    """

    rotation_kinds: tuple[str, ...]
    entangle_kinds: tuple[str, ...]

    @cached_property
    def rotation_ids(self) -> dict:
        return {t: i for i, t in enumerate(self.rotation_kinds)}

    @cached_property
    def entangle_ids(self) -> dict:
        return {t: i for i, t in enumerate(self.entangle_kinds)}

    @property
    def v_rot(self) -> int:
        return len(self.rotation_kinds)

    @property
    def v_ent(self) -> int:
        return len(self.entangle_kinds)


def build_vocab(space) -> GateVocab:
    """The vocabulary of a gate space, the one form in which a run's space
    reaches the samplers and searches: NO_OP at 0, then each category's kinds
    sorted by name, so the order and repeats of `space` do not matter.  An
    empty space or an unknown kind is a ValueError that names it."""
    kinds = set(space)
    if not kinds:
        raise ValueError("gate space must be nonempty")
    if unknown := kinds - set(GATE_KINDS):
        raise ValueError(f"unknown gate kinds: {sorted(unknown)}")
    return GateVocab(*((NO_OP, *sorted(t for t in kinds if GATE_KINDS[t].arity == arity))
                       for arity in (1, 2)))


# ---------------------------------------------------------------------------
# Cell
# ---------------------------------------------------------------------------


# the tags a node may carry and the tags an edge may carry
_NODE_TAGS, _EDGE_TAGS = (frozenset(t for t, k in GATE_KINDS.items() if k.arity == arity)
                          for arity in (1, 2))


@dataclass(frozen=True)
class Cell:
    """`node_ops` holds one tuple of 1-qubit tags per qubit (all empty when
    none is given); `edge_ops` holds `((control, target), tags)` pairs in
    sorted edge order, for the edges that have ops.  Lists, and edges as a
    mapping or as pairs, are put in that form here."""

    n_qubits: int
    node_ops: tuple = ()
    edge_ops: tuple = ()

    def __post_init__(self):
        n = self.n_qubits
        check_int("n_qubits", n, 1)
        node_ops = tuple(map(tuple, self.node_ops)) or ((),) * n
        if len(node_ops) != n:
            raise ValueError(f"node_ops must have one entry per qubit, got {len(node_ops)}")
        edge_ops, valid = {}, _edges(n)
        for edge, ops in (self.edge_ops.items() if isinstance(self.edge_ops, Mapping)
                          else self.edge_ops):
            if edge not in valid or edge in edge_ops:
                raise ValueError(f"{'repeated' if edge in edge_ops else 'invalid'} edge {edge}")
            edge_ops[edge] = tuple(ops)
        for allowed, groups in ((_NODE_TAGS, node_ops), (_EDGE_TAGS, edge_ops.values())):
            if not allowed.issuperset(chain(*groups)):
                tag = next(tag for tag in chain(*groups) if tag not in allowed)
                kind = GATE_KINDS.get(tag)
                raise ValueError(f"unknown gate kind {tag!r}" if kind is None
                                 else f"{tag} needs {kind.arity} targets")
        object.__setattr__(self, "node_ops", node_ops)
        if not all(edge_ops.values()):
            edge_ops = {edge: ops for edge, ops in edge_ops.items() if ops}
        object.__setattr__(self, "edge_ops", tuple(sorted(edge_ops.items())))

    def __getstate__(self):
        # the sampling plan `_plan` caches on a seed is derived, so a pickle leaves it out
        return {f.name: getattr(self, f.name) for f in fields(self)}


@lru_cache(maxsize=64)
def _edges(n: int) -> frozenset:
    """The (control, target) pairs of two distinct qubits of n."""
    return frozenset((c, t) for c in range(n) for t in range(n) if c != t)


def random_cell(vocab: GateVocab, n_qubits: int, draws: Draws, layer_budget: int,
                constraint: SoftConstraint):
    """Sample a fresh cell of `vocab`'s kinds within `constraint`, or None: up
    to `layer_budget` rotations per qubit and at most one 2-qubit op per edge
    (each unordered pair drawn with prob 1/2), `layer_budget` >= 1 as every
    config checks.  This is `expand_cell` of the empty cell."""
    return expand_cell(_empty_cell(n_qubits), vocab, draws, layer_budget, constraint)


@lru_cache(maxsize=64, typed=True)
def _empty_cell(n: int) -> Cell:
    """The cell of n qubits with no ops, shared so its tables are worked out once."""
    return Cell(n)


class _Plan:
    """What a seed, vocab, layer budget and constraint fix for `expand_cell`:
    the shape of a candidate's draws, the seed's rotations per qubit and open
    pairs in both directions, and the single additions that fit.

    Under `n_layers`, `most[q]` is the most rotations (up to the layer budget)
    qubit q can take on its own within the bound, -1 if the seed breaks it,
    and `open[d]` whether directed pair d can take an edge on its own.  Under
    a quantity that adds up over the gates, `base` is the seed's and
    `rot_weight` / `ent_weight` what each kind id adds, so a candidate's
    quantity is exact from its draws.
    """

    __slots__ = ("key", "shape", "rot", "ent", "rotations", "edges", "bound", "most", "open",
                 "base", "rot_weight", "ent_weight", "grows")

    def __init__(self, seed: Cell, vocab: GateVocab, layer_budget: int,
                 constraint: SoftConstraint):
        n, have = seed.n_qubits, {edge for edge, _ in seed.edge_ops}
        pairs = [(a, b) for a, b in combinations(range(n), 2) if not {(a, b), (b, a)} & have]
        self.rotations = rotations = tuple(map(len, seed.node_ops))
        rot, ent = vocab.rotation_kinds[1:], vocab.entangle_kinds[1:]
        self.key = (vocab, layer_budget, constraint)
        self.shape = (n, layer_budget + 1, len(rot), len(pairs), len(ent))
        self.rot, self.ent, self.bound = rot, ent, constraint.bound
        self.edges = [edge for a, b in pairs for edge in ((a, b), (b, a))]
        if constraint.quantity == "n_layers":
            def fits(sizes, edges=seed.edge_ops):
                return _depth(sizes, edges) <= self.bound

            self.most = []
            for q, size in enumerate(rotations):
                k = -1
                while k < layer_budget and fits([*rotations[:q], size + k + 1,
                                                  *rotations[q + 1:]]):
                    k += 1
                self.most.append(k)
            # an edge's layers do not depend on its kind
            self.open = [fits(rotations, sorted([*seed.edge_ops, (edge, ("",))]))
                         for edge in self.edges]
            self.grows = bool(rot) and max(self.most) >= 1 or bool(ent) and any(self.open)
        else:
            self.most = None
            self.base = getattr(metrics(seed), constraint.quantity)
            self.rot_weight, self.ent_weight = (
                [_sums([tag], [])[constraint.quantity] for tag in rot],
                [_sums([], [tag])[constraint.quantity] for tag in ent])
            self.grows = any(self.base + weight <= self.bound for weight in
                             [*self.rot_weight, *(self.ent_weight if pairs else ())])


def _plan(seed: Cell, vocab: GateVocab, layer_budget: int, constraint: SoftConstraint) -> _Plan:
    """The seed's `_Plan` for these arguments, cached on the seed (one at a
    time, outside its fields, so not in `==`, hash, repr or pickles)."""
    plan = seed.__dict__.get("_plan")
    if plan is None or plan.key != (vocab, layer_budget, constraint):
        plan = seed.__dict__["_plan"] = _Plan(seed, vocab, layer_budget, constraint)
    return plan


def expand_cell(seed: Cell, vocab: GateVocab, draws: Draws, layer_budget: int,
                constraint: SoftConstraint):
    """Grow a seed cell: keep everything it has, append fresh rotations of
    `vocab` and fill in missing edges with newly sampled 2-qubit ops of it.

    A candidate's choices come from one `draws.expansion` call, and a child
    that breaks `constraint` is never built: None is returned instead.  Every
    constrained quantity only grows as ops are added, so the seed's `_Plan`
    rejects a candidate with one addition that does not fit on its own by a
    table read; under a quantity that adds up over the gates its check is
    exact, and under `n_layers` a candidate that passes it is checked by its
    layer count.  A rejected candidate draws what a built one does.
    """
    plan = _plan(seed, vocab, layer_budget, constraint)
    counts, ids, directed, kinds = draws.expansion(*plan.shape)
    if plan.most is None:
        if (plan.base + sum(map(plan.rot_weight.__getitem__, ids))
                + sum(map(plan.ent_weight.__getitem__, kinds)) > plan.bound):
            return None
    elif not (all(map(int.__le__, counts, plan.most))
              and all(map(plan.open.__getitem__, directed))):
        return None
    new_edges = [(plan.edges[d], (plan.ent[k],)) for d, k in zip(directed, kinds)]
    sizes = list(map(int.__add__, plan.rotations, counts)) if counts else plan.rotations
    if plan.most is not None and _depth(sizes, sorted([*seed.edge_ops, *new_edges])
                                        if new_edges else seed.edge_ops) > plan.bound:
        return None
    added = map(plan.rot.__getitem__, ids)
    node_ops = [(*ops, *islice(added, size - len(ops))) for ops, size in zip(seed.node_ops, sizes)]
    return Cell(seed.n_qubits, node_ops, [*seed.edge_ops, *new_edges])


def can_grow(seed: Cell, vocab: GateVocab, constraint: SoftConstraint) -> bool:
    """Whether `expand_cell` can draw a child other than `seed` from `vocab` within
    `constraint`: as every quantity grows with ops, iff one op (a rotation on
    one qubit, or an edge on one open pair) fits, read from the seed's `_Plan`."""
    return _plan(seed, vocab, 1, constraint).grows


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


def cell_to_circuit(cell: Cell) -> Circuit:
    """Canonical emission: per qubit ascending, its rotations in list order;
    then edges in (control, target) lexicographic order.  The circuit's
    theta binds to its parametric gates in this order.  `gate` interns its
    instances, so circuits share them."""
    nodes = [gate(tag, q) for q, ops in enumerate(cell.node_ops) for tag in ops]
    edges = [gate(tag, *edge) for edge, ops in cell.edge_ops for tag in ops]
    return Circuit(cell.n_qubits, nodes + edges)


# ---------------------------------------------------------------------------
# Action slots
# ---------------------------------------------------------------------------


def encode_actions(cell: Cell, vocab: GateVocab, max_seq: int):
    """The action slots `decode_actions` turns back into `cell`: each qubit's
    rotation ids, NO_OP-padded to `max_seq`, and each edge's first op id."""
    n = cell.n_qubits
    rot = np.zeros((n, max_seq), dtype=int)
    ent = np.zeros((n, n), dtype=int)
    for q, ops in enumerate(cell.node_ops):
        if len(ops) > max_seq:
            raise ValueError(f"qubit {q} has {len(ops)} rotations, more than max_seq {max_seq}")
        rot[q, :len(ops)] = [vocab.rotation_ids[tag] for tag in ops]
    for (c, t), ops in cell.edge_ops:
        ent[c, t] = vocab.entangle_ids[ops[0]]
    return rot, ent


def decode_actions(rot_actions: np.ndarray, ent_actions: np.ndarray,
                   vocab: GateVocab) -> Cell:
    """Turn one sample of `sample_actions`, whose ids lie in `vocab`, back into
    a cell; NO_OP ids and the (ignored) entanglement diagonal produce no gates."""
    rot_kinds, ent_kinds = vocab.rotation_kinds, vocab.entangle_kinds
    node_ops = [[rot_kinds[idx] for idx in row if idx] for row in rot_actions.tolist()]
    edge_ops = [((c, t), (ent_kinds[idx],)) for c, row in enumerate(ent_actions.tolist())
                for t, idx in enumerate(row) if idx and c != t]
    return Cell(len(node_ops), node_ops, edge_ops)


# ---------------------------------------------------------------------------
# Metrics and soft constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellMetrics:
    n_params: int
    n_layers: int
    n_two_qubit: int
    n_gates: int


def _depth(rotations, edges) -> int:
    """Layer count of `rotations[q]` rotations on each qubit q followed by
    the ops of `edges`, `(edge, ops)` pairs in emission order: a gate's
    layer is one past the deepest of its qubits."""
    depth = list(rotations)
    for (c, t), ops in edges:
        for _ in ops:
            depth[c] = depth[t] = max(depth[c], depth[t]) + 1
    return max(depth, default=0)


def _sums(one, two) -> dict:
    """The quantities that add up over the gates, for 1-qubit tags `one` and
    2-qubit tags `two` (lists)."""
    return {"n_params": sum(GATE_KINDS[tag].param_count for tag in one + two),
            "n_two_qubit": len(two), "n_gates": len(one) + len(two)}


def metrics(cell: Cell) -> CellMetrics:
    """Resource counts of `cell_to_circuit(cell)`, read from the cell."""
    one = [tag for ops in cell.node_ops for tag in ops]
    two = [tag for _, ops in cell.edge_ops for tag in ops]
    return CellMetrics(n_layers=_depth(map(len, cell.node_ops), cell.edge_ops), **_sums(one, two))


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
        check_choice("quantity", self.quantity, (f.name for f in fields(CellMetrics)))
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
        "edge_ops": [{"control": c, "target": t, "ops": list(ops)}
                     for (c, t), ops in cell.edge_ops],
    }


def cell_from_dict(doc: dict) -> Cell:
    if doc.get("format") != CELL_FORMAT_VERSION:
        raise ValueError(f"unsupported cell format {doc.get('format')!r}")
    return Cell(doc["n_qubits"], doc["node_ops"],
                [((e["control"], e["target"]), e["ops"]) for e in doc["edge_ops"]])
