"""Dense statevector simulation primitives.

Qubit 0 is the most significant bit of the computational-basis index, so the
basis state |q0 q1 ... q_{n-1}> sits at index sum_k q_k * 2^(n-1-k).  A state
is its (2^n,) complex amplitude vector, and a batch of states is a (2^n,
batch) matrix of such columns.  All expectation values are exact (no shot
sampling).

Every gate application goes through one kernel, `_apply_steps`, which runs a
circuit's list of (rows, dim, matrix) steps on the (2^n, batch) columns: a
step gathers the rows into the order its gate needs with one `take` (none
when they are already in place) and multiplies them, viewed as (dim, rest),
by its matrix.  A circuit's parameters are its parametric gates in gate
order: theta[k] is the angle of its k-th parametric gate.  A `Circuit` is an
immutable value, compiled when it is built: it holds the row orders of its
steps, the constant matrices of its fixed gates, and one buffer holding the
matrices of its parametric gates, refilled for each theta with the cos/sin
of every angle (from `math`).  I, X and CNOT, whose matrices hold only 0s
and 1s, make no step: they relabel basis states, so their permutation is
composed into the rows of the next step or of the final restore.  Row
orders come from bounded tables shared by all compiles, so a circuit that
runs once, such as a parameter-free cell scored once, pays little more than
its matmuls.  `apply_circuit_columns` is the one entry to the kernel
(`circuit_unitary` goes through it; one state runs as `state[:, None]`), and
it checks the columns' shape there.

Its results equal, bit for bit, those of multiplying each gate's matrix, as
`exact_gate_matrix` in `tests/reference.py` builds it, with every -0.0 made
+0.0:
- a gather moves values without changing them, and a product of the same
  shape computes a column alike wherever it lies among the columns;
- a 0/1 matrix's product gives each amplitude one input amplitude times 1
  plus exact zeros, so every value is that input's; only the sign of an
  exactly zero real or imaginary part depends on the other terms' zeros;
- a zero's sign never changes a nonzero value later on (x + -0.0 is x, and
  a zero times a finite value is a zero), so the result can differ from the
  per-gate products only in the signs of its zeros, and the kernel adds 0.0
  to it, which turns -0.0 into +0.0 and changes no other value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Gate kinds
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)

_FIXED = {  # the matrices of the parameter-free gates
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}

# Where theta enters a rotation's 2x2 block, as (row, col, part, value) with
# part 0 = real, 1 = imaginary and value 0 = cos, 1 = sin, 2 = -sin,
# 3 = sin + 0.0 of theta/2.  The last is what cmath.exp(1j * theta / 2)
# gives, whose argument turns theta = -0.0 into +0.0.  Every other component
# is +0.0.
_ROT_ENTRIES = {
    "X": ((0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 2), (1, 0, 1, 2)),
    "Y": ((0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 2), (1, 0, 0, 1)),
    "Z": ((0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 2), (1, 1, 1, 3)),
}


@dataclass(frozen=True)
class GateKind:
    """One supported gate type: tag, qubit arity and parameter count."""

    tag: str
    arity: int
    param_count: int


GATE_KINDS: dict[str, GateKind] = {}
for _tag in ("H", "S", "T", "I", "X", "Y", "Z"):
    GATE_KINDS[_tag] = GateKind(_tag, 1, 0)
for _tag in ("RX", "RY", "RZ"):
    GATE_KINDS[_tag] = GateKind(_tag, 1, 1)
GATE_KINDS["CNOT"] = GateKind("CNOT", 2, 0)
for _tag in ("CRX", "CRY", "CRZ"):
    GATE_KINDS[_tag] = GateKind(_tag, 2, 1)

# The parameter-free gates whose matrix holds only 0s and 1s (I, X and CNOT):
# they only relabel basis states, so circuits fold them into row orders.
_PERMUTATIONS = frozenset(t for t, m in _FIXED.items() if ((m == 0) | (m == 1)).all())

# Named search spaces: single-qubit Cliffords, the full Clifford set and the
# generic parameterized set.
SPACE_SINGLE_CLIFFORD = frozenset({"H", "S", "T", "I"})
SPACE_CLIFFORD = frozenset({"H", "S", "T", "I", "CNOT"})
SPACE_GENERIC = frozenset({"RX", "RY", "RZ", "CNOT", "CRX", "CRY", "CRZ"})


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def basis_state(n_qubits: int, index: int = 0) -> np.ndarray:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def ghz_state(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 1:
        raise ValueError("GHZ state needs at least one qubit")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / _SQRT2
    return amps


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateInstance:
    kind: GateKind
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubit")
        if len(self.targets) != self.kind.arity:
            raise ValueError(f"{self.kind.tag} needs {self.kind.arity} targets")


@dataclass(frozen=True)
class Circuit:
    """An immutable gate sequence, compiled when it is built for runs at many
    parameter vectors.

    It compiles into kernel steps `(rows, dim, matrix)`, one per gate that is
    not I, X or CNOT.  A step's gate multiplies the (2^n, batch) columns
    viewed as (dim, rest), so its target bits must be the high bits of the
    row index: `rows` is the row order, from the bounded `_layout` table,
    that brings them there, or None when the rows are already in place and
    the last step had the same dim (as for consecutive gates on one qubit).
    I, X and CNOT only relabel basis states, so they make no step: their
    permutation, from the bounded `_relabel` table, is composed into the
    next step's `rows`, or into `restore`, the row order that puts the
    result back in qubit order (None if it is in qubit order).
    Fixed gates use their constant matrices.  The matrices of parametric
    gates are views into one buffer, which `bind` refills in place from a
    single cos/sin evaluation of theta/2 (the k-th parametric gate's from
    theta[k]), with the entries of `exact_gate_matrix` in
    `tests/reference.py`.  Every run refills the buffer, so one circuit must
    not be run from two threads at once.  Equality, hash and repr see only
    `n_qubits` and `gates`.
    """

    n_qubits: int
    gates: tuple[GateInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.n_qubits
        targets = [t for g in self.gates for t in g.targets]
        if targets and (min(targets) < 0 or max(targets) >= n):
            raise ValueError("gate target out of range")
        param = [g for g in self.gates if g.kind.param_count]
        buffer = np.zeros(sum(4**g.kind.arity for g in param), dtype=complex)
        dst, src, steps = [], [], []
        layout = _layout(n, ())
        where, dim = layout[2], 2**n  # where[j]: the row that holds basis state j
        offset = k = 0  # k: the next parametric gate's index in theta
        for g in self.gates:
            tag = g.kind.tag
            if tag in _PERMUTATIONS:
                if tag != "I":
                    where = where[_relabel(n, tag, g.targets)]
                continue
            d = 2**g.kind.arity
            if not g.kind.param_count:
                mat = _FIXED[tag]
            else:
                mat = buffer[offset:offset + d * d].reshape(d, d)
                corner = d - 2  # controlled gates rotate the control-|1> block
                mat[:corner, :corner] = np.eye(corner)
                for row, col, part, value in _ROT_ENTRIES[tag[-1]]:
                    dst.append(2 * (offset + (corner + row) * d + corner + col) + part)
                    src.append(value * len(param) + k)
                offset += d * d
                k += 1
            after = _layout(n, g.targets)
            # in place: no gate folded since the last step, same row order and dim
            in_place = where is layout[2] and after[0] == layout[0] and d == dim
            steps.append((None if in_place else where[after[1]], d, mat))  # a fresh index
            layout, where, dim = after, after[2], d
        in_order = where is layout[2] and layout[0] == tuple(range(n))
        vars(self).update(  # derived once; no fields, so ==, hash and repr skip them
            # `take` runs slower with a read-only index, such as a table's
            n_params=len(param), steps=steps, restore=None if in_order else where.copy(),
            _parts=buffer.view(np.float64),
            _values=np.empty((4, len(param))),  # cos, sin, -sin, sin + 0.0 of theta/2
            _dst=np.array(dst, dtype=np.intp), _src=np.array(src, dtype=np.intp))

    def __reduce__(self):
        # copies and unpickled circuits compile afresh, so their matrices stay
        # views into their own buffer
        return Circuit, (self.n_qubits, self.gates)

    def bind(self, theta: np.ndarray):
        """Write the parametric gate matrices for `theta` into the buffer.

        cos and sin come from `math`, as in `cmath.exp`, so the entries
        match `exact_gate_matrix` bit for bit on any platform; -sin and
        sin + 0.0 are exact, so they are formed as array operations.
        """
        if self.n_params:
            half = (theta / 2).tolist()
            values = self._values
            values[:2] = list(map(math.cos, half)), list(map(math.sin, half))
            np.negative(values[1], out=values[2])
            np.add(values[1], 0.0, out=values[3])
            self._parts[self._dst] = values.take(self._src)


@functools.lru_cache(maxsize=4096)
def gate(tag: str, *targets: int) -> GateInstance:
    """The one shared, immutable `GateInstance` of `tag` on `targets`: every
    gate the program builds comes from this bounded cache."""
    return GateInstance(GATE_KINDS[tag], targets)


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=128)
def _layout(n: int, targets: tuple) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(order, rows, inverse): the row order in which a gate on `targets`
    multiplies n-qubit columns.

    Row r holds basis state rows[r]: its qubits in `order` (the targets,
    then the other qubits ascending) are the bits of r from the highest
    down, and inverse[j] is the row of basis state j.  `targets` () is qubit
    order.  At 10 qubits an entry holds 16 KB.
    """
    order = targets + tuple(q for q in range(n) if q not in targets)
    r = np.arange(2**n)
    rows = np.zeros(2**n, dtype=np.intp)
    for i, q in enumerate(order):
        rows |= (r >> (n - 1 - i) & 1) << (n - 1 - q)
    inverse = np.empty_like(rows)
    inverse[rows] = r
    rows.flags.writeable = inverse.flags.writeable = False
    return order, rows, inverse


@functools.lru_cache(maxsize=128)
def _relabel(n: int, tag: str, targets: tuple) -> np.ndarray:
    """q with (G w)[j] = w[q[j]] for the n-qubit state w and the gate G, a
    `tag` in `_PERMUTATIONS` on `targets`.  At 10 qubits an entry holds 8 KB.

    In the gate's `_layout` its product's block of rows a is the input's
    block of rows c, where c is the column of the one 1 in its matrix's
    row a.
    """
    _, rows, _ = _layout(n, targets)
    rest = 2**n >> len(targets)
    copied = _FIXED[tag].real.argmax(1)[:, None] * rest + np.arange(rest)
    q = np.empty_like(rows)
    q[rows] = rows[copied.ravel()]
    q.flags.writeable = False
    return q


_ZERO = np.zeros((), dtype=complex)  # a 0-d operand adds with less dispatch than 0.0
_ZERO.flags.writeable = False


def _apply_steps(columns: np.ndarray, steps, restore) -> np.ndarray:
    """The gate-application kernel: run kernel steps on (2^n, batch) columns.

    A step takes its rows into place with one `take` and multiplies the
    (dim, rest) view by the dim x dim matrix; a step whose rows are already
    in place multiplies the last product as it lies.  `ndarray.dot` makes
    the same BLAS call as `@` on these 2-D operands, with less dispatch.
    The result adds 0.0, which turns every -0.0 into +0.0 and changes no
    other value.
    """
    x = np.ascontiguousarray(columns, dtype=complex)
    shape = x.shape
    for rows, dim, mat in steps:
        if rows is not None:
            x = x.reshape(shape).take(rows, 0).reshape(dim, -1)
        x = mat.dot(x)
    x = x.reshape(shape)
    return (x if restore is None else x.take(restore, 0)) + _ZERO


def apply_circuit_columns(circuit: Circuit, theta: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Run `circuit` on every column of a (2^n, batch) amplitude matrix."""
    if columns.ndim != 2:
        raise ValueError(f"columns have shape {columns.shape}, but a {circuit.n_qubits}-qubit "
                         f"circuit needs a ({2**circuit.n_qubits}, batch) matrix")
    if columns.shape[0] != 2**circuit.n_qubits:
        raise ValueError(f"columns have {columns.shape[0]} rows, but a "
                         f"{circuit.n_qubits}-qubit circuit needs {2**circuit.n_qubits}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(f"theta has shape {theta.shape}, but the circuit has "
                         f"{circuit.n_params} parameters")
    circuit.bind(theta)
    return _apply_steps(columns, circuit.steps, circuit.restore)


def circuit_unitary(circuit: Circuit, theta=()) -> np.ndarray:
    """Dense unitary of the circuit; column k is the image of basis state |k>."""
    d = 2**circuit.n_qubits
    return apply_circuit_columns(circuit, theta, np.eye(d, dtype=complex))


# ---------------------------------------------------------------------------
# Encodings
# ---------------------------------------------------------------------------


def amplitude_encode(x) -> np.ndarray:
    """Zero-pad to the next power of two, L2-normalize and load as amplitudes."""
    x = np.asarray(x, dtype=float).ravel()
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise ValueError("cannot amplitude-encode the all-zero vector")
    n = max(1, math.ceil(math.log2(len(x))))
    amps = np.zeros(2**n, dtype=complex)
    amps[: len(x)] = x / norm
    # renormalize once more against rounding
    amps /= np.linalg.norm(amps)
    return amps
