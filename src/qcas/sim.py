"""Dense statevector simulation primitives.

Qubit 0 is the most significant bit of the computational-basis index, so the
basis state |q0 q1 ... q_{n-1}> sits at index sum_k q_k * 2^(n-1-k).  A state
is its (2^n,) complex amplitude vector, and a batch of states is a (2^n,
batch) matrix of such columns.  All expectation values are exact (no shot
sampling).

Every gate application goes through one kernel, `_apply_steps`, which runs a
list of (transpose permutation, dimension, matrix) steps on a
(2,)*n + (batch,) tensor.  A circuit's parameters are its parametric gates
in gate order: theta[k] is the angle of its k-th parametric gate.  A
`Circuit` is an immutable value, compiled when it is built: it holds the
permutations of all its gates, the constant matrices of its fixed gates, and
one buffer holding the matrices of its parametric gates, refilled for each
theta with the cos/sin of every angle (from `math`).  A gate's permutation
depends only on its targets and on the axis order the previous gate left, so
`_kernel_step` memoises it in a bounded cache shared by all compiles; a
circuit that runs once, such as a parameter-free cell scored once, pays
little more than its matmuls.  `apply_circuit_columns` is the one entry to
the kernel (`circuit_unitary` goes through it; one state runs as
`state[:, None]`), and it checks the columns' width there.  It gives bit for
bit the results of applying each gate with the matrix that
`exact_gate_matrix` in `tests/reference.py` builds.
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

    It holds the kernel steps of every gate, whose permutations come from
    the bounded `_kernel_step` cache.  Each permutation brings the gate's
    target axes to the front of the axis order the previous step left
    behind, so one transpose per gate suffices; non-target axes keep their
    relative order and the batch axis stays last.  Fixed gates use their
    constant matrices.  The matrices of parametric gates are views into one
    buffer, which `bind` refills in place from a single cos/sin evaluation
    of theta/2 (the k-th parametric gate's from theta[k]), with the entries
    of `exact_gate_matrix` in `tests/reference.py`; runs are therefore
    bit-identical to building every matrix per gate.  Every run refills the
    buffer, so one circuit must not be run from two threads at once.
    Equality, hash and repr see only `n_qubits` and `gates`.
    """

    n_qubits: int
    gates: tuple[GateInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        targets = [t for g in self.gates for t in g.targets]
        if targets and (min(targets) < 0 or max(targets) >= self.n_qubits):
            raise ValueError("gate target out of range")
        param = [g for g in self.gates if g.kind.param_count]
        n = len(param)
        buffer = np.zeros(sum(4**g.kind.arity for g in param), dtype=complex)
        dst, src, steps = [], [], []
        where = tuple(range(self.n_qubits + 1))
        offset = k = 0  # k: the next parametric gate's index in theta
        for g in self.gates:
            if not g.kind.param_count:
                mat = _FIXED[g.kind.tag]
            else:
                d = 2**g.kind.arity
                mat = buffer[offset:offset + d * d].reshape(d, d)
                corner = d - 2  # controlled gates rotate the control-|1> block
                mat[:corner, :corner] = np.eye(corner)
                for row, col, part, value in _ROT_ENTRIES[g.kind.tag[-1]]:
                    dst.append(2 * (offset + (corner + row) * d + corner + col) + part)
                    src.append(value * n + k)
                offset += d * d
                k += 1
            perm, dim, where = _kernel_step(where, g.targets)
            steps.append((perm, dim, mat))
        vars(self).update(  # derived once; no fields, so ==, hash and repr skip them
            n_params=n, steps=steps, restore=where,  # restore: back to qubit order
            _parts=buffer.view(np.float64),
            _values=np.empty((4, n)),  # cos, sin, -sin, sin + 0.0 of theta/2
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


@functools.lru_cache(maxsize=4096)
def _kernel_step(where: tuple, targets: tuple) -> tuple[tuple, int, tuple]:
    """One gate's (perm, dim, where after it), from the axis positions
    `where` the previous step left behind (where[a]: the position of axis a).

    A pure function of its arguments, memoised in a bounded cache.  The
    order it leaves depends only on `targets`, so at n qubits there are at
    most 1 + (number of distinct target tuples) positions to start from.
    """
    order = targets + tuple(a for a in range(len(where)) if a not in targets)
    after = [0] * len(where)
    for i, a in enumerate(order):
        after[a] = i
    return tuple([where[a] for a in order]), 2 ** len(targets), tuple(after)


def _apply_steps(columns: np.ndarray, n_qubits: int, steps, restore) -> np.ndarray:
    """The gate-application kernel: run kernel steps on (2^n, batch) columns.

    Each step views the (2,)*n + (batch,) tensor with the gate's target axes
    first, flattens it to (2^k, rest) and multiplies by the 2^k x 2^k matrix.
    A step whose targets are already in front (as for consecutive gates on
    one qubit) multiplies the last product as it lies.  `ndarray.dot` makes
    the same BLAS call as `@` on these 2-D operands, with less dispatch.
    """
    batch = columns.shape[1]
    shape = (2,) * n_qubits + (batch,)
    unmoved = tuple(range(n_qubits + 1))
    x = np.ascontiguousarray(columns, dtype=complex)
    for perm, dim, mat in steps:
        if perm != unmoved:
            x = x.reshape(shape).transpose(perm)
        x = mat.dot(x.reshape(dim, -1))
    return x.reshape(shape).transpose(restore).reshape(2**n_qubits, batch)


def apply_circuit_columns(circuit: Circuit, theta: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Run `circuit` on every column of a (2^n, batch) amplitude matrix."""
    if columns.shape[0] != 2**circuit.n_qubits:
        raise ValueError(f"columns have {columns.shape[0]} rows, but a "
                         f"{circuit.n_qubits}-qubit circuit needs {2**circuit.n_qubits}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (circuit.n_params,):
        raise ValueError(f"theta has shape {theta.shape}, but the circuit has "
                         f"{circuit.n_params} parameters")
    circuit.bind(theta)
    return _apply_steps(columns, circuit.n_qubits, circuit.steps, circuit.restore)


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
