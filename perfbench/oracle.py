"""Independent checks of a search record.

Nothing here calls the qcas simulator, cell emitter or cost functions.  Gates
are dense matrices embedded into the full Hilbert space with `np.kron`,
controlled gates are built from |0><0| and |1><1| projectors, and autoencoder
round trips go through explicit density matrices: encode, partial trace over
the trash qubits, a fresh |0...0> trash state, decode with U^dagger.  Qubit 0
is the most significant bit of a basis index, as in the program.

Only the state columns (the program's inputs: noisy GHZ samples, encoded
images, the hidden target circuit) are taken from the program.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_FIXED = {
    "I": _I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
PARAMETRIC = ("RX", "RY", "RZ", "CRX", "CRY", "CRZ")


def _rotation(axis: str, theta: float) -> np.ndarray:
    # exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P
    return math.cos(theta / 2) * _I2 - 1j * math.sin(theta / 2) * _FIXED[axis]


def _one_qubit(tag: str, theta) -> np.ndarray:
    return _rotation(tag[1], theta) if tag in PARAMETRIC else _FIXED[tag]


def _embed(ops: dict, n: int) -> np.ndarray:
    """kron over qubits 0..n-1 of ops.get(q, I)."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, ops.get(q, _I2))
    return out


def gate_unitary(tag: str, targets, theta, n: int) -> np.ndarray:
    if len(targets) == 1:
        return _embed({targets[0]: _one_qubit(tag, theta)}, n)
    control, target = targets
    base = "X" if tag == "CNOT" else tag[1:]
    u = _one_qubit(base, theta)
    return _embed({control: _P0}, n) + _embed({control: _P1, target: u}, n)


def cell_gates(cell: dict) -> list:
    """(tag, targets) in the program's documented canonical order: each
    qubit's rotations in list order, qubits ascending, then edges in
    (control, target) lexicographic order."""
    gates = [(tag, (q,)) for q, ops in enumerate(cell["node_ops"]) for tag in ops]
    for edge in sorted(cell["edge_ops"], key=lambda e: (e["control"], e["target"])):
        gates += [(tag, (edge["control"], edge["target"])) for tag in edge["ops"]]
    return gates


def n_parametric(gates) -> int:
    return sum(1 for tag, _ in gates if tag in PARAMETRIC)


def n_layers(gates, n: int) -> int:
    depth = [0] * n
    for _, targets in gates:
        level = max(depth[q] for q in targets) + 1
        for q in targets:
            depth[q] = level
    return max(depth, default=0)


def circuit_unitary(gates, theta, n: int) -> np.ndarray:
    theta = list(theta)
    if len(theta) != n_parametric(gates):
        raise ValueError("theta length differs from the parametric gate count")
    u = np.eye(2**n, dtype=complex)
    slot = 0
    for tag, targets in gates:
        angle = None
        if tag in PARAMETRIC:
            angle, slot = theta[slot], slot + 1
        u = gate_unitary(tag, targets, angle, n) @ u
    return u


def round_trip_fidelities(u: np.ndarray, columns: np.ndarray, n_trash: int,
                          target=None) -> np.ndarray:
    """Per column psi: <t| U^dag (Tr_trash[U rho U^dag] (x) |0><0|) U |t>, with
    rho = |psi><psi| and t the column itself or the fixed `target` state.
    Trash qubits are the highest-index ones."""
    cols = np.asarray(columns, dtype=complex)
    d, batch = cols.shape
    d_trash = 2**n_trash
    d_keep = d // d_trash
    phi = u @ cols
    rho = np.einsum("ib,jb->bij", phi, phi.conj())
    rho_keep = np.einsum("bxtyt->bxy", rho.reshape(batch, d_keep, d_trash, d_keep, d_trash))
    fresh = np.zeros((d_trash, d_trash), dtype=complex)
    fresh[0, 0] = 1.0
    rho_new = np.einsum("bxy,st->bxsyt", rho_keep, fresh).reshape(batch, d, d)
    rho_out = u.conj().T @ rho_new @ u
    t = cols.T if target is None else np.broadcast_to(target, (batch, d))
    return np.real(np.einsum("bi,bij,bj->b", t.conj(), rho_out, t))


def ghz(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / math.sqrt(2.0)
    return amps


def target_state(target_gates, n: int) -> np.ndarray:
    """|0...0> evolved by a parameter-free target circuit."""
    return circuit_unitary(target_gates, [], n)[:, 0]
