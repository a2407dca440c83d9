"""The kron-unitary oracle shared by the simulator tests.

Full unitaries are assembled with `np.kron` from textbook gate matrices
written out below, never from `GateKind.matrix` or the simulator, so the
oracle is independent of the code under test.
"""

import math

import numpy as np

_I = np.eye(2, dtype=complex)
_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_TEXTBOOK = dict(
    _PAULI,
    I=_I,
    H=np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    S=np.diag([1, 1j]),
    T=np.diag([1, np.exp(1j * math.pi / 4)]),
)
_KET0 = np.diag([1, 0]).astype(complex)
_KET1 = np.diag([0, 1]).astype(complex)


def textbook_1q(tag, theta):
    """exp(-i theta/2 P) for rotations, else the named fixed gate."""
    if tag.startswith("R"):
        p = _PAULI[tag[1]]
        return math.cos(theta / 2) * _I - 1j * math.sin(theta / 2) * p
    return _TEXTBOOK[tag]


def kron_embed(ops, n):
    """kron over qubits 0..n-1 (qubit 0 most significant) of ops.get(q, I)."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, ops.get(q, _I))
    return out


def oracle_gate(tag, targets, theta, n):
    if len(targets) == 1:
        return kron_embed({targets[0]: textbook_1q(tag, theta)}, n)
    control, target = targets
    u = textbook_1q("X" if tag == "CNOT" else tag[1:], theta)
    return kron_embed({control: _KET0}, n) + kron_embed({control: _KET1, target: u}, n)


def oracle_unitary(circuit, theta):
    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        angle = theta[g.param_slot] if g.param_slot is not None else None
        u = oracle_gate(g.kind.tag, g.targets, angle, circuit.n_qubits) @ u
    return u
