"""The tests' one reference: slow, independent oracles for the fast paths.

* Kron-unitary oracle.  Full unitaries are assembled with `np.kron` from
  textbook gate matrices written out below, never from `GateKind.matrix` or
  the simulator's kernel, so the oracle is independent of the code it checks.
* Density-matrix physics.  Explicit density matrices, Uhlmann fidelity,
  partial trace, the SWAP test and the autoencoder round trip, with every
  encoded state built from the kron unitary.  `tasks.QaeTask.training_cost`
  and `tasks.batch_reconstruction_fidelity` are checked against these.
* Noise references: the depolarizing channel, which the sampled Pauli channel
  must average to, and the per-sample bit-flip circuit, whose draws the
  batched bit-flip dataset must reproduce.
* The REINFORCE loss, whose finite differences check `reinforce_grads`.
"""

import math
from dataclasses import dataclass

import numpy as np

from qcas.controller import controller_forward
from qcas.sim import Circuit, PureState, basis_state, gate

PSD_TOL = 1e-9

# ---------------------------------------------------------------------------
# Kron-unitary oracle
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------


@dataclass
class DensityMatrix:
    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        d = 2**self.n_qubits
        if self.entries.shape != (d, d):
            raise ValueError("density matrix must be 2^n x 2^n")
        if np.max(np.abs(self.entries - self.entries.conj().T)) > 1e-8:
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(self.entries).real - 1.0) > 1e-8:
            raise ValueError("density matrix trace must be 1")


def density(state: PureState) -> DensityMatrix:
    """|psi><psi| of a pure state."""
    return DensityMatrix(state.n_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -PSD_TOL:
        raise ValueError(f"matrix has negative eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr[sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma), which is
    the same quantity without square-rooting near-zero eigenvalues.
    """
    if rho.n_qubits != sigma.n_qubits:
        raise ValueError("density matrix widths differ")
    product = _psd_sqrt(rho.entries) @ _psd_sqrt(sigma.entries)
    f = float(np.sum(np.linalg.svd(product, compute_uv=False)) ** 2)
    return min(max(f, 0.0), 1.0)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the qubit set `keep`."""
    keep = tuple(sorted(keep))
    n = rho.n_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError("keep index out of range")
    traced = tuple(q for q in range(n) if q not in keep)
    tensor = rho.entries.reshape((2,) * (2 * n))
    for q in reversed(traced):
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
    d = 2 ** len(keep)
    return DensityMatrix(len(keep), tensor.reshape(d, d))


def _cswap(control, a, b, n):
    """Controlled SWAP of qubits a and b, with SWAP = (II + XX + YY + ZZ) / 2."""
    swap = sum(kron_embed({control: _KET1, a: p, b: p}, n)
               for p in (_I, *_PAULI.values())) / 2
    return kron_embed({control: _KET0}, n) + swap


def swap_test_expectation(trash_state: DensityMatrix, reference: PureState) -> float:
    """SWAP-test fidelity estimate via the explicit ancilla circuit, exactly.

    On (ancilla (x) trash (x) reference), applies H, a controlled SWAP of
    each trash qubit with its reference qubit and H, all kron-built, and maps
    P(ancilla=0) to fidelity via F = 2 P(0) - 1 (exact expectation, no shots).
    """
    m = trash_state.n_qubits
    if reference.n_qubits != m:
        raise ValueError("trash and reference widths differ")
    if np.linalg.eigvalsh(trash_state.entries).min() < -PSD_TOL:
        raise ValueError("trash state not positive semidefinite")
    n = 1 + 2 * m
    h = kron_embed({0: _TEXTBOOK["H"]}, n)
    u = h
    for i in range(m):
        u = _cswap(0, 1 + i, 1 + m + i, n) @ u
    u = h @ u
    ref = np.outer(reference.amplitudes, reference.amplitudes.conj())
    total = np.kron(np.kron(_KET0, trash_state.entries), ref)
    out = u @ total @ u.conj().T
    p0 = float(np.trace(out[: 2 ** (n - 1), : 2 ** (n - 1)]).real)
    return min(max(2.0 * p0 - 1.0, 0.0), 1.0)


def encoded_output_state(circuit: Circuit, theta, input: PureState, trash) -> DensityMatrix:
    """Encode, trace out the `trash` qubits, substitute a fresh |0...0> for
    them, decode with U^dag."""
    n = circuit.n_qubits
    latent = [q for q in range(n) if q not in trash]
    u = oracle_unitary(circuit, theta)
    encoded = PureState(n, u @ input.amplitudes)
    rho_a = partial_trace(density(encoded), latent)
    # rebuild on (latent qubits..., trash qubits...) then permute into place
    combined = np.kron(rho_a.entries, density(basis_state(len(trash))).entries)
    order = latent + sorted(trash)
    perm = [order.index(q) for q in range(n)]
    tensor = combined.reshape((2,) * (2 * n))
    tensor = np.transpose(tensor, perm + [n + p for p in perm])
    rho_new = tensor.reshape(2**n, 2**n)
    out = u.conj().T @ rho_new @ u
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(n, out)


def reconstruction_fidelity(circuit: Circuit, theta, input: PureState, trash,
                            target: PureState | None = None) -> float:
    """Round-trip fidelity of the autoencoder against `target` (default: input)."""
    rho_out = encoded_output_state(circuit, theta, input, trash)
    cmp = input if target is None else target
    f = float(np.real(cmp.amplitudes.conj() @ rho_out.entries @ cmp.amplitudes))
    return min(max(f, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """rho -> (1 - p) rho + p * I/d over the full Hilbert dimension d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    d = 2**rho.n_qubits
    mixed = np.eye(d, dtype=complex) / d
    return DensityMatrix(rho.n_qubits, (1.0 - p) * rho.entries + p * mixed)


def bitflip_noise_circuit(n_qubits: int, p: float, rng: np.random.Generator) -> Circuit:
    """Independently per qubit, an X gate with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    gates = [gate("X", q) for q in range(n_qubits) if rng.random() < p]
    return Circuit(n_qubits, gates)


# ---------------------------------------------------------------------------
# REINFORCE loss
# ---------------------------------------------------------------------------


def _log_softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def action_logprob(rot_logits, ent_logits, rot_actions, ent_actions) -> float:
    """log pi of the sampled rotation and entanglement actions."""
    rot_lp = _log_softmax(rot_logits)
    ent_lp = _log_softmax(ent_logits)
    return float(
        np.take_along_axis(rot_lp, np.asarray(rot_actions)[..., None], axis=-1).sum()
        + np.take_along_axis(ent_lp, np.asarray(ent_actions)[..., None], axis=-1).sum()
    )


def reinforce_loss(params, views, rot_actions, ent_actions, reward: float) -> float:
    """-reward * log pi(actions | views), the loss `reinforce_grads` differentiates."""
    rot_logits, ent_logits = controller_forward(params, views)[0]
    return -action_logprob(rot_logits, ent_logits, rot_actions, ent_actions) * reward
