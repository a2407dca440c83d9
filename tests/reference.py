"""The tests' one reference: slow, independent oracles for the fast paths.

* Kron-unitary oracle.  Full unitaries are assembled with `np.kron` from
  textbook gate matrices written out below, never from the simulator's
  matrices or kernel, so the oracle is independent of the code it checks.
* Exact gate matrices: each rotation built entry by entry as a compiled
  circuit must build it, down to the sign of zero, for the bit-level checks of
  the kernel, and `same_bits`, the comparison those checks use.
* Density-matrix physics.  Explicit density matrices, Uhlmann fidelity,
  partial trace, the SWAP test and the autoencoder round trip, with every
  encoded state built from the kron unitary.  `tasks.QaeTask.training_cost`
  and `tasks.batch_reconstruction_fidelity` are checked against these.
* Noise references: the depolarizing channel, which the sampled Pauli channel
  must average to, and the per-sample bit-flip and Pauli circuits, whose
  draws the batched noisy datasets must reproduce.
* The REINFORCE loss, whose finite differences check `reinforce_grads`.
* The policy step as it ran one child and one tensor at a time: two Gumbel
  draws per sampled child, which `qcas.controller.sample_actions` must match
  in actions and generator state for a whole batch, and an Adam update per
  tensor, which the flat `qcas.controller.adam_step` must match bit for bit.
* `score_cell` as it took the fitting Generator itself rather than a factory
  of it: the fit of a parametric cell must give the same `Scored` entry.
* RES's content-keyed fitting stream, as the sha256 of the seed and the
  cell's dict that `qcas.optim.stream` must rebuild for "res.fit".
* The RES sampler as it drew before seeds cached a sampling plan:
  `random_cell` builds a fresh empty seed, `expand_cell` makes one scalar
  `integers` or `random` call of the Generator per choice, and it and
  `_grown_quantity` re-derive the seed's open pairs and its part of the
  constrained quantity for every candidate.  `qcas.cell`'s sampler, reading
  a `qcas.optim.Draws` of the same Generator, must give the same cells, the
  same `None`s and the same generator state, which `stream_state` reads from
  either.
  It keeps an unconstrained mode, which `qcas.cell`'s sampler matches under
  `UNBOUNDED`.
* The one-op children of a seed, each built as a `Cell`: `qcas.cell.can_grow`
  must say a seed can grow iff one of them is within the bound.
* The most rotations RES can put on one qubit, by quantity name: the least
  `relm.max_seq` that `qcas.cli` accepts for a RES-initialised RELM search.

A pure state is its (2^n,) complex amplitude vector, as in `qcas.sim`.
"""

import cmath
import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from qcas.cell import (Cell, SoftConstraint, _depth, cell_to_circuit, cell_to_dict,
                       metrics)
from qcas.controller import controller_forward
from qcas.optim import minimize
from qcas import sim
from qcas.sim import GATE_KINDS, Circuit, apply_circuit_columns, basis_state, gate

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
    angles = iter(theta)  # theta binds to the parametric gates in gate order
    for g in circuit.gates:
        angle = next(angles) if g.kind.param_count else None
        u = oracle_gate(g.kind.tag, g.targets, angle, circuit.n_qubits) @ u
    return u


# ---------------------------------------------------------------------------
# Exact gate matrices
# ---------------------------------------------------------------------------


def exact_gate_matrix(tag, angle=None):
    """The matrix of gate `tag` as a compiled circuit must hold it, bit for
    bit: a fixed gate's constant matrix, or a rotation by `angle` built from
    math.cos/sin of angle/2 (RZ's diagonal from cmath.exp), every other
    entry +0.0.  A controlled rotation is the identity on the control-|0>
    block."""
    if angle is None:
        return sim._FIXED[tag]
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if tag[-1] == "X":
        rot = np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    elif tag[-1] == "Y":
        rot = np.array([[c, -s], [s, c]], dtype=complex)
    else:
        rot = np.array([[cmath.exp(-1j * angle / 2), 0], [0, cmath.exp(1j * angle / 2)]],
                       dtype=complex)
    if len(tag) == 2:
        return rot
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = rot
    return out


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


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


def width(state: np.ndarray) -> int:
    """The number of qubits of an amplitude vector."""
    return len(state).bit_length() - 1


def density(state: np.ndarray) -> DensityMatrix:
    """|psi><psi| of a pure state."""
    return DensityMatrix(width(state), np.outer(state, state.conj()))


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


def swap_test_expectation(trash_state: DensityMatrix, reference: np.ndarray) -> float:
    """SWAP-test fidelity estimate via the explicit ancilla circuit, exactly.

    On (ancilla (x) trash (x) reference), applies H, a controlled SWAP of
    each trash qubit with its reference qubit and H, all kron-built, and maps
    P(ancilla=0) to fidelity via F = 2 P(0) - 1 (exact expectation, no shots).
    """
    m = trash_state.n_qubits
    if width(reference) != m:
        raise ValueError("trash and reference widths differ")
    if np.linalg.eigvalsh(trash_state.entries).min() < -PSD_TOL:
        raise ValueError("trash state not positive semidefinite")
    n = 1 + 2 * m
    h = kron_embed({0: _TEXTBOOK["H"]}, n)
    u = h
    for i in range(m):
        u = _cswap(0, 1 + i, 1 + m + i, n) @ u
    u = h @ u
    ref = np.outer(reference, reference.conj())
    total = np.kron(np.kron(_KET0, trash_state.entries), ref)
    out = u @ total @ u.conj().T
    p0 = float(np.trace(out[: 2 ** (n - 1), : 2 ** (n - 1)]).real)
    return min(max(2.0 * p0 - 1.0, 0.0), 1.0)


def encoded_output_state(circuit: Circuit, theta, input: np.ndarray, trash) -> DensityMatrix:
    """Encode, trace out the `trash` qubits, substitute a fresh |0...0> for
    them, decode with U^dag."""
    n = circuit.n_qubits
    latent = [q for q in range(n) if q not in trash]
    u = oracle_unitary(circuit, theta)
    rho_a = partial_trace(density(u @ input), latent)
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


def reconstruction_fidelity(circuit: Circuit, theta, input: np.ndarray, trash,
                            target: np.ndarray | None = None) -> float:
    """Round-trip fidelity of the autoencoder against `target` (default: input)."""
    rho_out = encoded_output_state(circuit, theta, input, trash)
    cmp = input if target is None else target
    f = float(np.real(cmp.conj() @ rho_out.entries @ cmp))
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


def pauli_channel_apply(state: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Per qubit, apply I/X/Y/Z with probabilities {1-3p/4, p/4, p/4, p/4},
    one draw per qubit, as a circuit through the simulator."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    probs = [1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0]
    labels = ("I", "X", "Y", "Z")
    n = width(state)
    picks = [labels[rng.choice(4, p=probs)] for _ in range(n)]
    gates = [gate(pick, q) for q, pick in enumerate(picks) if pick != "I"]
    if not gates:
        return state
    return apply_circuit_columns(Circuit(n, gates), (), state[:, None])[:, 0]


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


def reinforce_loss(params, slots, rot_actions, ent_actions, reward: float) -> float:
    """-reward * log pi(actions | parent), the loss `reinforce_grads` differentiates;
    `slots` are the parent's action slots."""
    rot_logits, ent_logits = controller_forward(params, *slots)[0]
    return -action_logprob(rot_logits, ent_logits, rot_actions, ent_actions) * reward


# ---------------------------------------------------------------------------
# Policy step, one child and one tensor at a time
# ---------------------------------------------------------------------------


def sample_actions_per_child(rot_logits, ent_logits, rng: np.random.Generator):
    """One child's Gumbel-max actions: its rotation noise, then its
    entanglement noise, each drawn by itself."""
    gumbel_r = rng.gumbel(size=rot_logits.shape)
    gumbel_e = rng.gumbel(size=ent_logits.shape)
    return (rot_logits + gumbel_r).argmax(axis=-1), (ent_logits + gumbel_e).argmax(axis=-1)


def adam_per_tensor(tensors: dict, grads: dict, m: dict, v: dict, step: int,
                    lr: float) -> dict:
    """Bias-corrected Adam step number `step` (from 1) on each tensor by
    itself, betas 0.9 and 0.999, eps 1e-8; updates the moment dicts `m` and
    `v` in place and returns new tensors."""
    stepped = {}
    for name, g in grads.items():
        m[name] = 0.9 * m.get(name, np.zeros_like(g)) + (1 - 0.9) * g
        v[name] = 0.999 * v.get(name, np.zeros_like(g)) + (1 - 0.999) * g**2
        m_hat = m[name] / (1 - 0.9**step)
        v_hat = v[name] / (1 - 0.999**step)
        stepped[name] = tensors[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return stepped


# ---------------------------------------------------------------------------
# Scoring with a given Generator
# ---------------------------------------------------------------------------


def score_with_generator(cell, task, budget, rng: np.random.Generator, theta_init=None):
    """A parametric cell fitted from the Generator `rng` itself: a random
    start unless `theta_init` fits, then `minimize` drawing its restarts from
    the same `rng`; returns (cell, theta, validation score)."""
    circuit = cell_to_circuit(cell)
    n = circuit.n_params
    if theta_init is not None and np.shape(theta_init) == (n,):
        theta0 = np.asarray(theta_init, dtype=float)
    else:
        theta0 = rng.uniform(-math.pi, math.pi, size=n)
    theta = minimize(functools.partial(task.training_cost, circuit), theta0, budget,
                     rng).theta_star
    return cell, theta, task.validation_score(circuit, theta)


def content_stream(seed: int, cell: Cell) -> np.random.Generator:
    """The Generator RES fits `cell` from: seeded by the first 8 bytes,
    big-endian, of the sha256 of ``[seed, cell dict]`` as sorted-key JSON."""
    digest = hashlib.sha256(json.dumps([seed, cell_to_dict(cell)], sort_keys=True).encode())
    return np.random.default_rng(int.from_bytes(digest.digest()[:8], "big"))


# ---------------------------------------------------------------------------
# RES sampler
# ---------------------------------------------------------------------------

# a bound no cell of the tests reaches; a random draw under it makes the same
# rng draws, and gives the same cell, as an unconstrained one
UNBOUNDED = SoftConstraint("n_gates", 10**6)


def stream_state(rng) -> tuple:
    """Where the PCG64 stream of a Generator, or of a `qcas.optim.Draws` of
    one, stands: its state had it drawn only the words read so far, and the
    upper half-word that `integers` has buffered (None if there is none)."""
    if isinstance(rng, np.random.Generator):
        state = rng.bit_generator.state
        return state["state"], state["uinteger"] if state["has_uint32"] else None
    bits = np.random.PCG64()
    bits.state = rng._raw.__self__.state  # the bit generator, at the end of the last block
    bits.advance(-(len(rng._words) - rng._pos))
    return bits.state["state"], rng._half


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
    A category with one kind draws no index for it: numpy's `integers` draws
    nothing for a one-value range, so skipping the call keeps the draws.
    """
    rot = sorted(set(t for t in space if GATE_KINDS[t].arity == 1))
    ent = sorted(set(t for t in space if GATE_KINDS[t].arity == 2))
    n = seed.n_qubits
    integers, random = rng.integers, rng.random
    added = [[] for _ in range(n)]
    if rot:
        for q in range(n):
            k = int(integers(0, layer_budget + 1))
            if k:
                added[q] = [rot[integers(len(rot))] if len(rot) > 1 else rot[0] for _ in range(k)]
    new_edges = {}
    if ent:
        have = dict(seed.edge_ops)
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) in have or (b, a) in have:
                    continue
                if random() < 0.5:
                    edge = (a, b) if random() < 0.5 else (b, a)
                    new_edges[edge] = [ent[integers(len(ent))] if len(ent) > 1 else ent[0]]
    if (constraint is not None
            and _grown_quantity(constraint.quantity, seed, added, new_edges) > constraint.bound):
        return None
    return Cell(n, [(*ops, *more) for ops, more in zip(seed.node_ops, added)],
                [*seed.edge_ops, *new_edges.items()])


def _grown_quantity(quantity: str, seed: Cell, added: list, new_edges: dict) -> int:
    """`quantity` of `metrics` of the child that `expand_cell` builds from
    `seed`, the rotations `added` per qubit and `new_edges`, read without
    building the child."""
    if quantity == "n_layers":
        return _depth([len(ops) + len(more) for ops, more in zip(seed.node_ops, added)],
                      sorted([*seed.edge_ops, *new_edges.items()]))
    # the other quantities add up over the gates
    base = getattr(metrics(seed), quantity)
    if quantity == "n_two_qubit":
        return base + len(new_edges)
    tags = [tag for more in added for tag in more]
    tags += [ops[0] for ops in new_edges.values()]
    if quantity == "n_params":
        return base + sum(GATE_KINDS[tag].param_count for tag in tags)
    return base + len(tags)


def one_op_children(seed: Cell, space) -> list:
    """Every cell that `expand_cell` can grow from `seed` by adding one op:
    one rotation kind of `space` appended on one qubit, or one 2-qubit kind
    on a pair with no edge either way, in either direction."""
    rot = sorted(t for t in space if GATE_KINDS[t].arity == 1)
    ent = sorted(t for t in space if GATE_KINDS[t].arity == 2)
    n, have = seed.n_qubits, dict(seed.edge_ops)
    children = [Cell(n, [(*ops, tag) if p == q else ops for p, ops in enumerate(seed.node_ops)],
                     seed.edge_ops)
                for q in range(n) for tag in rot]
    for c in range(n):
        for t in range(n):
            if c != t and (c, t) not in have and (t, c) not in have:
                children += [Cell(n, seed.node_ops, [*seed.edge_ops, ((c, t), (tag,))])
                             for tag in ent]
    return children


# ---------------------------------------------------------------------------
# The max_seq rule
# ---------------------------------------------------------------------------


def res_rotations_per_qubit(space, quantity: str, bound: int, max_phases: int,
                            layer_budget_per_phase: int) -> int:
    """Up to `layer_budget_per_phase` rotations a phase, capped at `bound`
    under `n_layers` and `n_gates` (each rotation counts one), and under
    `n_params` when every 1-qubit kind of `space` has a parameter; 0 when
    `space` has no 1-qubit kind."""
    rot = [GATE_KINDS[t] for t in space if GATE_KINDS[t].arity == 1]
    most = max_phases * layer_budget_per_phase if rot else 0
    if quantity in ("n_layers", "n_gates") or (
            quantity == "n_params" and all(k.param_count for k in rot)):
        most = min(most, bound)
    return most
