"""Benchmark tasks: dataset generators, cost functions, baseline circuits and
evaluation protocols for denoising, image compression, pure-state compression
and unitary regeneration.

Tasks expose `training_cost(circuit, theta)` (minimizable, in [0, 1]) and
`validation_score(circuit, theta)` (higher is better); the search algorithms
only rely on this surface.  Batched column simulation keeps dataset-level
costs cheap inside optimizer loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# `metrics` and `eval_soft_constraint` stay importable here: perfbench/tracing.py
# wraps tasks.metrics and tasks.eval_soft_constraint.
from .cell import (SoftConstraint, eval_soft_constraint, metrics,  # noqa: F401
                   random_cell, sample_admissible, select_best)
from .optim import OptBudget, check_range, score_cell
from .sim import (
    Circuit,
    PureState,
    amplitude_encode,
    apply_circuit_columns,
    basis_state,
    circuit_unitary,
    gate,
    ghz_state,
    pauli_channel_apply,
    pure_fidelity,
    run_circuit,
)

DEFAULT_P_GRID = tuple(round(0.1 * k, 1) for k in range(11))
NOISE_KINDS = ("bitflip", "qdc")
COST_MODES = ("trash", "local")


# ---------------------------------------------------------------------------
# Batched QAE evaluation helpers
# ---------------------------------------------------------------------------


def _to_trash_major(cols: np.ndarray, n_trash: int) -> np.ndarray:
    """(2^n, B) columns -> (2^(n - n_trash), 2^n_trash, B): the trash qubits
    are the last n_trash, so their index is the fastest-varying one."""
    return cols.reshape(cols.shape[0] >> n_trash, 2**n_trash, cols.shape[1])


def batch_trash_fidelity(encoded_cols: np.ndarray, n_trash: int) -> np.ndarray:
    """Per-column <0...0| Tr_A[|psi><psi|] |0...0> for pure encoded columns."""
    m = _to_trash_major(encoded_cols, n_trash)
    return np.sum(np.abs(m[:, 0, :]) ** 2, axis=0)


def batch_reconstruction_fidelity(circuit: Circuit, theta, cols: np.ndarray, n_trash: int,
                                  target: PureState | None = None) -> np.ndarray:
    """Round-trip fidelity per column, against `target` or each input itself:
    encode, reset the last n_trash qubits to |0...0>, decode.

    Uses F = || M_psi^dag w ||^2 with M the latent-by-trash reshaping of the
    encoded state and w the |0...0>-projected encoded comparison state.
    """
    encoded = apply_circuit_columns(circuit, theta, cols)
    m = _to_trash_major(encoded, n_trash)
    if target is not None:
        phi = run_circuit(target, circuit, theta)
        w = _to_trash_major(phi.amplitudes[:, None], n_trash)[:, 0, 0]  # (dim_A,)
        inner = np.einsum("abz,a->bz", m.conj(), w)
    else:
        w = m[:, 0, :]  # per-column latent vector
        inner = np.einsum("abz,az->bz", m.conj(), w)
    return np.sum(np.abs(inner) ** 2, axis=0)


def logfidelity(f: float) -> float:
    """-log10(1 - f), with f clamped just below 1."""
    return -math.log10(1.0 - min(float(f), 1.0 - 1e-12))


# ---------------------------------------------------------------------------
# Noise dataset (denoising)
# ---------------------------------------------------------------------------


@dataclass
class NoiseDataset:
    kind: str  # "bitflip" | "qdc"
    n_qubits: int
    p_train: float
    train: np.ndarray  # (2^n, n_train) noisy state columns
    val: np.ndarray
    test: dict  # p -> (2^n, n_test) columns
    clean: PureState


def _bitflip_columns(clean: PureState, p: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """`count` copies of `clean`, each qubit of each copy flipped by an X
    with probability p, drawing one uniform per qubit in copy-major order.
    X on qubit q moves amplitude i to i ^ 2^(n-1-q), so each column is the
    clean vector indexed by idx ^ mask."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    n = clean.n_qubits
    flips = rng.random((count, n)) < p
    masks = flips @ (1 << np.arange(n - 1, -1, -1))
    return clean.amplitudes[np.arange(2**n)[:, None] ^ masks]


def _noisy_ghz_columns(kind: str, n_qubits: int, p: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    clean = ghz_state(n_qubits)
    if kind == "bitflip":
        return _bitflip_columns(clean, p, count, rng)
    cols = np.empty((2**n_qubits, count), dtype=complex)
    for i in range(count):
        cols[:, i] = pauli_channel_apply(clean, p, rng).amplitudes
    return cols


def gen_noise_dataset(kind: str, n_qubits: int = 3, seed: int = 0,
                      p_train: float = 0.2, n_train: int = 100, n_val: int = 100,
                      n_test: int = 200, p_grid=DEFAULT_P_GRID) -> NoiseDataset:
    if kind not in NOISE_KINDS:
        raise ValueError(f"unsupported noise kind {kind!r}")
    rng = np.random.default_rng([seed, 0x5E7])
    return NoiseDataset(
        kind=kind,
        n_qubits=n_qubits,
        p_train=p_train,
        train=_noisy_ghz_columns(kind, n_qubits, p_train, n_train, rng),
        val=_noisy_ghz_columns(kind, n_qubits, p_train, n_val, rng),
        test={p: _noisy_ghz_columns(kind, n_qubits, p, n_test, rng) for p in p_grid},
        clean=ghz_state(n_qubits),
    )


# ---------------------------------------------------------------------------
# Image datasets
# ---------------------------------------------------------------------------

_DIGIT_MASKS = {
    "0": np.array([
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 1, 0],
    ]),
    "1": np.array([
        [0, 0, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 1, 0],
        [0, 0, 1, 0],
        [0, 1, 1, 1],
    ]),
}

_TETROMINOES = {
    "I": np.ones((1, 4), dtype=int),
    "O": np.ones((2, 2), dtype=int),
    "T": np.array([[1, 1, 1], [0, 1, 0]]),
    "L": np.array([[1, 0], [1, 0], [1, 1]]),
}


@dataclass
class ImageDataset:
    name: str
    images: np.ndarray  # (count, rows, cols)
    labels: np.ndarray


def _fill_mask(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    bg = rng.uniform(0.01, 0.05, size=mask.shape)
    fg = rng.uniform(0.5, 1.0, size=mask.shape)
    return np.where(mask > 0, fg, bg)


def gen_digits(seed: int = 0, count: int = 100) -> ImageDataset:
    rng = np.random.default_rng([seed, 0xD16])
    images, labels = [], []
    for i in range(count):
        digit = "0" if i % 2 == 0 else "1"
        images.append(_fill_mask(_DIGIT_MASKS[digit], rng))
        labels.append(int(digit))
    return ImageDataset("Digits", np.array(images), np.array(labels))


def gen_tetris(seed: int = 0, count: int = 500) -> ImageDataset:
    rng = np.random.default_rng([seed, 0x7E7])
    names = sorted(_TETROMINOES)
    images, labels = [], []
    for _ in range(count):
        label = int(rng.integers(len(names)))
        block = _TETROMINOES[names[label]]
        h, w = block.shape
        mask = np.zeros((4, 4), dtype=int)
        r = int(rng.integers(0, 4 - h + 1))
        c = int(rng.integers(0, 4 - w + 1))
        mask[r:r + h, c:c + w] = block
        images.append(_fill_mask(mask, rng))
        labels.append(label)
    return ImageDataset("Tetris", np.array(images), np.array(labels))


IMAGE_DATASETS = {"digits": gen_digits, "tetris": gen_tetris}


def image_qubits(dataset: str) -> int:
    """Width of the image task over `dataset`, read from one generated image."""
    return amplitude_encode(IMAGE_DATASETS[dataset](count=1).images[0]).n_qubits


def encode_images(images: np.ndarray) -> np.ndarray:
    """Amplitude-encode each image into a column of a (2^n, count) matrix."""
    states = [amplitude_encode(img).amplitudes for img in images]
    return np.array(states).T


# ---------------------------------------------------------------------------
# State-compression dataset
# ---------------------------------------------------------------------------


@dataclass
class StateCompressDataset:
    train: np.ndarray  # (16dim, 6) columns
    test: np.ndarray  # (16dim, 10)


def _random_orthonormal_pair(rng: np.random.Generator, dim: int):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q[:, 0], q[:, 1]


def gen_state_compress_dataset(seed: int = 0) -> StateCompressDataset:
    """16 four-qubit states cos(t)|phi0 chi0> + sin(t)|phi1 chi1>, a family
    compressible to 2 qubits by construction; split 6 train / 10 test."""
    rng = np.random.default_rng([seed, 0x5C5])
    phi0, phi1 = _random_orthonormal_pair(rng, 4)
    chi0, chi1 = _random_orthonormal_pair(rng, 4)
    t_grid = np.linspace(0.05, math.pi / 2 - 0.05, 16)
    states = np.array([
        math.cos(t) * np.kron(phi0, chi0) + math.sin(t) * np.kron(phi1, chi1)
        for t in t_grid
    ]).T
    train_idx = sorted(rng.permutation(16)[:6].tolist())
    test_idx = [i for i in range(16) if i not in train_idx]
    return StateCompressDataset(states[:, train_idx], states[:, test_idx])


# ---------------------------------------------------------------------------
# Hidden unitary-regeneration targets
# ---------------------------------------------------------------------------


@dataclass
class HiddenTarget:
    circuit: Circuit
    evolved: PureState  # the circuit's image of |0...0>


_ONE_QUBIT_TAGS = ("H", "S", "T", "I")
SUBTASK_CNOT_PROB = {"dense": 0.5, "hybrid": 0.25, "single": 0.0}
REGEN_QUBITS = (1, 10)  # the least and most n_qubits of a hidden target
REGEN_LAYERS = (1, 6)


def gen_hidden_targets(n_qubits: int, subtask: str, layers: int, count: int,
                       seed: int = 0) -> list:
    if subtask not in SUBTASK_CNOT_PROB:
        raise ValueError(f"unsupported subtask {subtask!r}")
    check_range("layers", layers, *REGEN_LAYERS)
    check_range("n_qubits", n_qubits, *REGEN_QUBITS)
    rng = np.random.default_rng([seed, 0x717])
    cnot_p = SUBTASK_CNOT_PROB[subtask] if n_qubits > 1 else 0.0
    targets = []
    for _ in range(count):
        while True:
            gates = []
            for _layer in range(layers):
                free = list(rng.permutation(n_qubits))
                while len(free) >= 2 and rng.random() < cnot_p:
                    c, t = int(free.pop()), int(free.pop())
                    gates.append(gate("CNOT", c, t))
                for q in free:
                    if rng.random() < 0.8:
                        tag = _ONE_QUBIT_TAGS[rng.integers(len(_ONE_QUBIT_TAGS))]
                        if tag != "I":
                            gates.append(gate(tag, int(q)))
            circuit = Circuit(n_qubits, gates)
            if gates:
                break
        evolved = PureState(n_qubits, circuit_unitary(circuit)[:, 0])
        targets.append(HiddenTarget(circuit, evolved))
    return targets


# ---------------------------------------------------------------------------
# Task specs
# ---------------------------------------------------------------------------


@dataclass
class QaeTask:
    """Autoencoder task over fixed train/validation state columns.  The
    trash qubits are the last `n_trash`; a round trip resets them to |0...0>."""

    kind: str
    n_qubits: int
    n_trash: int
    train_cols: np.ndarray
    val_cols: np.ndarray
    cost_mode: str = "trash"  # one of COST_MODES
    val_target: PureState | None = None  # compare round-trips to this state

    def __post_init__(self):
        if self.cost_mode not in COST_MODES:
            raise ValueError(f"cost_mode must be one of {COST_MODES}, got {self.cost_mode!r}")
        check_range("n_trash", self.n_trash, 1, self.n_qubits - 1)

    def training_cost(self, circuit: Circuit, theta) -> float:
        if circuit.n_qubits != self.n_qubits:
            raise ValueError("circuit width does not match task")
        encoded = apply_circuit_columns(circuit, np.asarray(theta, dtype=float),
                                        self.train_cols)
        if self.cost_mode == "local":
            return 1.0 - float(np.mean(self._local_populations(encoded)))
        f = batch_trash_fidelity(encoded, self.n_trash)
        return float(np.mean(1.0 - f))

    def _local_populations(self, encoded: np.ndarray) -> np.ndarray:
        n = self.n_qubits
        batch = encoded.shape[1]
        tensor = np.abs(encoded) ** 2
        tensor = tensor.reshape((2,) * n + (batch,))
        pops = []
        for q in range(n - self.n_trash, n):
            pops.append(np.take(tensor, 0, axis=q).reshape(-1, batch).sum(axis=0))
        return np.mean(pops, axis=0)

    def validation_score(self, circuit: Circuit, theta) -> float:
        f = batch_reconstruction_fidelity(circuit, theta, self.val_cols, self.n_trash,
                                          target=self.val_target)
        return float(np.mean(f))


@dataclass
class UnitaryRegenTask:
    """Match the state evolved by a hidden unitary from |0...0>."""

    target: HiddenTarget
    kind: str = "UnitaryRegen"

    @property
    def n_qubits(self) -> int:
        return self.target.circuit.n_qubits

    def training_cost(self, circuit: Circuit, theta) -> float:
        generated = run_circuit(basis_state(self.n_qubits), circuit, theta)
        return 1.0 - pure_fidelity(generated, self.target.evolved)

    def validation_score(self, circuit: Circuit, theta) -> float:
        return 1.0 - self.training_cost(circuit, theta)


def make_denoise_task(dataset: NoiseDataset, cost_mode: str = "trash") -> QaeTask:
    return QaeTask("Denoise", dataset.n_qubits, dataset.n_qubits - 1, dataset.train, dataset.val,
                   cost_mode=cost_mode, val_target=dataset.clean)


def make_image_task(dataset: ImageDataset, n_trash: int = 1, seed: int = 0,
                    train_frac: float = 0.6, val_frac: float = 0.2,
                    cost_mode: str = "trash"):
    """Amplitude-encode the images and split into train/val/test columns."""
    cols = encode_images(dataset.images)
    n_qubits = int(math.log2(cols.shape[0]))
    count = cols.shape[1]
    rng = np.random.default_rng([seed, 0x1D5])
    order = rng.permutation(count)
    n_train = int(train_frac * count)
    n_val = int(val_frac * count)
    train = cols[:, order[:n_train]]
    val = cols[:, order[n_train:n_train + n_val]]
    test = cols[:, order[n_train + n_val:]]
    task = QaeTask("ImageCompress", n_qubits, n_trash, train, val, cost_mode=cost_mode)
    return task, test


def make_state_compress_task(dataset: StateCompressDataset,
                             cost_mode: str = "trash") -> QaeTask:
    return QaeTask("StateCompress", 4, 2, dataset.train, dataset.test, cost_mode=cost_mode)


# ---------------------------------------------------------------------------
# Evaluation protocols and baselines
# ---------------------------------------------------------------------------


def evaluate_qae_test(circuit: Circuit, theta, task: QaeTask, test_cols: np.ndarray):
    """(mean, std) of the round-trip fidelity of `test_cols`, against the
    task's target if it has one."""
    f = batch_reconstruction_fidelity(circuit, theta, test_cols, task.n_trash,
                                      target=task.val_target)
    return float(np.mean(f)), float(np.std(f))


def baseline_circuit(task) -> Circuit:
    """Hand-designed reference encoder for the QAE tasks."""
    if task.kind == "Denoise":
        n = task.n_qubits
        gates, slot = [], 0
        for _ in range(8):  # 8 alternating blocks -> 48 parameters on 3 qubits
            for q in range(n):
                gates.append(gate("RZ", q, param_slot=slot))
                slot += 1
            for q in range(n):
                gates.append(gate("CRX", q, (q + 1) % n, param_slot=slot))
                slot += 1
        return Circuit(n, gates)
    if task.kind in ("ImageCompress", "StateCompress"):
        n = task.n_qubits
        gates, slot = [], 0
        for _ in range(5):
            for q in range(n):
                gates.append(gate("RY", q, param_slot=slot))
                slot += 1
            for q in range(n - 1):
                gates.append(gate("CNOT", q, q + 1))
        return Circuit(n, gates)
    raise ValueError(f"no baseline defined for task kind {task.kind!r}")


def random_search(task, space, budget_evals: int, constraint: SoftConstraint | None,
                  seed: int, layer_budget: int = 2,
                  opt_budget: OptBudget | None = None):
    """Independent random cells, best kept; serves as the RS baseline and the
    RELM random initializer.  Returns (best, all) `Scored` entries."""
    if budget_evals < 1:
        raise ValueError("budget must be >= 1")
    if opt_budget is None:
        opt_budget = OptBudget()
    rng = np.random.default_rng([seed, 0xA5])
    cells = sample_admissible(
        lambda: random_cell(space, task.n_qubits, rng, layer_budget, constraint),
        budget_evals, max_tries=200)
    if not cells:
        raise RuntimeError("random search found no admissible cell")
    scored = [score_cell(cell, task, opt_budget, np.random.default_rng([seed, 0xEC, i]))
              for i, cell in enumerate(cells)]
    return scored[select_best(scored)], scored
