"""Benchmark tasks: dataset generators, cost functions, baseline circuits and
evaluation protocols for denoising, image compression, pure-state compression
and unitary regeneration.  This module owns what a task kind of a run config
is: `TASK_KINDS` and `TaskConfig` say which keys each kind reads, and
`build_task` builds a kind's task with its test protocol and dataset
document; `default_space` is the gate space a kind searches when the config
names none.

Tasks expose `training_cost(circuit, theta)` (minimizable, in [0, 1]) and
`validation_score(circuit, theta)` (higher is better); the search algorithms
only rely on this surface.  An autoencoder task simulates each distinct
column of its data once and gathers the values back to the whole set; the
count is padded to a multiple of 4 columns, on which OpenBLAS's zgemm rounds
every column alike, so each value is the whole batch's bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

# `metrics` and `eval_soft_constraint` stay importable here: perfbench/tracing.py
# wraps tasks.metrics and tasks.eval_soft_constraint (tests/test_surface.py allows them).
from .cell import (SoftConstraint, eval_soft_constraint, metrics,  # noqa: F401
                   random_cell, sample_admissible, select_best)
from .optim import Draws, OptBudget, check_choice, check_int, check_range, score_cell, stream
from .sim import (SPACE_CLIFFORD, SPACE_GENERIC, SPACE_SINGLE_CLIFFORD, Circuit,
                  amplitude_encode, apply_circuit_columns, basis_state, circuit_unitary, gate,
                  ghz_state)

DEFAULT_P_GRID = tuple(round(0.1 * k, 1) for k in range(11))
NOISE_KINDS = ("bitflip", "qdc")
COST_MODES = ("trash", "local")
TASK_KINDS = {  # the `TaskConfig` fields each task kind reads, besides its kind
    "denoise": ("noise", "cost_mode"),
    "image": ("dataset", "n_trash", "cost_mode"),
    "state_compress": ("cost_mode",),
    "unitary_regen": ("n_qubits", "subtask", "layers"),
}


# ---------------------------------------------------------------------------
# Batched QAE evaluation helpers
# ---------------------------------------------------------------------------


def _to_trash_major(cols: np.ndarray, n_trash: int) -> np.ndarray:
    """(2^n, B) columns -> (2^(n - n_trash), 2^n_trash, B): the trash qubits
    are the last n_trash, so their index is the fastest-varying one."""
    return cols.reshape(cols.shape[0] >> n_trash, 2**n_trash, cols.shape[1])


def _distinct_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of `cols` by their bits, padded by repeats to a
    multiple of 4, as one C-contiguous array; and the index that rebuilds `cols`."""
    slots = {}  # column bytes -> slot, in order of first appearance
    index = np.array([slots.setdefault(col.tobytes(), len(slots)) for col in cols.T])
    firsts = np.unique(index, return_index=True)[1]
    return np.ascontiguousarray(cols[:, np.resize(firsts, -(-len(firsts) // 4) * 4)]), index


def batch_trash_fidelity(encoded_cols: np.ndarray, n_trash: int) -> np.ndarray:
    """Per-column <0...0| Tr_A[|psi><psi|] |0...0> for pure encoded columns."""
    m = _to_trash_major(encoded_cols, n_trash)
    return (np.abs(m[:, 0, :]) ** 2).sum(axis=0)


def batch_reconstruction_fidelity(circuit: Circuit, theta, cols: np.ndarray, n_trash: int,
                                  target: np.ndarray | None = None) -> np.ndarray:
    """Round-trip fidelity per column, against `target` or each input itself:
    encode, reset the last n_trash qubits to |0...0>, decode.

    Uses F = || M_psi^dag w ||^2 with M the latent-by-trash reshaping of the
    encoded state and w the |0...0>-projected encoded comparison state.
    """
    encoded = apply_circuit_columns(circuit, theta, cols)
    m = _to_trash_major(encoded, n_trash)
    if target is not None:
        phi = apply_circuit_columns(circuit, theta, target[:, None])
        w = _to_trash_major(phi, n_trash)[:, 0, 0]  # (dim_A,)
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
    clean: np.ndarray  # the GHZ state


def _noisy_ghz_columns(kind: str, n_qubits: int, p: float, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """`count` copies of the GHZ state, with one draw per qubit of each copy
    in copy-major order: "bitflip" applies X with probability p, "qdc" one
    of I, X, Y, Z with probabilities 1 - 3p/4, p/4, p/4, p/4.

    X and Y on qubit q move amplitude i to i ^ 2^(n-1-q), so each column is
    the clean vector indexed by idx ^ mask.  Y then multiplies an amplitude
    by i or -i as its source bit on q is 0 or 1, and Z by 1 or -1.  Only
    nonzero amplitudes are multiplied, so every zero stays +0.0: at 3
    qubits that is the per-copy Pauli circuit's output bit for bit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    clean = ghz_state(n_qubits)
    weights = 1 << np.arange(n_qubits - 1, -1, -1)
    index = np.arange(2**n_qubits)[:, None]
    if kind == "bitflip":
        return clean[index ^ ((rng.random((count, n_qubits)) < p) @ weights)]
    picks = rng.choice(4, size=(count, n_qubits),
                       p=[1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])
    source = index ^ (((picks == 1) | (picks == 2)) @ weights)
    y, ones = picks == 2, (source[:, :, None] & weights) != 0
    quarter_turns = (y.sum(axis=1) + 2 * ((y | (picks == 3)) & ones).sum(axis=2)) % 4
    cols = clean[source]
    return np.where(cols != 0, cols * np.array([1, 1j, -1, -1j])[quarter_turns], cols)


def gen_noise_dataset(kind: str, n_qubits: int = 3, seed: int = 0,
                      p_train: float = 0.2, n_train: int = 100, n_val: int = 100,
                      n_test: int = 200, p_grid=DEFAULT_P_GRID) -> NoiseDataset:
    if kind not in NOISE_KINDS:
        raise ValueError(f"unsupported noise kind {kind!r}")
    rng = stream(seed, "data.noise")
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
    rng = stream(seed, "data.digits")
    images, labels = [], []
    for i in range(count):
        digit = "0" if i % 2 == 0 else "1"
        images.append(_fill_mask(_DIGIT_MASKS[digit], rng))
        labels.append(int(digit))
    return ImageDataset("Digits", np.array(images), np.array(labels))


def gen_tetris(seed: int = 0, count: int = 500) -> ImageDataset:
    rng = stream(seed, "data.tetris")
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
    return int(math.log2(len(amplitude_encode(IMAGE_DATASETS[dataset](count=1).images[0]))))


def encode_images(images: np.ndarray) -> np.ndarray:
    """Amplitude-encode each image into a column of a (2^n, count) matrix."""
    states = [amplitude_encode(img) for img in images]
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
    rng = stream(seed, "data.state_compress")
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
    evolved: np.ndarray  # the circuit's image of |0...0>


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
    rng = stream(seed, "data.regen_targets")
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
        targets.append(HiddenTarget(circuit, circuit_unitary(circuit)[:, 0]))
    return targets


# ---------------------------------------------------------------------------
# Task specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QaeTask:
    """Autoencoder task over fixed train/validation state columns.  The
    trash qubits are the last `n_trash`; a round trip resets them to |0...0>.
    The costs simulate the distinct columns of each set, found here and padded
    to a multiple of 4 (module docstring), and gather their values back to
    the whole set before the same mean."""

    n_qubits: int
    n_trash: int
    train_cols: np.ndarray
    val_cols: np.ndarray
    cost_mode: str = "trash"  # one of COST_MODES
    val_target: np.ndarray | None = None  # compare round-trips to this state

    def __post_init__(self):
        check_choice("cost_mode", self.cost_mode, COST_MODES)
        check_range("n_trash", self.n_trash, 1, self.n_qubits - 1)
        object.__setattr__(self, "_train", _distinct_columns(self.train_cols))
        object.__setattr__(self, "_val", _distinct_columns(self.val_cols))

    def training_cost(self, circuit: Circuit, theta) -> float:
        cols, index = self._train
        encoded = apply_circuit_columns(circuit, theta, cols)
        if self.cost_mode == "local":
            return 1.0 - float(np.mean(self._local_populations(encoded)[index]))
        f = batch_trash_fidelity(encoded, self.n_trash)[index]
        return float((1.0 - f).sum()) / f.size  # np.mean's own sum and division

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
        cols, index = self._val
        f = batch_reconstruction_fidelity(circuit, theta, cols, self.n_trash,
                                          target=self.val_target)
        return float(np.mean(f[index]))


@dataclass(frozen=True)
class UnitaryRegenTask:
    """Match the state evolved by a hidden unitary from |0...0>."""

    target: HiddenTarget

    def __post_init__(self):
        object.__setattr__(self, "_zero", basis_state(self.n_qubits)[:, None])

    @property
    def n_qubits(self) -> int:
        return self.target.circuit.n_qubits

    def training_cost(self, circuit: Circuit, theta) -> float:
        generated = apply_circuit_columns(circuit, theta, self._zero)[:, 0]
        return 1.0 - float(abs(np.vdot(generated, self.target.evolved)) ** 2)

    def validation_score(self, circuit: Circuit, theta) -> float:
        return 1.0 - self.training_cost(circuit, theta)


def make_denoise_task(dataset: NoiseDataset, cost_mode: str = "trash") -> QaeTask:
    return QaeTask(dataset.n_qubits, dataset.n_qubits - 1, dataset.train, dataset.val,
                   cost_mode=cost_mode, val_target=dataset.clean)


def make_image_task(dataset: ImageDataset, n_trash: int = 1, seed: int = 0,
                    train_frac: float = 0.6, val_frac: float = 0.2,
                    cost_mode: str = "trash"):
    """Amplitude-encode the images and split into train/val/test columns."""
    cols = encode_images(dataset.images)
    n_qubits = int(math.log2(cols.shape[0]))
    count = cols.shape[1]
    rng = stream(seed, "data.image_split")
    order = rng.permutation(count)
    n_train = int(train_frac * count)
    n_val = int(val_frac * count)
    train = cols[:, order[:n_train]]
    val = cols[:, order[n_train:n_train + n_val]]
    test = cols[:, order[n_train + n_val:]]
    task = QaeTask(n_qubits, n_trash, train, val, cost_mode=cost_mode)
    return task, test


# ---------------------------------------------------------------------------
# Evaluation protocols and baselines
# ---------------------------------------------------------------------------


def evaluate_qae_test(circuit: Circuit, theta, task: QaeTask, test_cols: np.ndarray):
    """(mean, std) of the round-trip fidelity of `test_cols`, against the
    task's target if it has one."""
    f = batch_reconstruction_fidelity(circuit, theta, test_cols, task.n_trash,
                                      target=task.val_target)
    return float(np.mean(f)), float(np.std(f))


def baseline_circuit(kind: str, n_qubits: int) -> Circuit:
    """Hand-designed reference encoder for a QAE task kind of the config."""
    n = n_qubits
    if kind == "denoise":  # 8 alternating blocks -> 48 parameters on 3 qubits
        block = [gate("RZ", q) for q in range(n)] + [gate("CRX", q, (q + 1) % n) for q in range(n)]
        return Circuit(n, block * 8)
    if kind in ("image", "state_compress"):
        block = [gate("RY", q) for q in range(n)] + [gate("CNOT", q, q + 1) for q in range(n - 1)]
        return Circuit(n, block * 5)
    raise ValueError(f"no baseline defined for task kind {kind!r}")


# ---------------------------------------------------------------------------
# Task kinds of a run config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskConfig:
    """The task section of a run config.  A kind reads only the fields that
    `TASK_KINDS` lists for it; any other field must keep its default."""

    kind: str | None = None
    noise: str = "bitflip"
    dataset: str = "digits"
    n_trash: int = 1
    n_qubits: int = 3
    subtask: str = "dense"
    layers: int = 3
    cost_mode: str = "trash"

    def __post_init__(self):
        for name, choices in (("kind", TASK_KINDS), ("noise", NOISE_KINDS),
                              ("dataset", IMAGE_DATASETS), ("subtask", SUBTASK_CNOT_PROB),
                              ("cost_mode", COST_MODES)):
            check_choice(name, getattr(self, name), choices)
        read = ("kind",) + TASK_KINDS[self.kind]
        for f in fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ValueError(f"{f.name} is not read by task kind {self.kind!r}")
        if self.kind == "image":
            check_range("n_trash", self.n_trash, 1, image_qubits(self.dataset) - 1)
        elif self.kind == "unitary_regen":
            check_range("n_qubits", self.n_qubits, *REGEN_QUBITS)
            check_range("layers", self.layers, *REGEN_LAYERS)


def default_space(task_cfg: dict) -> frozenset:
    """The gate space a task kind searches when the config names none, as the
    `SPACE_*` set it is; `build_vocab` orders it."""
    if task_cfg["kind"] == "unitary_regen":
        return SPACE_SINGLE_CLIFFORD if task_cfg["subtask"] == "single" else SPACE_CLIFFORD
    return SPACE_GENERIC


@dataclass
class BuiltTask:
    task: object
    evaluate: object  # record-ready test metrics for (circuit, theta)
    dataset: object  # () -> JSON document of the dataset the task is built from


def build_task(task_cfg: dict, seed: int) -> BuiltTask:
    """The task of a config's task section at a seed, with its test protocol
    and its dataset document; searches, `eval` and `gen-data` all take their
    task from here, so they always see the same dataset."""
    kind = task_cfg["kind"]
    if kind == "denoise":
        dataset = gen_noise_dataset(task_cfg["noise"], seed=seed)
        task = make_denoise_task(dataset, cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            return {"per_p": {str(p): list(evaluate_qae_test(circuit, theta, task, cols))
                              for p, cols in sorted(dataset.test.items())}}

        return BuiltTask(task, evaluate, lambda: {
            "noise": dataset.kind, "p_train": dataset.p_train,
            "train": _cols_to_list(dataset.train), "val": _cols_to_list(dataset.val),
            "test": {str(p): _cols_to_list(c) for p, c in sorted(dataset.test.items())}})
    if kind == "image":
        images = IMAGE_DATASETS[task_cfg["dataset"]](seed)
        task, test_cols = make_image_task(images, n_trash=task_cfg["n_trash"], seed=seed,
                                          cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            mean, std = evaluate_qae_test(circuit, theta, task, test_cols)
            return {"test_mean_fidelity": mean, "test_std_fidelity": std}

        return BuiltTask(task, evaluate, lambda: {
            "name": images.name, "images": images.images.tolist(),
            "labels": images.labels.tolist()})
    if kind == "state_compress":
        dataset = gen_state_compress_dataset(seed)
        # the dataset has no validation split: the test states select the cell
        task = QaeTask(4, 2, dataset.train, dataset.test, cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            mean, std = evaluate_qae_test(circuit, theta, task, dataset.test)
            return {"test_mean_fidelity": mean, "test_std_fidelity": std,
                    "test_logfidelity": logfidelity(mean)}

        return BuiltTask(task, evaluate, lambda: {
            "train": _cols_to_list(dataset.train), "test": _cols_to_list(dataset.test)})
    # unitary_regen
    target = gen_hidden_targets(task_cfg["n_qubits"], task_cfg["subtask"],
                                task_cfg["layers"], 1, seed)[0]
    task = UnitaryRegenTask(target)

    def evaluate(circuit, theta):
        loss = task.training_cost(circuit, theta)
        return {"loss": loss, "fidelity": 1.0 - loss}

    return BuiltTask(task, evaluate, lambda: {
        "targets": [_cols_to_list(target.evolved[:, None])]})


def _cols_to_list(cols: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in col] for col in np.asarray(cols).T]


# ---------------------------------------------------------------------------
# Random-search baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RsConfig:
    """The rs section of a run config: the random-search baseline's number
    of scored cells and the layer budget of each."""

    budget_evals: int = 30
    layer_budget: int = 2

    def __post_init__(self):
        check_int("budget_evals", self.budget_evals, 1)
        check_int("layer_budget", self.layer_budget, 1)


def random_search(task, vocab, budget_evals: int, constraint: SoftConstraint,
                  seed: int, layer_budget: int, opt_budget: OptBudget):
    """Independent random cells of `vocab`'s kinds within `constraint`, best
    kept; serves as the RS baseline and the RELM random initializer.  Returns
    (best, all) `Scored` entries."""
    rng = Draws(stream(seed, "rs.sample"))
    cells = sample_admissible(
        lambda: random_cell(vocab, task.n_qubits, rng, layer_budget, constraint),
        budget_evals, max_tries=200)
    if not cells:
        raise RuntimeError("random search found no admissible cell")
    scored = [score_cell(cell, task, opt_budget, functools.partial(stream, seed, "rs.fit", i))
              for i, cell in enumerate(cells)]
    return scored[select_best(scored)], scored
