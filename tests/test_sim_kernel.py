"""The compiled gate kernel behind every simulation entry point.

Two kinds of check:

* property tests against an independent oracle: full unitaries assembled with
  `np.kron` from textbook gate matrices (reference.py), never from the
  simulator's matrices;
* bit-exactness against a plain per-gate reference kept here: `np.moveaxis`
  around each gate and the matrix rebuilt by reference.py's
  `exact_gate_matrix` on every call.  A compiled circuit must reproduce it bit
  for bit, so seeded searches compute the same numbers as the per-gate
  algorithm.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import UNBOUNDED, exact_gate_matrix, oracle_unitary, same_bits

from qcas import tasks
from qcas.cell import build_vocab, cell_to_circuit, random_cell
from qcas import sim
from qcas.sim import (
    GATE_KINDS,
    SPACE_GENERIC,
    Circuit,
    apply_circuit_columns,
    circuit_unitary,
    gate,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# ---------------------------------------------------------------------------
# Per-gate reference: the moveaxis algorithm with matrices built per call
# ---------------------------------------------------------------------------


def reference_columns(circuit, theta, columns):
    n = circuit.n_qubits
    batch = columns.shape[1]
    tensor = np.ascontiguousarray(columns, dtype=complex).reshape((2,) * n + (batch,))
    angles = iter(theta)  # theta binds to the parametric gates in gate order
    for g in circuit.gates:
        angle = next(angles) if g.kind.param_count else None
        k = len(g.targets)
        moved = np.moveaxis(tensor, g.targets, range(k))
        mat = exact_gate_matrix(g.kind.tag, angle)
        out = (mat @ moved.reshape(2**k, -1)).reshape(moved.shape)
        tensor = np.moveaxis(out, range(k), g.targets)
    return tensor.reshape(2**n, batch)


def reference_training_cost(task, circuit, theta):
    """QaeTask cost with the per-gate simulator over every training column.
    Trash mode: the |0...0> trash component of a column is its rows whose
    last n_trash bits are all 0.  Local mode: one minus the mean, over
    columns and trash qubits, of the qubit's |0> population."""
    encoded = reference_columns(circuit, np.asarray(theta, dtype=float), task.train_cols)
    if task.cost_mode == "local":
        n = task.n_qubits
        rows = np.arange(2**n)
        pops = [np.sum(np.abs(encoded[(rows >> (n - 1 - q)) & 1 == 0]) ** 2, axis=0)
                for q in range(n - task.n_trash, n)]
        return 1.0 - float(np.mean(np.mean(pops, axis=0)))
    proj = encoded[::2**task.n_trash]
    return float(np.mean(1.0 - np.sum(np.abs(proj) ** 2, axis=0)))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def gate_specs(draw, n, tags):
    tag = draw(st.sampled_from(tags))
    order = draw(st.permutations(range(n)))
    return tag, tuple(order[:GATE_KINDS[tag].arity])


def build_circuit(n, specs):
    return Circuit(n, [gate(tag, *targets) for tag, targets in specs])


@st.composite
def circuits(draw, widths=st.integers(1, 5), max_gates=10):
    n = draw(widths)
    tags = sorted(t for t, k in GATE_KINDS.items() if k.arity <= n)
    specs = draw(st.lists(gate_specs(n, tags), max_size=max_gates))
    circuit = build_circuit(n, specs)
    theta = np.array(draw(st.lists(ANGLES, min_size=circuit.n_params,
                                   max_size=circuit.n_params)), dtype=float)
    return circuit, theta


def random_columns(n, batch, seed):
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(2**n, batch)) + 1j * rng.normal(size=(2**n, batch))
    return cols / np.linalg.norm(cols, axis=0)


# ---------------------------------------------------------------------------
# Property tests against the kron oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", sorted(GATE_KINDS))
@PROPERTY
@given(data=st.data())
def test_each_gate_kind_matches_kron_oracle(tag, data):
    arity = GATE_KINDS[tag].arity
    n = data.draw(st.integers(arity, 5), label="width")
    targets = tuple(data.draw(st.permutations(range(n)), label="order")[:arity])
    circuit = build_circuit(n, [(tag, targets)])
    theta = np.array([data.draw(ANGLES, label="theta")] * circuit.n_params)
    cols = random_columns(n, data.draw(st.integers(1, 7), label="batch"),
                          data.draw(st.integers(0, 2**32 - 1), label="seed"))
    out = apply_circuit_columns(circuit, theta, cols)
    assert np.max(np.abs(out - oracle_unitary(circuit, theta) @ cols)) < 1e-12


@PROPERTY
@given(case=circuits(), batch=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_random_circuits_match_kron_oracle(case, batch, seed):
    circuit, theta = case
    cols = random_columns(circuit.n_qubits, batch, seed)
    out = apply_circuit_columns(circuit, theta, cols)
    assert np.max(np.abs(out - oracle_unitary(circuit, theta) @ cols)) < 1e-10


@PROPERTY
@given(case=circuits(), seed=st.integers(0, 2**32 - 1))
def test_entry_points_agree(case, seed):
    circuit, theta = case
    n = circuit.n_qubits
    state = random_columns(n, 1, seed)
    stepped = state
    angles = iter(theta)
    for g in circuit.gates:  # one one-gate circuit per gate
        one_theta = [next(angles) for _ in range(g.kind.param_count)]
        stepped = apply_circuit_columns(Circuit(n, [g]), one_theta, stepped)
    whole = apply_circuit_columns(circuit, theta, state)
    assert same_bits(stepped, whole)
    via_unitary = circuit_unitary(circuit, theta) @ state
    assert np.max(np.abs(whole - via_unitary)) < 1e-12


@PROPERTY
@given(case=circuits(widths=st.integers(2, 5)), other=st.lists(ANGLES, min_size=20,
                                                               max_size=20),
       seed=st.integers(0, 2**32 - 1))
def test_reused_circuit_matches_fresh_circuits(case, other, seed):
    """theta1, theta2, theta1 on one circuit object (whose compiled parameter
    buffer is refilled each time) equals a fresh circuit per evaluation."""
    circuit, theta1 = case
    theta2 = np.array(other[:circuit.n_params])
    cols = random_columns(circuit.n_qubits, 3, seed)
    for theta in (theta1, theta2, theta1):
        fresh = Circuit(circuit.n_qubits, list(circuit.gates))
        assert same_bits(apply_circuit_columns(circuit, theta, cols),
                         apply_circuit_columns(fresh, theta, cols))


def test_copied_circuits_keep_working():
    rng = np.random.default_rng(3)
    circuit = build_circuit(3, [("RX", (0,)), ("CRY", (2, 0)), ("RZ", (1,)), ("CNOT", (1, 2))])
    cols = random_columns(3, 4, 1)
    apply_circuit_columns(circuit, rng.uniform(-3, 3, 3), cols)  # compile
    theta = rng.uniform(-3, 3, 3)
    expected = reference_columns(circuit, theta, cols)
    for clone in (copy.deepcopy(circuit), pickle.loads(pickle.dumps(circuit))):
        assert clone == circuit
        assert same_bits(apply_circuit_columns(clone, theta, cols), expected)
    assert repr(circuit) == repr(Circuit(3, list(circuit.gates)))


def test_compiled_circuit_cannot_be_edited():
    """A circuit is an immutable value, so its compiled steps cannot go stale:
    a gate list the constructor rejects (a target out of range) cannot reach
    the kernel by editing a compiled circuit."""
    circuit = build_circuit(2, [("RX", (0,)), ("RY", (1,))])
    cols = random_columns(2, 3, 11)
    theta = np.array([0.4, -1.3])
    expected = apply_circuit_columns(circuit, theta, cols)  # compile
    swapped = [gate("RY", 0), gate("RX", 1)]
    with pytest.raises(TypeError):
        circuit.gates[1] = swapped[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        circuit.gates = swapped
    with pytest.raises(AttributeError):
        circuit.gates.append(gate("CNOT", 0, 5))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, [gate("CNOT", 0, 5)])
    assert len(circuit.steps) == len(circuit.gates)  # one step per gate
    assert same_bits(apply_circuit_columns(circuit, theta, cols), expected)
    # the compiled steps are no field: equality and hash are the gate list's
    fresh = Circuit(2, list(circuit.gates))
    assert fresh == circuit and hash(fresh) == hash(circuit)


def test_theta_length_checked():
    circuit = build_circuit(2, [("RX", (0,)), ("CRZ", (0, 1))])
    with pytest.raises(ValueError,
                       match=r"^theta has shape \(1,\), but the circuit has 2 parameters$"):
        apply_circuit_columns(circuit, np.zeros(1), np.eye(4))


# ---------------------------------------------------------------------------
# Bit-exactness against the per-gate reference
# ---------------------------------------------------------------------------


def every_kind_circuit(n, extra, rng):
    """Every gate kind at least once, then `extra` random gates, shuffled."""
    kinds = list(GATE_KINDS)
    tags = kinds + [kinds[i] for i in rng.integers(len(kinds), size=extra)]
    rng.shuffle(tags)
    specs = [(tag, tuple(int(q) for q in rng.choice(n, GATE_KINDS[tag].arity, replace=False)))
             for tag in tags]
    return build_circuit(n, specs)


def test_plan_matrices_are_bit_identical_to_gate_kind_matrix():
    tags = sorted(t for t, k in GATE_KINDS.items() if k.param_count)
    circuit = build_circuit(2, [(t, (0,) if GATE_KINDS[t].arity == 1 else (1, 0)) for t in tags])
    for angle in (0.0, -0.0, 0.7, -2.9, math.pi, 1e-300):
        theta = np.full(circuit.n_params, angle)
        circuit.bind(theta)
        for g, angle_k, (_perm, _dim, mat) in zip(circuit.gates, theta, circuit.steps):
            assert same_bits(mat, exact_gate_matrix(g.kind.tag, angle_k))


@pytest.mark.parametrize("n", [3, 5])
def test_compiled_path_is_bit_identical_to_per_gate_reference(n):
    rng = np.random.default_rng([n, 2024])
    for _ in range(20):
        circuit = every_kind_circuit(n, 10, rng)
        cols = random_columns(n, int(rng.integers(1, 101)), int(rng.integers(2**32)))
        for theta in (rng.uniform(-7, 7, circuit.n_params), np.zeros(circuit.n_params),
                      -np.zeros(circuit.n_params), rng.uniform(-7, 7, circuit.n_params)):
            assert same_bits(apply_circuit_columns(circuit, theta, cols),
                             reference_columns(circuit, theta, cols))


def _denoise_task():
    return tasks.make_denoise_task(tasks.gen_noise_dataset("bitflip", seed=5))


# Under qdc noise the distinct columns are not a multiple of 4 in number; at
# these seeds, simulating them without padding changes a cost's last bit.
def _qdc_task():
    return tasks.make_denoise_task(tasks.gen_noise_dataset("qdc", seed=36))


def _qdc_local_task():
    return tasks.make_denoise_task(tasks.gen_noise_dataset("qdc", seed=2), cost_mode="local")


def _digits_task():
    return tasks.make_image_task(tasks.gen_digits(seed=5), n_trash=1, seed=5)[0]


@pytest.mark.parametrize("make_task,kind", [(_denoise_task, "denoise"), (_qdc_task, "denoise"),
                                            (_qdc_local_task, "denoise"), (_digits_task, "image")],
                         ids=["denoise", "qdc", "qdc-local", "digits"])
def test_task_scores_are_bit_identical_to_per_gate_reference(make_task, kind, monkeypatch):
    """Costs and validation scores equal the per-gate reference run on every
    column of the task's sets, so simulating only the distinct columns
    changes no bit."""
    task = make_task()
    rng = np.random.default_rng(17)
    circuits = [tasks.baseline_circuit(kind, task.n_qubits)] + [
        cell_to_circuit(random_cell(build_vocab(SPACE_GENERIC), task.n_qubits, rng, 3, UNBOUNDED))
        for _ in range(8)]
    cases = [(c, rng.uniform(-math.pi, math.pi, c.n_params)) for c in circuits]

    compiled = [(task.training_cost(c, th), task.validation_score(c, th)) for c, th in cases]
    monkeypatch.setattr(tasks, "apply_circuit_columns", reference_columns)
    for (circuit, theta), (cost, score) in zip(cases, compiled):
        assert cost == reference_training_cost(task, circuit, theta)
        assert score == float(np.mean(tasks.batch_reconstruction_fidelity(
            circuit, theta, task.val_cols, task.n_trash, target=task.val_target)))


# ---------------------------------------------------------------------------
# Memoised kernel steps
# ---------------------------------------------------------------------------


def reference_kernel_steps(n_qubits, gates):
    """The (perm, dim) of each gate's kernel step and the restoring
    permutation, worked out gate by gate without a cache."""
    axes = range(n_qubits + 1)
    where = list(axes)
    steps = []
    for g in gates:
        order = g.targets + tuple(a for a in axes if a not in g.targets)
        steps.append((tuple([where[a] for a in order]), 2 ** len(g.targets)))
        for i, a in enumerate(order):
            where[a] = i
    return steps, tuple(where)


@PROPERTY
@given(data=st.data())
def test_memoised_kernel_steps_equal_uncached(data):
    n = data.draw(st.integers(1, 6), label="width")
    tags = sorted(t for t, k in GATE_KINDS.items() if k.arity <= n)
    gates = build_circuit(n, data.draw(st.lists(gate_specs(n, tags), max_size=12),
                                       label="gates")).gates
    circuit = Circuit(n, gates)
    want_steps, want_restore = reference_kernel_steps(n, gates)
    assert circuit.restore == want_restore
    assert [(perm, dim) for perm, dim, _ in circuit.steps] == want_steps


def test_kernel_step_cache_is_bounded():
    info = sim._kernel_step.cache_info()
    assert info.maxsize is not None
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        Circuit(n, [gate("CNOT", *rng.permutation(n)[:2].tolist()) for _ in range(5)])
    assert sim._kernel_step.cache_info().currsize <= info.maxsize
