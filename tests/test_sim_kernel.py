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
import re

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

# the gates a compiled circuit folds into row orders instead of multiplying
PERMUTATION_TAGS = ("I", "X", "CNOT")

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
    circuit = build_circuit(2, [("RX", (0,)), ("RY", (1,)), ("CNOT", (0, 1))])
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
    # one step per gate that is not I, X or CNOT
    assert len(circuit.steps) == sum(g.kind.tag not in PERMUTATION_TAGS for g in circuit.gates)
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
    # each parametric gate follows a folded gate and a fixed one, so its step
    # is picked out by position among the steps of gates that are not folded
    tags = sorted(t for t, k in GATE_KINDS.items() if k.param_count)
    specs = [spec for t in tags for spec in (("CNOT", (0, 1)), ("H", (1,)),
                                             (t, (0,) if GATE_KINDS[t].arity == 1 else (1, 0)))]
    circuit = build_circuit(2, specs)
    stepped = [g for g in circuit.gates if g.kind.tag not in PERMUTATION_TAGS]
    param_steps = [(g, step[2]) for g, step in zip(stepped, circuit.steps, strict=True)
                   if g.kind.param_count]
    assert [g.kind.tag for g, _ in param_steps] == tags
    for angle in (0.0, -0.0, 0.7, -2.9, math.pi, 1e-300):
        theta = np.full(circuit.n_params, angle)
        circuit.bind(theta)
        for (g, mat), angle_k in zip(param_steps, theta, strict=True):
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
# Row orders and folded gates
# ---------------------------------------------------------------------------

def textbook_image(tag, targets, j, n):
    """The basis state that the permutation gate `tag` on `targets` maps
    basis state j to: X flips its target, CNOT flips its target when its
    control is 1, I keeps j."""
    bit = [1 << (n - 1 - q) for q in targets]
    if tag == "X" or (tag == "CNOT" and j & bit[0]):
        return j ^ bit[-1]
    return j


def reference_kernel_steps(n_qubits, gates):
    """Each step's (rows, dim) and the restoring rows, worked out gate by
    gate without a table.

    where[j] is the row that holds basis state j.  A step puts its target
    bits, in target order, as the high bits of the row and the other qubits,
    ascending, as the low bits; I, X and CNOT make no step and move basis
    state j's amplitude to their image of j."""
    n, size = n_qubits, 2**n_qubits
    where, steps = list(range(size)), []
    for g in gates:
        if g.kind.tag in PERMUTATION_TAGS:
            moved = [0] * size
            for j in range(size):
                moved[textbook_image(g.kind.tag, g.targets, j, n)] = where[j]
            where = moved
            continue
        order = g.targets + tuple(q for q in range(n) if q not in g.targets)
        held = [sum((r >> (n - 1 - i) & 1) << (n - 1 - q) for i, q in enumerate(order))
                for r in range(size)]  # held[r]: the basis state the step's row r holds
        steps.append(([where[j] for j in held], 2 ** len(g.targets)))
        where = [0] * size
        for r, j in enumerate(held):
            where[j] = r
    return steps, where


@st.composite
def folding_circuits(draw):
    """Circuits of 1-6 qubits weighted toward I, X and CNOT, with a run of
    them drawn at the start, in the middle and at the end."""
    n = draw(st.integers(1, 6))
    tags = sorted(t for t, k in GATE_KINDS.items() if k.arity <= n)
    folded = [t for t in PERMUTATION_TAGS if GATE_KINDS[t].arity <= n]
    runs = [draw(st.lists(gate_specs(n, folded), max_size=3)) for _ in range(3)]
    rest = [draw(st.lists(gate_specs(n, tags + folded * 3), max_size=6))
            for _ in range(2)]
    circuit = build_circuit(n, runs[0] + rest[0] + runs[1] + rest[1] + runs[2])
    theta = np.array(draw(st.lists(ANGLES, min_size=circuit.n_params,
                                   max_size=circuit.n_params)), dtype=float)
    return circuit, theta


@PROPERTY
@given(data=st.data())
def test_memoised_kernel_steps_equal_uncached(data):
    """Every compiled step's rows, and the restore, equal the gate-by-gate
    composition; rows are None only when they are in place and the step
    keeps the last step's dim, as for a gate on the last step's targets."""
    circuit, _ = data.draw(folding_circuits(), label="circuit")
    n, size = circuit.n_qubits, 2**circuit.n_qubits
    want_steps, want_restore = reference_kernel_steps(n, circuit.gates)
    assert len(circuit.steps) == len(want_steps)
    pairs = iter(zip(circuit.steps, want_steps))
    last_dim, last_targets, folded = size, None, False
    for g in circuit.gates:
        if g.kind.tag in PERMUTATION_TAGS:
            folded = True
            continue
        (rows, dim, _), (want_rows, want_dim) = next(pairs)
        assert dim == want_dim
        if rows is None:
            assert want_rows == list(range(size)) and dim == last_dim
        else:
            assert rows.tolist() == want_rows
        if g.targets == last_targets and not folded:
            assert rows is None
        last_dim, last_targets, folded = dim, g.targets, False
    restore = list(range(size)) if circuit.restore is None else circuit.restore.tolist()
    assert restore == want_restore


def test_kernel_step_cache_is_bounded():
    """The row-order and gate-permutation tables hold at most `maxsize`
    entries each.  An entry holds 2 (rows, inverse) or 1 array of 2^n row
    indices, so at 10 qubits, the widest hidden target, it is 16 KB or 8 KB,
    and a full table at most maxsize times that."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        tags = rng.choice(["CNOT", "CRX", "X", "H"], 5)
        Circuit(n, [gate(t, *rng.permutation(n)[:GATE_KINDS[t].arity].tolist()) for t in tags])
    entry_bytes = {sim._layout: sum(a.nbytes for a in sim._layout(10, (3, 7))[1:]),
                   sim._relabel: sim._relabel(10, "CNOT", (3, 7)).nbytes}
    assert entry_bytes == {sim._layout: 16384, sim._relabel: 8192}
    for table, nbytes in entry_bytes.items():
        info = table.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.maxsize * nbytes <= 2 * 2**20


def test_tables_are_read_only():
    # the tables' arrays are shared by every circuit compiled from them
    for array in (*sim._layout(3, (1,))[1:], sim._relabel(3, "CNOT", (2, 0))):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def signed_zero_columns(n, batch, seed):
    """Random columns whose real and imaginary parts are each +0.0, -0.0 or
    a normal draw, a third each, so that exact zeros of both signs meet
    every gate."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=(2, 2**n, batch))
    pick = rng.integers(3, size=parts.shape)
    parts = np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, parts))
    return _complex(parts[0], parts[1])


def _complex(re, im):
    # re + 1j * im would turn a -0.0 real part next to im into +0.0
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def fold_inputs(n, batch, seed):
    """Signed-zero random columns, the basis states with +0.0 and with -0.0
    off their one, and the identity that `circuit_unitary` runs on."""
    eye = np.eye(2**n)
    return [signed_zero_columns(n, batch, seed), _complex(eye, np.zeros_like(eye)),
            _complex(np.where(eye == 1, 1.0, -0.0), np.full_like(eye, -0.0))]


def canonical(columns):
    """`columns` with every -0.0 part turned into +0.0, as the kernel returns
    its results."""
    return columns + 0.0


@PROPERTY
@given(case=folding_circuits(), batch=st.sampled_from([1, 2, 5]), seed=st.integers(0, 2**32 - 1))
def test_folded_gates_are_bit_identical_to_per_gate_reference(case, batch, seed):
    """I, X and CNOT fold into row orders, yet every result equals the
    per-gate matmuls bit for bit once zeros are +0.0: the sign of an exact
    zero is all that the order of operations decides.  The caller's columns
    are left as they were."""
    circuit, theta = case
    for cols in fold_inputs(circuit.n_qubits, batch, seed):
        before = cols.copy()
        assert same_bits(apply_circuit_columns(circuit, theta, cols),
                         canonical(reference_columns(circuit, theta, cols)))
        assert same_bits(cols, before)
    eye = np.eye(2**circuit.n_qubits, dtype=complex)
    assert same_bits(circuit_unitary(circuit, theta),
                     canonical(reference_columns(circuit, theta, eye)))


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_only_and_empty_circuits_are_bit_identical(n):
    """Circuits of I, X and CNOT alone make no step, so their result is the
    restored input plus 0.0; the empty circuit's is its input plus 0.0."""
    rng = np.random.default_rng([n, 35])
    tags = [t for t in PERMUTATION_TAGS if GATE_KINDS[t].arity <= n]
    for length in [0, 1, 1, 2, 3, 5, 8]:
        specs = [(tag, tuple(int(q) for q in rng.choice(n, GATE_KINDS[tag].arity, replace=False)))
                 for tag in rng.choice(tags, length)]
        circuit = build_circuit(n, specs)
        assert not circuit.steps
        for batch in (1, 4):
            for cols in fold_inputs(n, batch, int(rng.integers(2**32))):
                assert same_bits(apply_circuit_columns(circuit, (), cols),
                                 canonical(reference_columns(circuit, (), cols)))


@pytest.mark.parametrize("shape", [(4,), (4, 2, 1)])
def test_columns_must_be_a_matrix(shape):
    """A state vector or a 3-D array is no (2^n, batch) matrix, even with
    2^n leading entries."""
    with pytest.raises(ValueError, match=re.escape(
            f"columns have shape {shape}, but a 2-qubit circuit needs a (4, batch) matrix")):
        apply_circuit_columns(build_circuit(2, [("H", (0,))]), (), np.ones(shape, dtype=complex))
