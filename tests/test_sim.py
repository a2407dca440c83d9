"""Simulator primitives (gate application, circuit unitaries, noise channels,
amplitude encoding), the density-matrix reference physics of reference.py,
and the batched QAE costs of `qcas.tasks` checked against that reference.

Oracles used here are built independently of the library code: full unitaries
are kron products of textbook gate matrices, density matrices, partial traces
and the SWAP test are explicit (reference.py), and reduced matrices are
explicit double sums over the traced index.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    DensityMatrix,
    bitflip_noise_circuit,
    density,
    depolarize,
    exact_gate_matrix,
    oracle_unitary,
    partial_trace,
    pauli_channel_apply,
    reconstruction_fidelity,
    state_fidelity,
    swap_test_expectation,
    width,
)

from qcas.sim import (
    Circuit,
    GATE_KINDS,
    amplitude_encode,
    apply_circuit_columns,
    basis_state,
    circuit_unitary,
    gate,
    ghz_state,
)
from qcas.tasks import (QaeTask, batch_reconstruction_fidelity, batch_trash_fidelity,
                        gen_hidden_targets)

RNG = np.random.default_rng(20240817)

PARAM_TAGS = [t for t, k in GATE_KINDS.items() if k.param_count == 1]


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_circuit(n, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        tag = list(GATE_KINDS)[rng.integers(len(GATE_KINDS))]
        kind = GATE_KINDS[tag]
        if kind.arity == 2 and n < 2:
            tag, kind = "H", GATE_KINDS["H"]
        targets = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
        gates.append(gate(tag, *targets))
    return Circuit(n, gates)


def run(state, circuit, theta=()):
    """`state` after `circuit`, run as one column."""
    return apply_circuit_columns(circuit, theta, state[:, None])[:, 0]


def one_gate(state, tag, *targets, angle=None):
    """`state` after one gate, run as a one-gate circuit."""
    circuit = Circuit(width(state), [gate(tag, *targets)])
    return run(state, circuit, () if angle is None else (angle,))


class TestGates:
    def test_x_flips_zero(self):
        out = one_gate(basis_state(1), "X", 0)
        assert np.allclose(out, [0, 1])

    def test_h_makes_plus(self):
        out = one_gate(basis_state(1), "H", 0)
        assert np.allclose(out, [1 / math.sqrt(2)] * 2)

    def test_ry_pi_flips_up_to_phase(self):
        out = one_gate(basis_state(1), "RY", 0, angle=math.pi)
        assert abs(abs(out[1]) - 1.0) < 1e-12

    def test_cnot_completes_bell(self):
        amps = np.zeros(4)
        amps[0] = amps[2] = 1 / math.sqrt(2)  # (|00> + |10>)/sqrt(2)
        out = one_gate(amps.astype(complex), "CNOT", 0, 1)
        expected = np.zeros(4)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.allclose(out, expected)

    def test_all_gate_matrices_unitary(self):
        # the simulator's fixed matrices and the reference's rotations
        for tag, kind in GATE_KINDS.items():
            mat = exact_gate_matrix(tag, 0.7 if kind.param_count else None)
            assert mat.shape == (2**kind.arity,) * 2
            assert np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-12)

    def test_norm_preserved_under_many_gates(self):
        state = random_state(3, RNG)
        for _ in range(200):
            tag = PARAM_TAGS[RNG.integers(len(PARAM_TAGS))]
            kind = GATE_KINDS[tag]
            targets = tuple(int(q) for q in RNG.choice(3, size=kind.arity, replace=False))
            state = one_gate(state, tag, *targets, angle=float(RNG.uniform(-math.pi, math.pi)))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        state = random_state(3, RNG)
        out = run(state, Circuit(3))
        assert np.allclose(out, state)

    def test_ghz_preparation(self):
        circ = Circuit(3, [gate("H", 0), gate("CNOT", 0, 1), gate("CNOT", 1, 2)])
        out = run(basis_state(3), circ)
        assert abs(np.vdot(out, ghz_state(3))) ** 2 > 1.0 - 1e-12

    def test_matches_kron_oracle(self):
        circ = random_circuit(4, 20, RNG)
        theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
        state = random_state(4, RNG)
        out = run(state, circ, theta)
        expected = oracle_unitary(circ, theta) @ state
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^columns have 4 rows, but a 3-qubit circuit "
                                             "needs 8$"):
            run(basis_state(2), Circuit(3))


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4))

    def test_single_hadamard(self):
        u = circuit_unitary(Circuit(1, [gate("H", 0)]))
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(u, expected, atol=1e-12)

    def test_unitarity_of_random_circuits(self):
        for _ in range(5):
            circ = random_circuit(3, 15, RNG)
            theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
            u = circuit_unitary(circ, theta)
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-9

    def test_batched_columns_match_per_state_runs(self):
        circ = random_circuit(3, 12, RNG)
        theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
        cols = np.column_stack([random_state(3, RNG) for _ in range(6)])
        batched = apply_circuit_columns(circ, theta, cols)
        for i in range(6):
            single = run(cols[:, i], circ, theta)
            assert np.allclose(batched[:, i], single, atol=1e-10)


class TestFidelities:
    def test_uhlmann_self_fidelity(self):
        state = random_state(2, RNG)
        rho = density(state)
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_uhlmann_pure_vs_mixed(self):
        rho = density(basis_state(1))
        mixed = DensityMatrix(1, np.eye(2) / 2)
        assert state_fidelity(rho, mixed) == pytest.approx(0.5, abs=1e-9)

    def test_uhlmann_reduces_to_pure_overlap(self):
        for _ in range(20):
            a, b = random_state(2, RNG), random_state(2, RNG)
            f_pure = abs(np.vdot(a, b)) ** 2
            f_mixed = state_fidelity(density(a), density(b))
            assert abs(f_pure - f_mixed) < 1e-9

    def test_uhlmann_symmetric(self):
        a = depolarize(density(random_state(2, RNG)), 0.3)
        b = depolarize(density(random_state(2, RNG)), 0.6)
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-9)


class TestPartialTrace:
    def test_product_state(self):
        plus = one_gate(basis_state(1), "H", 0)
        amps = np.kron(basis_state(1), plus)
        reduced = partial_trace(density(amps), (0,))
        assert np.allclose(reduced.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        # exact-arithmetic form of the Bell density matrix: corners 1/2
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
        for keep in ((0,), (1,)):
            reduced = partial_trace(DensityMatrix(2, rho), keep)
            assert np.array_equal(reduced.entries, np.eye(2) / 2)
        bell = run(basis_state(2), Circuit(2, [gate("H", 0), gate("CNOT", 0, 1)]))
        reduced = partial_trace(density(bell), (0,))
        assert np.max(np.abs(reduced.entries - np.eye(2) / 2)) < 1e-15

    def test_matches_index_summation_oracle(self):
        state = random_state(3, RNG)
        rho = density(state)
        reduced = partial_trace(rho, (0, 2))
        # oracle: explicit double sum over the traced middle qubit
        expected = np.zeros((4, 4), dtype=complex)
        for a0 in range(2):
            for a2 in range(2):
                for b0 in range(2):
                    for b2 in range(2):
                        total = 0.0
                        for m in range(2):
                            i = (a0 << 2) | (m << 1) | a2
                            j = (b0 << 2) | (m << 1) | b2
                            total += rho.entries[i, j]
                        expected[(a0 << 1) | a2, (b0 << 1) | b2] = total
        assert np.max(np.abs(reduced.entries - expected)) < 1e-10

    def test_trace_preserved(self):
        rho = depolarize(density(random_state(3, RNG)), 0.4)
        reduced = partial_trace(rho, (1,))
        assert np.trace(reduced.entries).real == pytest.approx(1.0, abs=1e-10)


def qae_task(n_trash, states, cost_mode="trash"):
    cols = np.column_stack(states)
    return QaeTask(width(states[0]), n_trash, cols, cols, cost_mode=cost_mode)


class TestTrashCost:
    """`QaeTask.training_cost`, the trash cost of every search."""

    def test_identity_circuit_zero_cost(self):
        cost = qae_task(1, [basis_state(3)]).training_cost(Circuit(3), ())
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_trash_full_cost(self):
        noisy = one_gate(basis_state(3), "X", 2)
        cost = qae_task(1, [noisy]).training_cost(Circuit(3), ())
        assert cost == pytest.approx(1.0, abs=1e-12)

    def test_matches_swap_test_oracle(self):
        for _ in range(5):
            circ = random_circuit(3, 10, RNG)
            theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
            state = random_state(3, RNG)
            cost = qae_task(1, [state]).training_cost(circ, theta)
            encoded = oracle_unitary(circ, theta) @ state
            rho_b = partial_trace(density(encoded), (2,))
            f = swap_test_expectation(rho_b, basis_state(1))
            assert abs((1.0 - f) - cost) < 1e-9

    def test_local_cost_agrees_on_single_trash_qubit(self):
        circ = random_circuit(3, 8, RNG)
        theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
        states = [random_state(3, RNG) for _ in range(4)]
        local = qae_task(1, states, "local").training_cost(circ, theta)
        trash = qae_task(1, states).training_cost(circ, theta)
        assert abs(local - trash) < 1e-12


class TestSwapTest:
    def test_matching_pure_states(self):
        f = swap_test_expectation(density(basis_state(1)), basis_state(1))
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        f = swap_test_expectation(density(basis_state(1, 1)), basis_state(1))
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_vs_zero(self):
        f = swap_test_expectation(DensityMatrix(1, np.eye(2) / 2), basis_state(1))
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_matches_projector_trace(self):
        for _ in range(20):
            rho = depolarize(density(random_state(1, RNG)), float(RNG.uniform(0, 1)))
            ref = random_state(1, RNG)
            f = swap_test_expectation(rho, ref)
            expected = float(np.real(ref.conj() @ rho.entries @ ref))
            assert abs(f - expected) < 1e-9

    def test_two_qubit_trash(self):
        rho = DensityMatrix(2, np.eye(4) / 4)
        f = swap_test_expectation(rho, basis_state(2))
        assert f == pytest.approx(0.25, abs=1e-12)


class TestReconstruction:
    """`tasks.batch_reconstruction_fidelity`, the round trip of every score."""

    def test_identity_on_product_input(self):
        cols = basis_state(3)[:, None]
        f = batch_reconstruction_fidelity(Circuit(3), (), cols, 1)
        assert f[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_trash_cost_implies_perfect_roundtrip(self):
        # an encoder that maps the input's trash qubit exactly onto |0>
        state = one_gate(basis_state(3), "X", 2)
        circ = Circuit(3, [gate("X", 2)])
        assert qae_task(1, [state]).training_cost(circ, ()) < 1e-12
        f = batch_reconstruction_fidelity(circ, (), state[:, None], 1)
        assert f[0] == pytest.approx(1.0, abs=1e-8)

    def test_trash_bound_exploratory(self):
        # per column, with trash fidelity p = 1 - c and sigma the encoded
        # latent state's trash conditional, F_rec = p (p + (1 - p) <a|sigma|a>)
        # >= p^2: the round trip is never worse than (1 - trash cost)^2
        for _ in range(50):
            circ = random_circuit(3, 8, RNG)
            theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
            cols = np.column_stack([random_state(3, RNG) for _ in range(8)])
            encoded = apply_circuit_columns(circ, theta, cols)
            cost = 1.0 - batch_trash_fidelity(encoded, 1)
            f = batch_reconstruction_fidelity(circ, theta, cols, 1)
            assert np.all(f >= (1.0 - cost) ** 2 - 1e-12)

    def test_target_comparison(self):
        clean = ghz_state(3)
        for circ in (Circuit(3), random_circuit(3, 8, RNG)):
            theta = RNG.uniform(-math.pi, math.pi, size=circ.n_params)
            states = [clean] + [random_state(3, RNG) for _ in range(3)]
            cols = np.column_stack(states)
            f = batch_reconstruction_fidelity(circ, theta, cols, 1, target=clean)
            want = [reconstruction_fidelity(circ, theta, s, (2,), target=clean)
                    for s in states]
            assert np.max(np.abs(f - want)) < 1e-12


# ---------------------------------------------------------------------------
# The batched QAE costs against the density-matrix reference
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=75, deadline=None, derandomize=True, database=None)
ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@st.composite
def qae_cases(draw):
    """A circuit over all 14 gate kinds at width 2-5 with its angles, a number
    of trash qubits from 1 to n - 1 and 1-4 input columns."""
    n = draw(st.integers(2, 5))
    gates = []
    for tag in draw(st.lists(st.sampled_from(sorted(GATE_KINDS)), max_size=12)):
        targets = tuple(draw(st.permutations(range(n)))[:GATE_KINDS[tag].arity])
        gates.append(gate(tag, *targets))
    circuit = Circuit(n, gates)
    theta = np.array(draw(st.lists(ANGLES, min_size=circuit.n_params,
                                   max_size=circuit.n_params)), dtype=float)
    n_trash = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [random_state(n, rng) for _ in range(draw(st.integers(1, 4)))]
    return circuit, theta, n_trash, states


def trash_qubits(n, n_trash):
    """The trash qubits, spelt out for the reference: the last n_trash."""
    return tuple(range(n - n_trash, n))


def reference_encoded(circuit, theta, states):
    """Density matrices of the encoded states, from the kron unitary."""
    u = oracle_unitary(circuit, theta)
    return [density(u @ s) for s in states]


def reference_cost(cost_mode, circuit, theta, n_trash, states):
    """Mean over the states of the global cost 1 - <0|rho_trash|0> or of the
    local cost 1 - mean over trash qubits q of <0|rho_q|0>."""
    trash = trash_qubits(circuit.n_qubits, n_trash)
    costs = []
    for rho in reference_encoded(circuit, theta, states):
        if cost_mode == "trash":
            costs.append(1.0 - partial_trace(rho, trash).entries[0, 0].real)
        else:
            costs.append(1.0 - np.mean([partial_trace(rho, (q,)).entries[0, 0].real
                                        for q in trash]))
    return float(np.mean(costs))


@pytest.mark.parametrize("cost_mode", ["trash", "local"])
@PROPERTY
@given(case=qae_cases())
def test_training_cost_matches_density_matrix_reference(cost_mode, case):
    circuit, theta, n_trash, states = case
    got = qae_task(n_trash, states, cost_mode).training_cost(circuit, theta)
    assert abs(got - reference_cost(cost_mode, circuit, theta, n_trash, states)) < 1e-12


@pytest.mark.parametrize("with_target", [False, True], ids=["input", "target"])
@PROPERTY
@given(case=qae_cases(), seed=st.integers(0, 2**32 - 1))
def test_reconstruction_fidelity_matches_density_matrix_reference(with_target, case, seed):
    circuit, theta, n_trash, states = case
    target = random_state(circuit.n_qubits, np.random.default_rng(seed)) if with_target else None
    cols = np.column_stack(states)
    got = batch_reconstruction_fidelity(circuit, theta, cols, n_trash, target=target)
    trash = trash_qubits(circuit.n_qubits, n_trash)
    want = [reconstruction_fidelity(circuit, theta, s, trash, target=target) for s in states]
    assert np.max(np.abs(got - want)) < 1e-12


class TestNoise:
    def test_bitflip_extremes(self):
        rng = np.random.default_rng(0)
        assert bitflip_noise_circuit(3, 0.0, rng).gates == ()
        circ = bitflip_noise_circuit(3, 1.0, rng)
        assert sorted(g.targets[0] for g in circ.gates) == [0, 1, 2]
        assert all(g.kind.tag == "X" for g in circ.gates)

    def test_bitflip_mean_count(self):
        rng = np.random.default_rng(7)
        counts = [len(bitflip_noise_circuit(3, 0.2, rng).gates) for _ in range(10_000)]
        assert abs(np.mean(counts) - 0.6) < 0.05

    def test_depolarize_extremes(self):
        rho = density(random_state(2, RNG))
        assert np.allclose(depolarize(rho, 0.0).entries, rho.entries)
        assert np.allclose(depolarize(rho, 1.0).entries, np.eye(4) / 4)

    def test_depolarize_on_zero_state(self):
        out = depolarize(density(basis_state(1)), 0.2)
        assert np.allclose(out.entries, np.diag([0.9, 0.1]), atol=1e-12)

    def test_pauli_channel_p_zero(self):
        state = random_state(2, RNG)
        out = pauli_channel_apply(state, 0.0, np.random.default_rng(0))
        assert np.allclose(out, state)

    def test_pauli_channel_p_one_on_zero(self):
        # with p=1 the qubit gets I/X/Y/Z uniformly: |0> survives under I or Z
        rng = np.random.default_rng(11)
        hits = 0
        n = 20_000
        for _ in range(n):
            out = pauli_channel_apply(basis_state(1), 1.0, rng)
            hits += abs(out[0]) > 0.5
        assert abs(hits / n - 0.5) < 0.02

    def test_pauli_ensemble_matches_depolarize(self):
        rng = np.random.default_rng(3)
        state = random_state(1, RNG)
        p = 0.4
        acc = np.zeros((2, 2), dtype=complex)
        n = 20_000
        for _ in range(n):
            out = pauli_channel_apply(state, p, rng)
            acc += np.outer(out, out.conj())
        acc /= n
        expected = depolarize(density(state), p).entries
        assert np.max(np.abs(acc - expected)) < 0.02


class TestAmplitudeEncode:
    def test_basis_vector(self):
        out = amplitude_encode([1, 0, 0, 0])
        assert out.shape == (4,)
        assert np.allclose(out, [1, 0, 0, 0])

    def test_three_four_normalization(self):
        out = amplitude_encode([3, 4])
        assert np.allclose(out, [0.6, 0.8])

    def test_image_sized_vector_uses_five_qubits(self):
        out = amplitude_encode(np.arange(1, 33, dtype=float))
        assert out.shape == (32,)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            amplitude_encode([0.0, 0.0])


class TestGhzState:
    def test_three_qubits(self):
        amps = ghz_state(3)
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.allclose(amps, expected)

    def test_one_qubit_equals_plus(self):
        plus = one_gate(basis_state(1), "H", 0)
        assert abs(np.vdot(ghz_state(1), plus)) ** 2 == pytest.approx(1.0)


@pytest.mark.parametrize("make, n", [
    (lambda: basis_state(3), 3),
    (lambda: basis_state(2, 3), 2),
    (lambda: ghz_state(1), 1),
    (lambda: ghz_state(4), 4),
    (lambda: amplitude_encode([3, 4, 0]), 2),
    (lambda: amplitude_encode(np.arange(1, 33, dtype=float)), 5),
    (lambda: gen_hidden_targets(5, "dense", 3, 4, seed=2)[3].evolved, 5),
    (lambda: gen_hidden_targets(3, "single", 6, 2, seed=9)[1].evolved, 3),
], ids=["basis", "basis-index", "ghz-1", "ghz-4", "encode-padded", "encode-32",
        "hidden-dense", "hidden-single"])
def test_states_are_unit_norm_complex_vectors(make, n):
    """A state is its (2^n,) complex amplitude vector, built normalized."""
    state = make()
    assert state.shape == (2**n,)
    assert state.dtype == complex
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


class TestValidation:
    def test_nonhermitian_density_rejected(self):
        bad = np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(1, bad)
