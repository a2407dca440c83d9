"""Benchmark tasks: dataset generators, cost surfaces, evaluation protocols,
baseline ansatz layouts and the random-search baseline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import UNBOUNDED, bitflip_noise_circuit, pauli_channel_apply, same_bits

from qcas.cell import Cell, SoftConstraint, build_vocab, cell_to_circuit, metrics, random_cell
from qcas.optim import OptBudget
from qcas.sim import (
    Circuit,
    SPACE_CLIFFORD,
    SPACE_GENERIC,
    apply_circuit_columns,
    basis_state,
    gate,
    ghz_state,
)
from qcas.tasks import (
    _distinct_columns,
    _noisy_ghz_columns,
    QaeTask,
    UnitaryRegenTask,
    baseline_circuit,
    evaluate_qae_test,
    gen_digits,
    gen_hidden_targets,
    gen_noise_dataset,
    gen_state_compress_dataset,
    gen_tetris,
    logfidelity,
    make_denoise_task,
    make_image_task,
    random_search,
)

FAST_OPT = OptBudget(max_evals=40, restarts=1)
CLIFFORD = build_vocab(SPACE_CLIFFORD)


def ensemble_density(cols):
    """The mean of |c><c| over the state columns `cols`."""
    return cols @ cols.conj().T / cols.shape[1]


@pytest.fixture(scope="module")
def dataset():
    return gen_noise_dataset("bitflip", seed=0, n_train=20, n_val=20, n_test=30)


class TestNoiseDataset:

    def test_shapes(self, dataset):
        assert dataset.train.shape == (8, 20)
        assert dataset.val.shape == (8, 20)
        assert set(dataset.test) == {round(0.1 * k, 1) for k in range(11)}
        assert dataset.test[0.5].shape == (8, 30)

    def test_p_zero_slice_is_clean_ghz(self, dataset):
        clean = ghz_state(3)
        for i in range(dataset.test[0.0].shape[1]):
            assert np.array_equal(dataset.test[0.0][:, i], clean)

    def test_default_sizes_match_protocol(self):
        ds = gen_noise_dataset("bitflip", seed=1, p_grid=(0.0, 0.2))
        assert ds.train.shape[1] == 100 and ds.val.shape[1] == 100
        assert ds.test[0.2].shape[1] == 200

    def test_deterministic(self):
        a = gen_noise_dataset("qdc", seed=5, n_train=10, n_val=10, n_test=10,
                              p_grid=(0.2,))
        b = gen_noise_dataset("qdc", seed=5, n_train=10, n_val=10, n_test=10,
                              p_grid=(0.2,))
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test[0.2], b.test[0.2])

    @pytest.mark.parametrize("n_qubits,p", [(1, 0.5), (3, 0.0), (3, 0.2), (4, 1.0), (5, 0.35)])
    def test_bitflip_columns_match_per_sample_circuits(self, n_qubits, p):
        rng, twin = np.random.default_rng([9, n_qubits]), np.random.default_rng([9, n_qubits])
        cols = _noisy_ghz_columns("bitflip", n_qubits, p, 400, rng)
        clean = ghz_state(n_qubits)
        expected = np.column_stack([
            apply_circuit_columns(bitflip_noise_circuit(n_qubits, p, twin), (),
                                  clean[:, None])[:, 0]
            for _ in range(400)])
        assert cols.dtype == expected.dtype and cols.shape == expected.shape
        # equal down to the sign bits of the zero amplitudes
        assert np.array_equal(cols.view(np.uint64), expected.view(np.uint64))
        assert rng.random() == twin.random()  # the same number of draws

    @pytest.mark.parametrize("n_qubits,p", [(1, 0.5), (2, 0.6), (3, 0.0), (3, 0.2), (3, 1.0),
                                            (4, 0.7), (5, 0.35)])
    def test_qdc_columns_match_per_sample_circuits(self, n_qubits, p):
        rng, twin = np.random.default_rng([8, n_qubits]), np.random.default_rng([8, n_qubits])
        cols = _noisy_ghz_columns("qdc", n_qubits, p, 2000, rng)
        clean = ghz_state(n_qubits)
        expected = np.column_stack([pauli_channel_apply(clean, p, twin)
                                    for _ in range(2000)])
        assert cols.dtype == expected.dtype and cols.shape == expected.shape
        assert np.array_equal(cols, expected)
        if n_qubits != 2:
            # equal down to the sign bits of the zero amplitudes; at 2 qubits
            # the per-sample circuit leaves -0.0 on some zeros, which no
            # dataset the program builds (3 qubits) has
            assert np.array_equal(cols.view(np.uint64), expected.view(np.uint64))
        assert rng.random() == twin.random()  # the same number of draws

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_qdc_ensemble_is_the_depolarizing_channel(self, p):
        # the program's own draw, not the reference circuit: at one qubit the
        # GHZ state is |+>, and the ensemble density of the copies is
        # (1 - p) |+><+| + p I/2
        cols = _noisy_ghz_columns("qdc", 1, p, 100_000, np.random.default_rng([113, int(p * 10)]))
        plus = ghz_state(1)
        expected = (1 - p) * np.outer(plus, plus.conj()) + p * np.eye(2) / 2
        assert np.max(np.abs(ensemble_density(cols) - expected)) <= 0.01

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_qdc_ensemble_on_ghz_is_the_per_qubit_channel_product(self, p):
        cols = _noisy_ghz_columns("qdc", 3, p, 100_000, np.random.default_rng([313, int(p * 10)]))
        ghz = ghz_state(3)
        rho = np.outer(ghz, ghz.conj())
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        for q in range(3):  # rho -> (1 - 3p/4) rho + p/4 (X rho X + Y rho Y + Z rho Z) on q
            on_q = [np.kron(np.kron(np.eye(2**q), pauli), np.eye(2**(2 - q))) for pauli in paulis]
            rho = (1 - 3 * p / 4) * rho + p / 4 * sum(m @ rho @ m.conj().T for m in on_q)
        assert np.max(np.abs(ensemble_density(cols) - rho)) <= 0.01

    def test_bitflip_probability_checked(self):
        with pytest.raises(ValueError):
            _noisy_ghz_columns("bitflip", 3, 1.5, 10, np.random.default_rng(0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_noise_dataset("amplitude_damping")


class TestImageDatasets:
    def test_digits_count_and_shape(self):
        ds = gen_digits(seed=0)
        assert ds.images.shape == (100, 8, 4)
        assert set(ds.labels) == {0, 1}

    def test_digit_pixel_ranges(self):
        ds = gen_digits(seed=0, count=10)
        from qcas.tasks import _DIGIT_MASKS
        for img, label in zip(ds.images, ds.labels):
            mask = _DIGIT_MASKS[str(label)]
            fg = img[mask > 0]
            bg = img[mask == 0]
            assert np.all((fg >= 0.5) & (fg <= 1.0))
            assert np.all((bg >= 0.01) & (bg <= 0.05))

    def test_tetris_count_and_shape(self):
        ds = gen_tetris(seed=0, count=50)
        assert ds.images.shape == (50, 4, 4)
        assert set(ds.labels) <= {0, 1, 2, 3}

    def test_tetris_block_area_matches_label(self):
        from qcas.tasks import _TETROMINOES
        ds = gen_tetris(seed=1, count=50)
        names = sorted(_TETROMINOES)
        for img, label in zip(ds.images, ds.labels):
            assert int(np.sum(img >= 0.5)) == int(_TETROMINOES[names[label]].sum())


class TestStateCompress:
    def test_all_states_normalized(self):
        ds = gen_state_compress_dataset(seed=0)
        for col in np.hstack([ds.train, ds.test]).T:
            assert abs(np.linalg.norm(col) - 1.0) < 1e-10

    def test_schmidt_rank_at_most_two(self):
        # by construction each state is a 2-term superposition across the 2|2
        # cut; the singular-value oracle on the reshaped amplitudes shows it
        ds = gen_state_compress_dataset(seed=0)
        for col in np.hstack([ds.train, ds.test]).T:
            svals = np.linalg.svd(col.reshape(4, 4), compute_uv=False)
            assert np.sum(svals > 1e-10) <= 2

    def test_split_sizes(self):
        ds = gen_state_compress_dataset(seed=3)
        assert ds.train.shape == (16, 6)
        assert ds.test.shape == (16, 10)


class TestHiddenTargets:
    def test_single_subtask_has_no_two_qubit_gates(self):
        for target in gen_hidden_targets(3, "single", 3, 10, seed=0):
            assert all(g.kind.arity == 1 for g in target.circuit.gates)

    def test_evolved_state_matches_unitary(self):
        for target in gen_hidden_targets(3, "dense", 3, 5, seed=1):
            direct = apply_circuit_columns(target.circuit, (), basis_state(3)[:, None])[:, 0]
            assert np.max(np.abs(direct - target.evolved)) < 1e-10

    def test_depth_bounded_by_layers(self):
        for layers in (1, 2, 3):
            for target in gen_hidden_targets(3, "dense", layers, 5, seed=2):
                depth = [0, 0, 0]
                for g in target.circuit.gates:
                    level = max(depth[q] for q in g.targets) + 1
                    for q in g.targets:
                        depth[q] = level
                assert max(depth) <= layers

    def test_targets_never_empty(self):
        for target in gen_hidden_targets(2, "dense", 1, 20, seed=4):
            assert target.circuit.gates


class TestTaskCosts:
    def test_unitary_regen_exact_candidate_zero_loss(self):
        target = gen_hidden_targets(3, "dense", 2, 1, seed=6)[0]
        task = UnitaryRegenTask(target)
        assert task.training_cost(target.circuit, ()) == pytest.approx(0.0, abs=1e-12)
        assert task.validation_score(target.circuit, ()) == pytest.approx(1.0)

    def test_denoise_cost_finite_on_clean_data(self):
        ds = gen_noise_dataset("bitflip", seed=0, p_train=0.0, n_train=5,
                               n_val=5, n_test=1, p_grid=(0.0,))
        task = make_denoise_task(ds)
        cost = task.training_cost(Circuit(3), ())
        assert math.isfinite(cost) and 0.0 <= cost <= 1.0

    def test_image_basis_state_identity_zero_cost(self):
        # a [1,0,...,0] image amplitude-encodes to |0...0>: trash already |0>
        cols = np.zeros((32, 1), dtype=complex)
        cols[0, 0] = 1.0
        task = QaeTask(5, 1, cols, cols)
        assert task.training_cost(Circuit(5), ()) == pytest.approx(0.0, abs=1e-12)

    def test_local_cost_mode(self):
        ds = gen_noise_dataset("bitflip", seed=0, p_train=0.2, n_train=5,
                               n_val=5, n_test=1, p_grid=(0.0,))
        task = make_denoise_task(ds, cost_mode="local")
        cost = task.training_cost(Circuit(3), ())
        assert 0.0 <= cost <= 1.0
        with pytest.raises(ValueError, match="^cost_mode .*'locl'"):
            make_denoise_task(ds, cost_mode="locl")

    def test_n_trash_must_be_at_least_one(self):
        cols = np.eye(8, dtype=complex)[:, :2]
        for n_trash in (0, -1):
            with pytest.raises(ValueError, match=f"^n_trash .*got {n_trash}"):
                QaeTask(3, n_trash, cols, cols)

    def test_n_trash_must_leave_a_latent_qubit(self):
        cols = np.eye(8, dtype=complex)[:, :2]
        for n_trash in (3, 4):
            with pytest.raises(ValueError, match=f"^n_trash must be in 1..2, got {n_trash}"):
                QaeTask(3, n_trash, cols, cols)


class TestDistinctColumns:
    def check(self, cols, count):
        distinct, index = _distinct_columns(cols)
        assert distinct.shape == (cols.shape[0], count)
        assert distinct.flags.c_contiguous
        assert same_bits(distinct[:, index], cols)

    def test_one_column_repeated(self):
        self.check(np.repeat(ghz_state(3)[:, None], 100, axis=1), 4)

    def test_all_columns_distinct(self):
        task, _ = make_image_task(gen_digits(seed=5), seed=5)
        assert task.train_cols.shape[1] == 60
        self.check(task.train_cols, 60)

    def test_count_padded_to_a_multiple_of_four(self):
        cols = np.eye(8, dtype=complex)
        for count, padded in ((1, 4), (4, 4), (5, 8), (6, 8), (8, 8)):
            self.check(cols[:, [k % count for k in range(3 * count)]], padded)

    def test_sign_of_zero_keeps_columns_apart(self):
        plus = np.array([0.0, 1.0 + 0.0j, 0.0, 0.0])
        minus = np.array([complex(-0.0, 0.0), 1.0, 0.0, complex(0.0, -0.0)])
        assert np.array_equal(plus, minus)  # equal in value, not in bits
        cols = np.stack([plus, minus, plus, minus], axis=1)
        self.check(cols, 4)
        assert len(set(_distinct_columns(cols)[1].tolist())) == 2


DENOISE_TASKS = {(kind, seed): make_denoise_task(gen_noise_dataset(kind, seed=seed))
                 for kind in ("bitflip", "qdc") for seed in (5, 1000, 1001)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(DENOISE_TASKS)), cell_seed=st.integers(0, 2**32 - 1),
       layer_budget=st.integers(1, 3))
def test_distinct_columns_simulate_bit_identically_to_the_whole_set(key, cell_seed, layer_budget):
    """Each column of a set, simulated among the task's distinct columns and
    gathered back, equals the column simulated in the whole set, bit for bit."""
    task = DENOISE_TASKS[key]
    rng = np.random.default_rng(cell_seed)
    circuit = cell_to_circuit(random_cell(build_vocab(SPACE_GENERIC), task.n_qubits, rng,
                                          layer_budget, UNBOUNDED))
    theta = rng.uniform(-2 * math.pi, 2 * math.pi, circuit.n_params)
    for (cols, index), whole in ((task._train, task.train_cols), (task._val, task.val_cols)):
        assert same_bits(apply_circuit_columns(circuit, theta, cols)[:, index],
                         apply_circuit_columns(circuit, theta, whole))


def test_task_is_frozen():
    task = make_denoise_task(gen_noise_dataset("bitflip", seed=0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.train_cols = task.val_cols


def test_regen_task_is_frozen():
    first, second = gen_hidden_targets(2, "dense", 1, 2, seed=0)
    task = UnitaryRegenTask(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.target = second


class TestEvaluation:
    def test_perfect_encoder_at_p_zero(self):
        ds = gen_noise_dataset("bitflip", seed=0, n_train=5, n_val=5,
                               n_test=20, p_grid=(0.0, 0.5))
        # decoder-perfect circuit: inverse GHZ preparation
        circ = Circuit(3, [gate("CNOT", 1, 2), gate("CNOT", 0, 1), gate("H", 0)])
        mean, std = evaluate_qae_test(circ, (), make_denoise_task(ds), ds.test[0.0])
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_outputs_bounded(self):
        ds = gen_noise_dataset("bitflip", seed=0, n_train=5, n_val=5,
                               n_test=20, p_grid=(0.3, 0.8))
        task = make_denoise_task(ds)
        for cols in ds.test.values():
            mean, std = evaluate_qae_test(Circuit(3), (), task, cols)
            assert 0.0 <= mean <= 1.0 and math.isfinite(std)

    def test_qae_test_protocol(self):
        task, test_cols = make_image_task(gen_digits(seed=0, count=20), seed=0)
        mean, std = evaluate_qae_test(Circuit(5), np.zeros(0), task, test_cols)
        assert 0.0 <= mean <= 1.0 and std >= 0.0


class TestLogfidelity:
    def test_examples(self):
        assert logfidelity(0.9) == pytest.approx(1.0, abs=1e-12)
        assert logfidelity(0.0) == pytest.approx(0.0, abs=1e-12)
        assert logfidelity(0.999999) == pytest.approx(6.0, abs=1e-9)

    def test_clamped_at_one(self):
        assert math.isfinite(logfidelity(1.0))


class TestBaselines:
    def test_denoise_baseline_parameter_count(self):
        ds = gen_noise_dataset("bitflip", seed=0, n_train=2, n_val=2, n_test=1,
                               p_grid=(0.0,))
        circ = baseline_circuit("denoise", make_denoise_task(ds).n_qubits)
        assert circ.n_params == 48

    def test_image_baseline_parameter_count(self):
        task, _ = make_image_task(gen_digits(seed=0, count=10), seed=0)
        circ = baseline_circuit("image", task.n_qubits)
        assert task.n_qubits == 5
        assert circ.n_params == 25

    def test_baseline_gate_kinds(self):
        ds = gen_noise_dataset("bitflip", seed=0, n_train=2, n_val=2, n_test=1,
                               p_grid=(0.0,))
        circ = baseline_circuit("denoise", make_denoise_task(ds).n_qubits)
        assert {g.kind.tag for g in circ.gates} == {"RZ", "CRX"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            baseline_circuit("unitary_regen", 2)


class TestRandomSearch:
    def test_budget_one_returns_single_cell(self):
        task = UnitaryRegenTask(gen_hidden_targets(2, "dense", 1, 1, seed=0)[0])
        (cell, theta, score), scored = random_search(task, CLIFFORD, 1, UNBOUNDED, 0,
                                                     layer_budget=2, opt_budget=FAST_OPT)
        assert len(scored) == 1
        assert scored[0][0] == cell

    def test_nested_budgets_prefix_property(self):
        task = UnitaryRegenTask(gen_hidden_targets(2, "dense", 2, 1, seed=1)[0])
        (_, _, small), _ = random_search(task, CLIFFORD, 3, UNBOUNDED, 7,
                                         layer_budget=2, opt_budget=FAST_OPT)
        (_, _, large), _ = random_search(task, CLIFFORD, 9, UNBOUNDED, 7,
                                         layer_budget=2, opt_budget=FAST_OPT)
        assert large >= small - 1e-12

    def test_constraint_respected(self):
        task = UnitaryRegenTask(gen_hidden_targets(3, "dense", 2, 1, seed=2)[0])
        constraint = SoftConstraint("n_gates", 2)
        _, scored = random_search(task, CLIFFORD, 5, constraint, 3,
                                  layer_budget=2, opt_budget=FAST_OPT)
        for cell, _, _ in scored:
            assert metrics(cell).n_gates <= 2
