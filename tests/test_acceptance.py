"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line on
the real terminal (bypassing capture) so the verdicts are visible in any run
mode.  Runtime caps are asserted alongside the numeric tolerances.
"""

import contextlib
import math
import sys
import time

import numpy as np
from reference import (
    DensityMatrix,
    density,
    depolarize,
    partial_trace,
    pauli_channel_apply,
    reinforce_loss,
    state_fidelity,
    swap_test_expectation,
)

from qcas.cell import (
    Cell,
    SoftConstraint,
    build_vocab,
    encode_actions,
    eval_soft_constraint,
    metrics,
)
from qcas.controller import (
    ControllerConfig,
    controller_forward,
    init_controller,
    reinforce_grads,
    sample_actions,
)
from qcas.optim import OptBudget, minimize
from qcas.relm import RelmConfig, init_population, qae_reward, relm_search, unitary_reward
from qcas.res import ResConfig, res_search
from qcas.sim import (
    Circuit,
    GATE_KINDS,
    apply_circuit_columns,
    circuit_unitary,
    gate,
    SPACE_CLIFFORD,
    SPACE_GENERIC,
)
from qcas.tasks import (
    UnitaryRegenTask,
    baseline_circuit,
    evaluate_qae_test,
    gen_hidden_targets,
    gen_noise_dataset,
    make_denoise_task,
    random_search,
)


@contextlib.contextmanager
def verdict(label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {label} ({time.monotonic() - start:.1f}s)", file=sys.__stdout__)
        raise
    print(f"PASS {label} ({time.monotonic() - start:.1f}s)", file=sys.__stdout__)


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_circuit(n, n_gates, rng):
    gates = []
    tags = list(GATE_KINDS)
    for _ in range(n_gates):
        tag = tags[rng.integers(len(tags))]
        kind = GATE_KINDS[tag]
        if kind.arity == 2 and n < 2:
            tag, kind = "H", GATE_KINDS["H"]
        targets = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
        gates.append(gate(tag, *targets))
    return Circuit(n, gates)


def test_criterion_01_simulator_oracle_equivalence():
    with verdict("criterion 1: simulator oracle equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            circ = random_circuit(n, int(rng.integers(1, 31)), rng)
            theta = rng.uniform(-math.pi, math.pi, size=circ.n_params)
            state = random_state(n, rng)
            direct = apply_circuit_columns(circ, theta, state[:, None])[:, 0]
            via_unitary = circuit_unitary(circ, theta) @ state
            assert np.max(np.abs(direct - via_unitary)) <= 1e-10
        assert time.monotonic() - start < 5.0


def test_criterion_02_quantum_information_identities():
    with verdict("criterion 2: quantum-information identities"):
        start = time.monotonic()
        rng = np.random.default_rng(102)
        # Uhlmann fidelity reduces to the squared overlap on pure pairs
        for _ in range(20):
            a, b = random_state(2, rng), random_state(2, rng)
            assert abs(state_fidelity(density(a), density(b))
                       - abs(np.vdot(a, b)) ** 2) <= 1e-9
        # Bell partial trace in exact arithmetic: corners 1/2 reduce to I/2
        bell_rho = np.zeros((4, 4), dtype=complex)
        bell_rho[0, 0] = bell_rho[0, 3] = bell_rho[3, 0] = bell_rho[3, 3] = 0.5
        for keep in ((0,), (1,)):
            reduced = partial_trace(DensityMatrix(2, bell_rho), keep)
            assert np.array_equal(reduced.entries, np.eye(2) / 2)
        # swap test equals Tr[rho |a><a|]
        for _ in range(20):
            rho = depolarize(density(random_state(1, rng)), float(rng.uniform(0, 1)))
            ref = random_state(1, rng)
            expected = float(np.real(ref.conj() @ rho.entries @ ref))
            assert abs(swap_test_expectation(rho, ref) - expected) <= 1e-9
        assert time.monotonic() - start < 5.0


def test_criterion_03_channel_equivalence():
    with verdict("criterion 3: Pauli channel equals depolarizing channel"):
        start = time.monotonic()
        state = random_state(1, np.random.default_rng(103))
        for p in (0.2, 0.5, 0.9):
            rng = np.random.default_rng([103, int(p * 10)])
            acc = np.zeros((2, 2), dtype=complex)
            n = 100_000
            for _ in range(n):
                out = pauli_channel_apply(state, p, rng)
                acc += np.outer(out, out.conj())
            acc /= n
            expected = depolarize(density(state), p).entries
            assert np.max(np.abs(acc - expected)) <= 0.01
        assert time.monotonic() - start < 30.0


def test_criterion_04_reward_unit_suite():
    with verdict("criterion 4: reward unit suite"):
        start = time.monotonic()
        assert abs(qae_reward(0.9, 0.5) - (-0.4)) <= 1e-12
        assert abs(qae_reward(0.3, 0.5) - math.tan(0.25 * math.pi)) <= 1e-12
        f = 0.6
        assert abs(qae_reward(f, f) - math.tan(f * math.pi / 2)) <= 1e-12
        assert abs(unitary_reward(0.4, 0.4, 1.5)) <= 1e-12
        assert abs(unitary_reward(0.3, 0.5, 1.5) - math.tan(1.5 * 0.2 * math.pi / 2)) <= 1e-12
        # clamping: perfect child and saturated loss deltas stay finite
        assert math.isfinite(qae_reward(0.2, 1.0))
        for delta in (1.0, -1.0, 2.0, 50.0):
            assert math.isfinite(unitary_reward(0.0, delta, 1.5))
        assert time.monotonic() - start < 1.0


def test_criterion_05_controller_gradient_check():
    with verdict("criterion 5: controller gradients vs finite differences"):
        start = time.monotonic()
        vocab = build_vocab(SPACE_GENERIC)
        config = ControllerConfig(n_qubits=2, max_seq=2, v_rot=vocab.v_rot,
                                  v_ent=vocab.v_ent, embed_dim=4, n_heads=1,
                                  n_blocks=1, ff_dim=8)
        params = init_controller(config, np.random.default_rng(105))
        cell = Cell(2, [["RY"], ["RX"]], {(0, 1): ["CNOT"]})
        slots = encode_actions(cell, vocab, config.max_seq)
        rng = np.random.default_rng(505)
        rot_logits, ent_logits = controller_forward(params, *slots)[0]
        rot_a, ent_a = (a[0] for a in sample_actions(rot_logits, ent_logits, rng=rng, size=1))
        reward = 0.8
        grads = reinforce_grads(params, controller_forward(params, *slots),
                                rot_a[None], ent_a[None], np.array([reward]))
        step = 1e-5
        worst = 0.0
        for _ in range(100):
            name = list(params.tensors)[rng.integers(len(params.tensors))]
            tensor = params.tensors[name]
            idx = tuple(int(rng.integers(s)) for s in tensor.shape)
            saved = tensor[idx]
            tensor[idx] = saved + step
            up = reinforce_loss(params, slots, rot_a, ent_a, reward)
            tensor[idx] = saved - step
            down = reinforce_loss(params, slots, rot_a, ent_a, reward)
            tensor[idx] = saved
            numeric = (up - down) / (2 * step)
            analytic = grads[name][idx]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
        assert worst <= 1e-3
        assert time.monotonic() - start < 60.0


def test_criterion_06_res_constraint_soundness_and_noninferiority():
    with verdict("criterion 6: RES constraint soundness and non-inferiority"):
        start = time.monotonic()
        targets = gen_hidden_targets(3, "dense", 3, 10, seed=42)
        opt = OptBudget(max_evals=60, restarts=1)
        constraint = SoftConstraint("n_layers", 3)
        vocab = build_vocab(SPACE_CLIFFORD)
        res_losses, rs_losses = [], []
        for seed in range(5):
            for ti, target in enumerate(targets):
                task = UnitaryRegenTask(target)
                config = ResConfig(population_size=20, constraint=constraint,
                                   layer_budget_per_phase=2, max_phases=3)
                result = res_search(task, vocab, config, opt, seed * 100 + ti)
                assert eval_soft_constraint(constraint, result.best.cell)
                evals = sum(p.n_scored for p in result.phases)
                res_losses.append(1.0 - result.best.score)
                (_, _, score), _ = random_search(task, vocab, evals,
                                                 constraint, seed * 100 + ti,
                                                 layer_budget=2, opt_budget=opt)
                rs_losses.append(1.0 - score)
        mean_res = float(np.mean(res_losses))
        mean_rs = float(np.mean(rs_losses))
        assert mean_res <= mean_rs + 0.02, (mean_res, mean_rs)
        assert time.monotonic() - start < 15 * 60


def test_criterion_07_denoising_desk_scale():
    with verdict("criterion 7: denoising baseline desk-scale check"):
        start = time.monotonic()
        dataset = gen_noise_dataset("bitflip", seed=0)
        task = make_denoise_task(dataset)
        circuit = baseline_circuit("denoise", task.n_qubits)
        rng = np.random.default_rng(107)
        theta0 = rng.uniform(-math.pi, math.pi, size=circuit.n_params)
        budget = OptBudget(max_evals=4000, restarts=3)
        result = minimize(lambda th: task.training_cost(circuit, th), theta0,
                          budget, rng)
        per_p = {p: evaluate_qae_test(circuit, result.theta_star, task, cols)
                 for p, cols in dataset.test.items()}
        curve = [per_p[p][0] for p in sorted(per_p)]
        assert curve[0] > 0.9
        # bitflip pattern x at p has the probability of its complement at 1-p
        # and GHZ is invariant under the full flip, so the fidelity curve is
        # symmetric around p = 0.5; monotonicity is checked on [0, 0.5] where
        # the noise strength genuinely increases, and the mirror symmetry is
        # asserted on the full grid (finite-sample tolerance)
        half = curve[: len(curve) // 2 + 1]
        violations = sum(1 for a, b in zip(half, half[1:]) if b > a + 1e-9)
        assert violations <= 1, half
        for i in range(len(curve)):
            assert abs(curve[i] - curve[len(curve) - 1 - i]) <= 0.1
        assert time.monotonic() - start < 10 * 60


def test_criterion_08_relm_progress_property():
    with verdict("criterion 8: RELM progress over RES initialization"):
        start = time.monotonic()
        dataset = gen_noise_dataset("bitflip", seed=0)
        task = make_denoise_task(dataset)
        opt = OptBudget(max_evals=200, restarts=1)
        constraint = SoftConstraint("n_layers", 2)
        vocab = build_vocab(SPACE_GENERIC)
        wins = 0
        for seed in range(1, 6):
            config = RelmConfig(epochs=30, tournament_size=5, batch_size=8,
                                init_mode="res", reward_mode="qae", population_size=30,
                                layer_budget=2)
            res_config = ResConfig(population_size=30, constraint=constraint,
                                   layer_budget_per_phase=1, max_phases=2)
            pop, _ = init_population(task, vocab, config, res_config, opt, seed)
            init_best = max(e.score for e in pop)
            result = relm_search(task, config, pop, vocab, constraint, opt, seed)
            assert eval_soft_constraint(constraint, result.best.cell)
            wins += result.best.score >= init_best - 1e-12
        assert wins >= 4, wins
        assert time.monotonic() - start < 45 * 60


def test_criterion_09_parameter_budgets():
    with verdict("criterion 9: parameter budgets vs the 48-parameter baseline"):
        dataset = gen_noise_dataset("bitflip", seed=0)
        task = make_denoise_task(dataset)
        baseline_params = baseline_circuit("denoise", task.n_qubits).n_params
        assert baseline_params == 48
        opt = OptBudget(max_evals=150, restarts=1)
        vocab = build_vocab(SPACE_GENERIC)

        res_config = ResConfig(population_size=20,
                               constraint=SoftConstraint("n_params", 21),
                               layer_budget_per_phase=1, max_phases=3)
        res_result = res_search(task, vocab, res_config, opt, 0)
        res_params = metrics(res_result.best.cell).n_params
        assert res_params <= 21
        assert res_params < baseline_params

        constraint = SoftConstraint("n_params", 16)
        relm_config = RelmConfig(epochs=10, tournament_size=5, batch_size=4,
                                 init_mode="res", population_size=10, layer_budget=2)
        relm_res_config = ResConfig(population_size=10, constraint=constraint,
                                    layer_budget_per_phase=1, max_phases=2)
        pop, _ = init_population(task, vocab, relm_config, relm_res_config, opt, 0)
        relm_result = relm_search(task, relm_config, pop, vocab, constraint, opt, 0)
        relm_params = metrics(relm_result.best.cell).n_params
        assert relm_params <= 16
        assert relm_params < baseline_params


def test_criterion_10_determinism(tmp_path):
    with verdict("criterion 10: byte-identical CSV exports per seed"):
        from qcas.cli import export_csv, parse_config, run

        config = {
            "task": {"kind": "denoise", "noise": "bitflip"},
            "algorithm": "relm",
            "relm": {"epochs": 2, "tournament_size": 2, "batch_size": 2,
                     "population_size": 4, "embed_dim": 4, "n_heads": 1,
                     "n_blocks": 1, "ff_dim": 8},
            "res": {"population_size": 4, "max_phases": 2},
            "opt": {"max_evals": 60, "restarts": 1},
            "seeds": [1],
        }
        record_a = run(parse_config(config, environ={}))
        record_b = run(parse_config(config, environ={}))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        export_csv(record_a, str(dir_a))
        export_csv(record_b, str(dir_b))
        for name in ("denoising.csv", "relm.csv", "summary.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
