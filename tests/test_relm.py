"""Regularized evolution with learned mutation: rewards, tournaments,
mutation, the full search loop and its invariants."""

import copy
import math

import numpy as np
import pytest
from reference import action_logprob

import qcas.relm
from qcas.cell import (
    Cell,
    SoftConstraint,
    build_vocab,
    decode_actions,
    encode_views,
    eval_soft_constraint,
)
from qcas.controller import (
    AdamState,
    ControllerConfig,
    adam_step,
    controller_forward,
    init_controller,
    reinforce_grads,
    sample_actions,
)
from qcas.optim import OptBudget, Scored, score_cell
from qcas.relm import (
    EpochRecord,
    RelmConfig,
    init_population,
    mutate,
    qae_reward,
    relm_search,
    tournament_step,
    unitary_reward,
)
from qcas.sim import SPACE_CLIFFORD, SPACE_GENERIC
from qcas.tasks import UnitaryRegenTask, gen_hidden_targets

FAST_OPT = OptBudget(max_evals=40, restarts=1)
VOCAB = build_vocab(SPACE_CLIFFORD)


def small_task(seed=3):
    target = gen_hidden_targets(2, "dense", 2, 1, seed=seed)[0]
    return UnitaryRegenTask(target)


class TestQaeReward:
    def test_worse_child_negative_delta(self):
        assert qae_reward(0.9, 0.5) == pytest.approx(-0.4, abs=1e-12)

    def test_better_child_tangent(self):
        assert qae_reward(0.3, 0.5) == pytest.approx(math.tan(0.25 * math.pi), abs=1e-12)
        assert qae_reward(0.3, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_equal_scores_take_second_branch(self):
        f = 0.6
        assert qae_reward(f, f) == pytest.approx(math.tan(f * math.pi / 2), abs=1e-12)

    def test_perfect_child_is_finite(self):
        assert math.isfinite(qae_reward(0.2, 1.0))

    def test_sign_flag_flips_worse_branch(self):
        assert qae_reward(0.9, 0.5, sign="printed") == pytest.approx(0.4, abs=1e-12)

    def test_sign_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            fp, fc = rng.uniform(0, 1, size=2)
            r = qae_reward(fp, fc)
            if fp > fc:
                assert r < 0
            elif fc > 0:
                assert r > 0


class TestUnitaryReward:
    def test_equal_losses_zero(self):
        assert unitary_reward(0.4, 0.4) == 0.0

    def test_formula_value(self):
        expected = math.tan(1.5 * 0.2 * math.pi / 2)
        assert unitary_reward(0.3, 0.5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.50952544949, abs=1e-9)

    def test_clamp_guarantees_finiteness(self):
        for delta in (1.0, 5.0, -5.0, 100.0):
            assert math.isfinite(unitary_reward(0.0, delta))

    def test_clamped_value_is_the_boundary_tangent(self):
        bound = (1.0 - 1e-3) * math.pi / 2.0
        assert unitary_reward(0.0, 10.0) == pytest.approx(math.tan(bound), abs=1e-9)


class TestPopulation:
    def entries(self, scores):
        return [Scored(Cell(2), np.zeros(0), s) for s in scores]

    def test_nonfinite_scores_rejected(self):
        config = RelmConfig(epochs=1, tournament_size=1, batch_size=1, population_size=2)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="^population scores must be finite"):
                relm_search(small_task(), config, self.entries([0.5, bad]), VOCAB)

    def test_tournament_best_and_worst(self):
        pop = self.entries([0.9, 0.5, 0.7])
        best, worst = tournament_step(pop, 3, np.random.default_rng(0))
        assert best.score == 0.9
        assert worst.score == 0.5
        assert len(pop) == 2

    def test_degenerate_single_member(self):
        pop = self.entries([0.4])
        best, worst = tournament_step(pop, 1, np.random.default_rng(0))
        assert best.score == worst.score == 0.4
        assert len(pop) == 0

    def test_tournament_larger_than_population_rejected(self):
        pop = self.entries([0.4])
        with pytest.raises(ValueError):
            tournament_step(pop, 2, np.random.default_rng(0))


class TestMutate:
    CONTROLLER = init_controller(
        ControllerConfig(n_qubits=2, max_seq=4, v_rot=VOCAB.v_rot,
                         v_ent=VOCAB.v_ent, embed_dim=4, n_heads=1,
                         n_blocks=1, ff_dim=8),
        np.random.default_rng(0),
    )

    def forward(self, parent):
        views = encode_views(parent, VOCAB, self.CONTROLLER.config.max_seq)
        return controller_forward(self.CONTROLLER, views)

    def test_all_noop_actions_give_empty_child(self):
        child = decode_actions(np.zeros((2, 4), dtype=int),
                               np.zeros((2, 2), dtype=int), VOCAB)
        assert child == Cell(2)

    def test_sampled_children_vary(self):
        parent = Cell(2, [["H"], []])
        rng = np.random.default_rng(1)
        forward = self.forward(parent)
        seen_different = False
        for _ in range(100):
            sample = mutate(forward, VOCAB, rng)
            if sample.child != parent:
                seen_different = True
                break
        assert seen_different

    def test_logprob_matches_actions(self):
        parent = Cell(2)
        rng = np.random.default_rng(2)
        forward = self.forward(parent)
        sample = mutate(forward, VOCAB, rng)
        logprob = action_logprob(*forward[0], sample.rot_actions, sample.ent_actions)
        assert logprob <= 0.0
        assert math.isfinite(logprob)


class TestInitPopulation:
    def test_random_search_mode(self):
        task = small_task()
        config = RelmConfig(epochs=1, tournament_size=2, batch_size=2,
                            init_mode="random_search", population_size=5,
                            opt_budget=FAST_OPT, seed=1)
        pop, trace = init_population(task, SPACE_CLIFFORD, config)
        assert len(pop) == 5 and trace is None

    def test_res_mode_members_satisfy_constraint(self):
        from qcas.res import ResConfig
        task = small_task()
        constraint = SoftConstraint("n_layers", 2)
        config = RelmConfig(epochs=1, tournament_size=2, batch_size=2,
                            init_mode="res", population_size=5,
                            opt_budget=FAST_OPT, seed=1)
        res_config = ResConfig(population_size=5, constraint=constraint,
                               opt_budget=FAST_OPT, max_phases=2, seed=1)
        pop, result = init_population(task, SPACE_CLIFFORD, config, res_config)
        assert len(pop) == 5 and result is not None
        assert eval_soft_constraint(constraint, result.best_cell)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^init_mode .*'annealing'"):
            RelmConfig(init_mode="annealing", population_size=3, tournament_size=2)

    def test_res_mode_needs_a_res_config(self):
        config = RelmConfig(init_mode="res", population_size=3, tournament_size=2)
        with pytest.raises(ValueError, match="res_config"):
            init_population(small_task(), SPACE_CLIFFORD, config)


class TestRelmSearch:
    def run_search(self, seed=1, epochs=3, **kwargs):
        task = small_task()
        config = RelmConfig(epochs=epochs, tournament_size=2, batch_size=2,
                            init_mode="random_search", reward_mode="unitary",
                            population_size=4, max_seq=6, embed_dim=4, n_heads=1,
                            n_blocks=1, ff_dim=8, opt_budget=FAST_OPT, seed=seed,
                            **kwargs)
        pop, _ = init_population(task, SPACE_CLIFFORD, config)
        return relm_search(task, config, pop, VOCAB), config

    def test_minimal_run_returns_valid_cell(self):
        task = small_task()
        config = RelmConfig(epochs=1, tournament_size=1, batch_size=1,
                            init_mode="random_search", reward_mode="unitary",
                            population_size=1, max_seq=6, embed_dim=4, n_heads=1,
                            n_blocks=1, ff_dim=8, opt_budget=FAST_OPT, seed=0)
        pop, _ = init_population(task, SPACE_CLIFFORD, config)
        result = relm_search(task, config, pop, VOCAB)
        assert isinstance(result.best_cell, Cell)
        assert 0.0 <= result.score <= 1.0

    def test_population_size_constant_per_epoch(self):
        result, config = self.run_search()
        # one member removed, one admitted per epoch; trace has all epochs
        assert len(result.epochs) == config.epochs

    def test_global_best_nondecreasing(self):
        result, _ = self.run_search(epochs=5)
        best = [r.best_score for r in result.epochs]
        assert all(b >= a - 1e-15 for a, b in zip(best, best[1:]))

    def test_deterministic_given_seed(self):
        a, _ = self.run_search(seed=6)
        b, _ = self.run_search(seed=6)
        assert a.best_cell == b.best_cell
        assert [vars(r) for r in a.epochs] == [vars(r) for r in b.epochs]

    def test_final_at_least_initial_with_res_init(self):
        # 1-qubit hidden-circuit task; majority over 10 seeds
        from qcas.res import ResConfig
        wins = 0
        for seed in range(10):
            target = gen_hidden_targets(1, "single", 1, 1, seed=seed)[0]
            task = UnitaryRegenTask(target)
            config = RelmConfig(epochs=2, tournament_size=2, batch_size=2,
                                init_mode="res", reward_mode="unitary",
                                population_size=4, max_seq=6, embed_dim=4,
                                n_heads=1, n_blocks=1, ff_dim=8,
                                opt_budget=FAST_OPT, seed=seed)
            res_config = ResConfig(population_size=4,
                                   constraint=SoftConstraint("n_layers", 2),
                                   opt_budget=FAST_OPT, max_phases=2, seed=seed)
            pop, _ = init_population(task, SPACE_CLIFFORD, config, res_config)
            init_best = max(e.score for e in pop)
            result = relm_search(task, config, pop, VOCAB)
            wins += result.score >= init_best - 1e-12
        assert wins >= 6

    def test_constraint_gates_admission(self):
        result, _ = self.run_search(constraint=SoftConstraint("n_gates", 3))
        assert eval_soft_constraint(SoftConstraint("n_gates", 3), result.best_cell)

    @pytest.mark.parametrize("constraint", [None, SoftConstraint("n_gates", 3)])
    def test_epochs_count_scored_and_admissible_children(self, monkeypatch, constraint):
        scored = []
        original = qcas.relm.score_cell

        def spy(cell, *args, **kwargs):
            scored.append(cell)
            return original(cell, *args, **kwargs)

        monkeypatch.setattr(qcas.relm, "score_cell", spy)
        result, config = self.run_search(epochs=4, constraint=constraint)
        assert len(scored) == config.epochs * config.batch_size
        for i, record in enumerate(result.epochs):
            children = scored[i * config.batch_size:(i + 1) * config.batch_size]
            admissible = [c for c in children
                          if constraint is None or eval_soft_constraint(constraint, c)]
            assert record.n_admissible <= record.n_scored == config.batch_size
            assert record.n_admissible == len(admissible)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="^epochs "):
            RelmConfig(epochs=0)
        with pytest.raises(ValueError, match="^tournament_size "):
            RelmConfig(tournament_size=10, population_size=5)
        with pytest.raises(ValueError):
            RelmConfig(eps_tan=0.0)


def reference_relm_search(task, config, pop, vocab, controller):
    """The RELM epoch loop with one controller forward per child: every
    mutation and every policy gradient runs its own forward pass, and every
    policy gradient its own backward pass, summed here."""
    rng = np.random.default_rng([config.seed, 0xE70])
    adam = AdamState(lr=config.learning_rate)
    eligible = pop
    if config.constraint is not None:
        eligible = [e for e in pop
                    if eval_soft_constraint(config.constraint, e.cell)] or pop
    global_best = max(eligible, key=lambda e: e.score)
    records = []
    for epoch in range(1, config.epochs + 1):
        parent, _ = tournament_step(pop, config.tournament_size, rng)
        views = encode_views(parent.cell, vocab, config.max_seq)
        children = []
        for j in range(config.batch_size):
            rot_a, ent_a = sample_actions(*controller_forward(controller, views)[0], rng=rng)
            child = decode_actions(rot_a, ent_a, vocab)
            entry = score_cell(child, task, config.opt_budget,
                               np.random.default_rng([config.seed, 0x5C0, epoch, j]),
                               theta_init=parent.theta)
            if config.reward_mode == "unitary":
                reward = unitary_reward(1.0 - parent.score, 1.0 - entry.score,
                                        config.alpha, config.eps_tan)
            else:
                reward = qae_reward(parent.score, entry.score, config.eps_tan,
                                    config.reward_sign)
            children.append((rot_a, ent_a, reward, entry))
        total = None
        for rot_a, ent_a, reward, _ in children:
            if reward != 0.0:
                forward = controller_forward(controller, views)
                grads = reinforce_grads(controller, forward, rot_a, ent_a, reward)
                total = grads if total is None else {k: total[k] + grads[k] for k in grads}
        if total is not None:
            for g in total.values():
                g /= config.batch_size
            controller, adam = adam_step(controller, total, adam)
        scored = [entry for *_, entry in children]
        if config.constraint is not None:
            scored = [e for e in scored if eval_soft_constraint(config.constraint, e.cell)]
        best_child = max(scored or [parent], key=lambda e: e.score)
        pop.append(best_child)
        if best_child.score > global_best.score:
            global_best = best_child
        records.append(EpochRecord(epoch, parent.score,
                                   float(np.mean([c[2] for c in children])),
                                   best_child.score, global_best.score,
                                   len(children), len(scored)))
    return global_best, records, controller


class TestSharedForward:
    CASES = {
        "clifford-unitary": dict(space=SPACE_CLIFFORD, reward_mode="unitary"),
        "generic-qae-constrained": dict(space=SPACE_GENERIC, reward_mode="qae",
                                        constraint=SoftConstraint("n_gates", 4)),
    }

    def setup_search(self, space, seed=2, **kwargs):
        task = small_task()
        config = RelmConfig(epochs=4, tournament_size=2, batch_size=3,
                            init_mode="random_search", population_size=4, max_seq=6,
                            embed_dim=4, n_heads=1, n_blocks=1, ff_dim=8,
                            opt_budget=FAST_OPT, seed=seed, **kwargs)
        vocab = build_vocab(space)
        pop, _ = init_population(task, space, config)
        ctrl_cfg = ControllerConfig(n_qubits=task.n_qubits, max_seq=config.max_seq,
                                    v_rot=vocab.v_rot, v_ent=vocab.v_ent, embed_dim=4,
                                    n_heads=1, n_blocks=1, ff_dim=8)
        controller = init_controller(ctrl_cfg, np.random.default_rng(seed))
        return task, config, pop, vocab, controller

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_one_forward_per_child(self, case):
        task, config, pop, vocab, controller = self.setup_search(**self.CASES[case])
        result = relm_search(task, config, copy.deepcopy(pop), vocab, copy.deepcopy(controller))
        best, records, ref_controller = reference_relm_search(
            task, config, copy.deepcopy(pop), vocab, copy.deepcopy(controller))

        def table(recs):
            return np.array([[r.epoch, r.parent_score, r.mean_reward,
                              r.best_child_score, r.best_score,
                              r.n_scored, r.n_admissible] for r in recs])

        assert np.array_equal(table(result.epochs), table(records))
        assert result.best_cell == best.cell
        assert np.array_equal(result.theta, best.theta)
        assert result.score == best.score
        # the policy was trained, so the comparison covers the gradients too;
        # one summed backward adds the children's floats in another order
        assert any(not np.array_equal(controller.tensors[k], ref_controller.tensors[k])
                   for k in controller.tensors)
        for name, tensor in ref_controller.tensors.items():
            assert np.allclose(result.controller.tensors[name], tensor, rtol=0, atol=1e-12)

    def test_one_forward_per_epoch(self, monkeypatch):
        calls = {"controller_forward": 0, "mutate": 0, "reinforce_grads": 0}

        def counted(name):
            original = getattr(qcas.relm, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(qcas.relm, name, counted(name))
        task, config, pop, vocab, controller = self.setup_search(SPACE_CLIFFORD,
                                                                 reward_mode="unitary")
        relm_search(task, config, pop, vocab, controller)
        # every epoch of this seed has a non-zero reward, so one backward each
        assert calls == {"controller_forward": config.epochs,
                         "mutate": config.epochs * config.batch_size,
                         "reinforce_grads": config.epochs}

    def test_all_zero_rewards_take_no_step(self, monkeypatch):
        # Adam would move the parameters on a zero gradient through its
        # moments, so an epoch without a non-zero reward must skip it
        states = []

        def recorded_adam(**kwargs):
            states.append(AdamState(**kwargs))
            return states[-1]

        monkeypatch.setattr(qcas.relm, "AdamState", recorded_adam)
        monkeypatch.setattr(qcas.relm, "unitary_reward", lambda *args: 0.0)
        task, config, pop, vocab, controller = self.setup_search(SPACE_CLIFFORD,
                                                                 reward_mode="unitary")
        before = copy.deepcopy(controller)
        result = relm_search(task, config, pop, vocab, controller)
        assert [r.mean_reward for r in result.epochs] == [0.0] * config.epochs
        assert [state.step for state in states] == [0]
        for name, tensor in before.tensors.items():
            assert np.array_equal(result.controller.tensors[name], tensor)
