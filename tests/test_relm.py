"""Regularized evolution with learned mutation: rewards, tournaments,
mutation, the full search loop and its invariants."""

import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import UNBOUNDED, action_logprob

import qcas.relm
from qcas.cell import (
    Cell,
    SoftConstraint,
    build_vocab,
    decode_actions,
    encode_actions,
    eval_soft_constraint,
    metrics,
    random_cell,
    select_best,
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
from qcas.optim import Draws, OptBudget, Scored, score_cell
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
from qcas.res import ResConfig
from qcas.sim import SPACE_CLIFFORD, SPACE_GENERIC
from qcas.tasks import UnitaryRegenTask, gen_hidden_targets, random_search

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

    def test_at_or_above_the_clamp_the_reward_is_the_boundary_tangent(self):
        edge = 1.0 - qcas.relm.DEFAULT_EPS_TAN
        bound = edge * math.pi / 2.0
        for f in (edge, math.nextafter(edge, 2.0), 1.0, 1.0 + 2.0**-52):
            assert qae_reward(0.0, f) == math.tan(bound)

    def test_same_bits_as_clamping_the_fidelity(self):
        # the tangent's own clamp replaces a clamp of f_child at 1 - eps
        edge = 1.0 - qcas.relm.DEFAULT_EPS_TAN
        grid = np.linspace(0.0, 1.0 + 1e-3, 20003).tolist()
        near = [edge]
        for _ in range(50):
            near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], 2.0)]
        for f in grid + near:
            assert qae_reward(0.0, f) == math.tan(min(f, edge) * math.pi / 2.0)

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
        assert unitary_reward(0.4, 0.4, 1.5) == 0.0

    def test_formula_value(self):
        expected = math.tan(1.5 * 0.2 * math.pi / 2)
        assert unitary_reward(0.3, 0.5, 1.5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.50952544949, abs=1e-9)

    def test_clamp_guarantees_finiteness(self):
        for delta in (1.0, 5.0, -5.0, 100.0):
            assert math.isfinite(unitary_reward(0.0, delta, 1.5))

    def test_clamped_value_is_the_boundary_tangent(self):
        bound = (1.0 - 1e-3) * math.pi / 2.0
        assert unitary_reward(0.0, 10.0, 1.5) == pytest.approx(math.tan(bound), abs=1e-9)


class TestPopulation:
    def entries(self, scores):
        return [Scored(Cell(2), np.zeros(0), s) for s in scores]

    def test_nonfinite_scores_rejected(self):
        config = RelmConfig(epochs=1, tournament_size=1, batch_size=1, population_size=2)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="^population scores must be finite"):
                relm_search(small_task(), config, self.entries([0.5, bad]), VOCAB, UNBOUNDED,
                            OptBudget(), 6090)

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
        return controller_forward(self.CONTROLLER,
                                  *encode_actions(parent, VOCAB, self.CONTROLLER.config.max_seq))

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
            [child], _, _ = mutate(forward, VOCAB, rng, 1)
            if child != parent:
                seen_different = True
                break
        assert seen_different

    def test_logprob_matches_actions(self):
        parent = Cell(2)
        rng = np.random.default_rng(2)
        forward = self.forward(parent)
        _, rot_actions, ent_actions = mutate(forward, VOCAB, rng, 1)
        logprob = action_logprob(*forward[0], rot_actions[0], ent_actions[0])
        assert logprob <= 0.0
        assert math.isfinite(logprob)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 5), max_seq=st.integers(1, 8),
           space=st.sampled_from([SPACE_GENERIC, SPACE_CLIFFORD]),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1e6),
           batch=st.integers(1, 6))
    def test_batch_stays_in_the_policy_shapes(self, n, max_seq, space, seed, scale, batch):
        # what decoding and the policy update rely on without checking it:
        # sampled ids lie in their vocabulary and the controller's shapes,
        # even where logits scaled up to 1e6 saturate the softmax
        vocab = build_vocab(space)
        rng = np.random.default_rng(seed)
        params = init_controller(
            ControllerConfig(n_qubits=n, max_seq=max_seq, v_rot=vocab.v_rot,
                             v_ent=vocab.v_ent, embed_dim=4, n_heads=2, n_blocks=1,
                             ff_dim=8), rng)
        params.tensors["W_out"] *= scale  # the logits are linear in W_out
        parent = random_cell(vocab, n, Draws(np.random.default_rng(seed)), max_seq, UNBOUNDED)
        forward = controller_forward(params, *encode_actions(parent, vocab, max_seq))
        cells, rot, ent = mutate(forward, vocab, rng, batch)
        assert rot.shape == (batch, n, max_seq) and ent.shape == (batch, n, n)
        assert 0 <= rot.min() and rot.max() < vocab.v_rot
        assert 0 <= ent.min() and ent.max() < vocab.v_ent
        assert np.all(ent[:, np.arange(n), np.arange(n)] == 0)  # NO_OP
        for child in cells:
            assert isinstance(child, Cell) and child.n_qubits == n
            assert all(len(ops) <= max_seq and set(ops) <= set(vocab.rotation_kinds[1:])
                       for ops in child.node_ops)
            assert all(set(ops) <= set(vocab.entangle_kinds[1:]) for _, ops in child.edge_ops)
        grads = reinforce_grads(params, forward, rot, ent, rng.normal(size=batch))
        assert grads.keys() == params.tensors.keys()
        assert all(grads[k].shape == t.shape for k, t in params.tensors.items())
        new, _ = adam_step(params, grads, AdamState(lr=1e-3))
        assert all(new.tensors[k].shape == t.shape for k, t in params.tensors.items())


class TestInitPopulation:
    def test_random_search_mode(self):
        task = small_task()
        config = RelmConfig(epochs=1, tournament_size=2, batch_size=2,
                            init_mode="random_search", population_size=5)
        pop, trace = init_population(task, VOCAB, config,
                                     ResConfig(constraint=UNBOUNDED), FAST_OPT, 1)
        assert len(pop) == 5 and trace is None

    def test_res_mode_members_satisfy_constraint(self):
        task = small_task()
        constraint = SoftConstraint("n_layers", 2)
        config = RelmConfig(epochs=1, tournament_size=2, batch_size=2,
                            init_mode="res", population_size=5)
        res_config = ResConfig(population_size=5, constraint=constraint, max_phases=2)
        pop, result = init_population(task, VOCAB, config, res_config, FAST_OPT, 1)
        assert len(pop) == 5 and result is not None
        assert eval_soft_constraint(constraint, result.best.cell)

    @pytest.mark.parametrize("init_mode", ["res", "random_search"])
    def test_random_members_are_one_random_search(self, init_mode):
        # RES keeps at most 3 members, so the population of 5 is topped up
        task = small_task()
        constraint = SoftConstraint("n_layers", 2)
        config = RelmConfig(epochs=1, tournament_size=2, batch_size=2,
                            init_mode=init_mode, population_size=5)
        res_config = ResConfig(population_size=3, constraint=constraint, max_phases=2)
        seed = 4
        pop, result = init_population(task, VOCAB, config, res_config, FAST_OPT, seed)
        kept = result.population if init_mode == "res" else []
        top_up = seed + 1 if init_mode == "res" else seed
        _, drawn = random_search(task, VOCAB, 5 - len(kept), constraint, top_up,
                                 layer_budget=config.layer_budget, opt_budget=FAST_OPT)
        assert len(kept) <= 3 and len(pop) == 5
        for member, expected in zip(pop, kept + drawn, strict=True):
            assert member.cell == expected.cell and member.score == expected.score
            assert np.array_equal(member.theta, expected.theta)
        assert all(eval_soft_constraint(constraint, e.cell) for e in pop)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^init_mode .*'annealing'"):
            RelmConfig(init_mode="annealing", population_size=3, tournament_size=2)


class TestRelmSearch:
    def run_search(self, seed=1, epochs=3, constraint=UNBOUNDED):
        task = small_task()
        config = RelmConfig(epochs=epochs, tournament_size=2, batch_size=2,
                            init_mode="random_search", reward_mode="unitary",
                            population_size=4, max_seq=6, embed_dim=4, n_heads=1,
                            n_blocks=1, ff_dim=8)
        pop, _ = init_population(task, VOCAB, config,
                                 ResConfig(constraint=constraint), FAST_OPT, seed)
        return relm_search(task, config, pop, VOCAB, constraint, FAST_OPT, seed), config

    def test_minimal_run_returns_valid_cell(self):
        task = small_task()
        config = RelmConfig(epochs=1, tournament_size=1, batch_size=1,
                            init_mode="random_search", reward_mode="unitary",
                            population_size=1, max_seq=6, embed_dim=4, n_heads=1,
                            n_blocks=1, ff_dim=8)
        pop, _ = init_population(task, VOCAB, config,
                                 ResConfig(constraint=UNBOUNDED), FAST_OPT, 0)
        result = relm_search(task, config, pop, VOCAB, UNBOUNDED, FAST_OPT, 0)
        assert isinstance(result.best.cell, Cell)
        assert 0.0 <= result.best.score <= 1.0

    def test_starting_population_outside_the_constraint_is_rejected(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a child was scored")

        monkeypatch.setattr(qcas.relm, "score_cell", unexpected)
        task = small_task()
        config = RelmConfig(epochs=1, tournament_size=1, batch_size=1,
                            init_mode="random_search", reward_mode="unitary",
                            population_size=2, max_seq=6, embed_dim=4, n_heads=1,
                            n_blocks=1, ff_dim=8)
        # two gates each: no member meets n_gates <= 1
        pop = [Scored(Cell(2, [["H", "S"], []]), np.zeros(0), 0.5),
               Scored(Cell(2, [["H"], []], {(0, 1): ["CNOT"]}), np.zeros(0), 0.7)]
        with pytest.raises(ValueError,
                           match=r"^no member of the starting population meets n_gates <= 1$"):
            relm_search(task, config, pop, VOCAB, SoftConstraint("n_gates", 1), FAST_OPT, 0)

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
        assert a.best.cell == b.best.cell
        assert [vars(r) for r in a.epochs] == [vars(r) for r in b.epochs]

    def test_final_at_least_initial_with_res_init(self):
        # 1-qubit hidden-circuit task; majority over 10 seeds
        wins = 0
        for seed in range(10):
            target = gen_hidden_targets(1, "single", 1, 1, seed=seed)[0]
            task = UnitaryRegenTask(target)
            config = RelmConfig(epochs=2, tournament_size=2, batch_size=2,
                                init_mode="res", reward_mode="unitary",
                                population_size=4, max_seq=6, embed_dim=4,
                                n_heads=1, n_blocks=1, ff_dim=8)
            res_config = ResConfig(population_size=4,
                                   constraint=SoftConstraint("n_layers", 2), max_phases=2)
            pop, _ = init_population(task, VOCAB, config, res_config, FAST_OPT, seed)
            init_best = max(e.score for e in pop)
            result = relm_search(task, config, pop, VOCAB, res_config.constraint, FAST_OPT,
                                 seed)
            wins += result.best.score >= init_best - 1e-12
        assert wins >= 6

    def test_constraint_gates_admission(self):
        result, _ = self.run_search(constraint=SoftConstraint("n_gates", 3))
        assert eval_soft_constraint(SoftConstraint("n_gates", 3), result.best.cell)

    @pytest.mark.parametrize("constraint", [UNBOUNDED, SoftConstraint("n_gates", 3)])
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
            admissible = [c for c in children if eval_soft_constraint(constraint, c)]
            assert record.n_admissible <= record.n_scored == config.batch_size
            assert record.n_admissible == len(admissible)

    def tie_search(self, monkeypatch, pop, child_score, batch_size, seed=0):
        """`relm_search` for one epoch over `SPACE_GENERIC`, with every child
        scored `child_score` without a fit; returns the result and the
        children's cells in scoring order."""
        children = []

        def unfitted(cell, *args, **kwargs):
            children.append(cell)
            return Scored(cell, np.zeros(metrics(cell).n_params), child_score)

        monkeypatch.setattr(qcas.relm, "score_cell", unfitted)
        config = RelmConfig(epochs=1, tournament_size=1, batch_size=batch_size,
                            init_mode="random_search", population_size=len(pop), max_seq=6,
                            embed_dim=4, n_heads=1, n_blocks=1, ff_dim=8)
        result = relm_search(small_task(), config, pop, build_vocab(SPACE_GENERIC),
                             UNBOUNDED, FAST_OPT, seed)
        return result, children

    def test_tied_starting_members_go_to_fewer_parameters(self, monkeypatch):
        more = Scored(Cell(2, [["RX", "RY"], []]), np.zeros(2), 0.8)
        fewer = Scored(Cell(2, [["RX"], []]), np.zeros(1), 0.8)
        # every child scores lower, so the starting best is the answer
        result, _ = self.tie_search(monkeypatch, [more, fewer], 0.1, batch_size=2)
        assert result.best is fewer

    def test_tied_children_admit_fewer_parameters(self, monkeypatch):
        pop = [Scored(Cell(2, [["RX"], []]), np.zeros(1), 0.5)]
        result, children = self.tie_search(monkeypatch, pop, 0.9, batch_size=8)
        n_params = [metrics(cell).n_params for cell in children]
        fewest = children[n_params.index(min(n_params))]
        # list order alone would admit the first child, which has more
        assert n_params[0] > min(n_params)
        assert pop[-1].cell == fewest and result.best.cell == fewest

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="^epochs "):
            RelmConfig(epochs=0)
        with pytest.raises(ValueError, match="^tournament_size "):
            RelmConfig(tournament_size=10, population_size=5)
        # a random parent has up to layer_budget rotations per qubit, one a slot
        with pytest.raises(ValueError, match=r"^layer_budget must be <= max_seq 2, got 4$"):
            RelmConfig(init_mode="random_search", layer_budget=4, max_seq=2)


def initial_controller(task, config, vocab, seed):
    """The policy that `relm_search` starts from at `seed`."""
    ctrl_cfg = ControllerConfig(n_qubits=task.n_qubits, max_seq=config.max_seq,
                                v_rot=vocab.v_rot, v_ent=vocab.v_ent,
                                embed_dim=config.embed_dim, n_heads=config.n_heads,
                                n_blocks=config.n_blocks, ff_dim=config.ff_dim)
    return init_controller(ctrl_cfg, np.random.default_rng([seed, 0xC7]))


def reference_relm_search(task, config, pop, vocab, constraint, opt_budget, seed):
    """The RELM epoch loop with one controller forward per child: every
    mutation and every policy gradient runs its own forward pass, and every
    policy gradient its own backward pass, summed here."""
    controller = initial_controller(task, config, vocab, seed)
    rng = np.random.default_rng([seed, 0xE70])
    adam = AdamState(lr=config.learning_rate)
    eligible = [e for e in pop if eval_soft_constraint(constraint, e.cell)]
    global_best = eligible[select_best(eligible)]
    records = []
    for epoch in range(1, config.epochs + 1):
        parent, _ = tournament_step(pop, config.tournament_size, rng)
        slots = encode_actions(parent.cell, vocab, config.max_seq)
        children = []
        for j in range(config.batch_size):
            rot_a, ent_a = (a[0] for a in sample_actions(
                *controller_forward(controller, *slots)[0], rng=rng, size=1))
            child = decode_actions(rot_a, ent_a, vocab)
            entry = score_cell(child, task, opt_budget,
                               functools.partial(np.random.default_rng,
                                                 [seed, 0x5C0, epoch, j]),
                               theta_init=parent.theta)
            if config.reward_mode == "unitary":
                reward = unitary_reward(1.0 - parent.score, 1.0 - entry.score,
                                        config.alpha)
            else:
                reward = qae_reward(parent.score, entry.score)
            children.append((rot_a, ent_a, reward, entry))
        total = None
        for rot_a, ent_a, reward, _ in children:
            if reward != 0.0:
                forward = controller_forward(controller, *slots)
                grads = reinforce_grads(controller, forward, rot_a[None], ent_a[None],
                                        np.array([reward]))
                total = grads if total is None else {k: total[k] + grads[k] for k in grads}
        if total is not None:
            for g in total.values():
                g /= config.batch_size
            controller, adam = adam_step(controller, total, adam)
        scored = [entry for *_, entry in children
                  if eval_soft_constraint(constraint, entry.cell)]
        candidates = scored or [parent]
        best_child = candidates[select_best(candidates)]
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
        "clifford-unitary": dict(space=SPACE_CLIFFORD, reward_mode="unitary",
                                 constraint=UNBOUNDED),
        "generic-qae-constrained": dict(space=SPACE_GENERIC, reward_mode="qae",
                                        constraint=SoftConstraint("n_gates", 4)),
    }

    SEED = 2

    def setup_search(self, space, constraint=UNBOUNDED, **kwargs):
        task = small_task()
        config = RelmConfig(epochs=4, tournament_size=2, batch_size=3,
                            init_mode="random_search", population_size=4, max_seq=6,
                            embed_dim=4, n_heads=1, n_blocks=1, ff_dim=8, **kwargs)
        vocab = build_vocab(space)
        pop, _ = init_population(task, vocab, config, ResConfig(constraint=constraint),
                                 FAST_OPT, self.SEED)
        return task, config, pop, vocab, initial_controller(task, config, vocab, self.SEED)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_one_forward_per_child(self, case):
        task, config, pop, vocab, controller = self.setup_search(**self.CASES[case])
        constraint = self.CASES[case]["constraint"]
        result = relm_search(task, config, copy.deepcopy(pop), vocab, constraint, FAST_OPT,
                             self.SEED)
        best, records, ref_controller = reference_relm_search(
            task, config, copy.deepcopy(pop), vocab, constraint, FAST_OPT, self.SEED)

        def table(recs):
            return np.array([[r.epoch, r.parent_score, r.mean_reward,
                              r.best_child_score, r.best_score,
                              r.n_scored, r.n_admissible] for r in recs])

        assert np.array_equal(table(result.epochs), table(records))
        assert result.best.cell == best.cell
        assert np.array_equal(result.best.theta, best.theta)
        assert result.best.score == best.score
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
        task, config, pop, vocab, _ = self.setup_search(SPACE_CLIFFORD, reward_mode="unitary")
        relm_search(task, config, pop, vocab, UNBOUNDED, FAST_OPT, self.SEED)
        # every epoch of this seed has a non-zero reward, so one backward
        # each; one mutate call samples an epoch's whole batch
        assert calls == {"controller_forward": config.epochs,
                         "mutate": config.epochs,
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
        task, config, pop, vocab, before = self.setup_search(SPACE_CLIFFORD,
                                                             reward_mode="unitary")
        result = relm_search(task, config, pop, vocab, UNBOUNDED, FAST_OPT, self.SEED)
        assert [r.mean_reward for r in result.epochs] == [0.0] * config.epochs
        assert [state.step for state in states] == [0]
        for name, tensor in before.tensors.items():
            assert np.array_equal(result.controller.tensors[name], tensor)
