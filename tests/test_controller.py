"""Mutation-policy network: forward shapes, sampling, REINFORCE gradients
against finite differences of the reference loss, and Adam."""

import copy

import numpy as np
import pytest
from reference import reinforce_loss

from qcas.cell import Cell, build_vocab, encode_views
from qcas.controller import (
    AdamState,
    ControllerConfig,
    adam_step,
    controller_forward,
    init_controller,
    reinforce_grads,
    sample_actions,
)
from qcas.sim import SPACE_GENERIC

VOCAB = build_vocab(SPACE_GENERIC)

TINY = ControllerConfig(n_qubits=2, max_seq=2, v_rot=VOCAB.v_rot,
                        v_ent=VOCAB.v_ent, embed_dim=4, n_heads=1,
                        n_blocks=1, ff_dim=8)


def tiny_controller(seed=0):
    return init_controller(TINY, np.random.default_rng(seed))


def _leaves(tree):
    """Every non-container value of nested tuples and lists, in order."""
    if isinstance(tree, (tuple, list)):
        return [leaf for item in tree for leaf in _leaves(item)]
    return [tree]


def worst_fd_error(params, grads, loss, rng, probes=30, step=1e-5):
    """Largest relative gap between `grads` and central differences of
    `loss()` at `probes` random parameter entries."""
    worst = 0.0
    for _ in range(probes):
        name = list(params.tensors)[rng.integers(len(params.tensors))]
        tensor = params.tensors[name]
        idx = tuple(int(rng.integers(s)) for s in tensor.shape)
        saved = tensor[idx]
        tensor[idx] = saved + step
        up = loss()
        tensor[idx] = saved - step
        down = loss()
        tensor[idx] = saved
        numeric = (up - down) / (2 * step)
        analytic = grads[name][idx]
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


class TestForward:
    def test_logit_shapes(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, views)[0]
        assert rot_logits.shape == (2, 2, VOCAB.v_rot)
        assert ent_logits.shape == (2, 2, VOCAB.v_ent)
        assert np.all(np.isfinite(rot_logits))

    def test_softmax_rows_normalized(self):
        params = tiny_controller()
        views = encode_views(Cell(2, [["RY"], []], {(0, 1): ["CNOT"]}),
                             VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, views)[0]
        assert np.allclose(softmax(rot_logits).sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(softmax(ent_logits).sum(axis=-1), 1.0, atol=1e-9)

    def test_diagonal_forced_to_noop(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        _, ent_logits = controller_forward(params, views)[0]
        for q in range(2):
            assert ent_logits[q, q].argmax() == 0
            probs = softmax(ent_logits[q, q])
            assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        params = tiny_controller()
        views = encode_views(Cell(3), VOCAB, TINY.max_seq)
        with pytest.raises(ValueError):
            controller_forward(params, views)

    def test_embed_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            ControllerConfig(n_qubits=2, max_seq=2, v_rot=3, v_ent=3,
                             embed_dim=6, n_heads=4)


class TestSampling:
    def test_saturated_logit_always_picked(self):
        rng = np.random.default_rng(0)
        rot_logits = np.zeros((1, 1, 4))
        rot_logits[0, 0, 2] = 1e6
        ent_logits = np.zeros((1, 1, 2))
        hits = sum(
            sample_actions(rot_logits, ent_logits, rng=rng)[0][0, 0] == 2
            for _ in range(1000)
        )
        assert hits >= 999

    def test_uniform_logits_sample_uniformly(self):
        rng = np.random.default_rng(1)
        rot_logits = np.zeros((1, 1, 4))
        ent_logits = np.zeros((1, 1, 2))
        counts = np.zeros(4)
        for _ in range(10_000):
            a, _ = sample_actions(rot_logits, ent_logits, rng=rng)
            counts[a[0, 0]] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)

    def test_sampling_requires_rng(self):
        with pytest.raises(TypeError):
            sample_actions(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))


class TestReinforce:
    def test_zero_reward_zero_grads(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        forward = controller_forward(params, views)
        grads = reinforce_grads(params, forward, np.zeros((2, 2), dtype=int),
                                np.zeros((2, 2), dtype=int), 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_reward_linearity(self):
        params = tiny_controller(5)
        views = encode_views(Cell(2, [["RX"], ["RZ"]]), VOCAB, TINY.max_seq)
        actions = (np.array([[1, 0], [2, 0]]), np.zeros((2, 2), dtype=int))
        forward = controller_forward(params, views)
        g1 = reinforce_grads(params, forward, *actions, 1.0)
        g2 = reinforce_grads(params, forward, *actions, 2.0)
        for name in g1:
            assert np.allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        params = tiny_controller(7)
        cell = Cell(2, [["RY"], ["RX"]], {(0, 1): ["CNOT"]})
        views = encode_views(cell, VOCAB, TINY.max_seq)
        rng = np.random.default_rng(11)
        rot_logits, ent_logits = controller_forward(params, views)[0]
        rot_a, ent_a = sample_actions(rot_logits, ent_logits, rng=rng)
        reward = 0.7
        grads = reinforce_grads(params, controller_forward(params, views),
                                rot_a, ent_a, reward)
        assert worst_fd_error(
            params, grads, lambda: reinforce_loss(params, views, rot_a, ent_a, reward),
            rng) <= 1e-3

    def test_batched_gradients_match_finite_differences(self):
        # the batched gradient is that of sum_j r_j * reinforce_loss(a_j)
        params = tiny_controller(8)
        cell = Cell(2, [["RX"], ["RZ", "RY"]], {(1, 0): ["CNOT"]})
        views = encode_views(cell, VOCAB, TINY.max_seq)
        rng = np.random.default_rng(12)
        forward = controller_forward(params, views)
        samples = [sample_actions(*forward[0], rng=rng) for _ in range(4)]
        rewards = np.array([0.7, -0.4, 0.0, 1.3])
        rot = np.stack([r for r, _ in samples])
        ent = np.stack([e for _, e in samples])
        grads = reinforce_grads(params, forward, rot, ent, rewards)

        def loss():
            return sum(reinforce_loss(params, views, r, e, w)
                       for r, e, w in zip(rot, ent, rewards))
        assert worst_fd_error(params, grads, loss, rng) <= 1e-3

    def test_batched_grads_equal_sum_of_samples(self):
        params = tiny_controller(17)
        views = encode_views(Cell(2, [["RY"], []], {(0, 1): ["CNOT"]}),
                             VOCAB, TINY.max_seq)
        forward = controller_forward(params, views)
        rng = np.random.default_rng(21)
        for b in (1, 3, 8):
            rot = rng.integers(TINY.v_rot, size=(b, 2, 2))
            ent = rng.integers(TINY.v_ent, size=(b, 2, 2))
            rot[b // 2], ent[b // 2] = rot[0], ent[0]  # a repeated action
            # signs cycle +, -, 0: positive, negative and zero rewards
            rewards = rng.uniform(0.1, 2.0, b) * np.resize([1.0, -1.0, 0.0], b)
            batched = reinforce_grads(params, forward, rot, ent, rewards)
            per_sample = [reinforce_grads(params, forward, r, e, w)
                          for r, e, w in zip(rot, ent, rewards)]
            for name, g in batched.items():
                expected = sum(grads[name] for grads in per_sample)
                assert np.allclose(g, expected, rtol=0, atol=1e-12)

    def test_batched_shapes_and_actions_checked(self):
        params = tiny_controller()
        forward = controller_forward(params, encode_views(Cell(2), VOCAB, TINY.max_seq))
        zeros = np.zeros((3, 2, 2), dtype=int)
        with pytest.raises(ValueError):
            reinforce_grads(params, forward, zeros, zeros, np.ones(2))
        with pytest.raises(ValueError):
            reinforce_grads(params, forward, zeros, zeros, 1.0)
        too_big = zeros.copy()
        too_big[1, 0, 1] = TINY.v_rot
        with pytest.raises(ValueError):
            reinforce_grads(params, forward, too_big, zeros, np.ones(3))

    def test_shared_forward_is_read_only(self):
        # one forward serves many backward passes, single-sample or batched:
        # each gives the gradients of a fresh forward or of a repeated call,
        # and none writes to the shared logits or cache
        params = tiny_controller(9)
        views = encode_views(Cell(2, [["RY"], ["RX"]], {(1, 0): ["CRZ"]}),
                             VOCAB, TINY.max_seq)
        forward = controller_forward(params, views)
        before = copy.deepcopy(forward)
        rng = np.random.default_rng(4)
        for reward in (0.9, -0.3):
            rot_a, ent_a = sample_actions(*forward[0], rng=rng)
            shared = reinforce_grads(params, forward, rot_a, ent_a, reward)
            again = reinforce_grads(params, forward, rot_a, ent_a, reward)
            fresh = reinforce_grads(params, controller_forward(params, views),
                                    rot_a, ent_a, reward)
            for name in fresh:
                assert np.array_equal(shared[name], again[name])
                assert np.array_equal(shared[name], fresh[name])
        samples = [sample_actions(*forward[0], rng=rng) for _ in range(5)]
        batch = (np.stack([r for r, _ in samples]), np.stack([e for _, e in samples]),
                 np.array([0.4, -1.1, 0.0, 2.0, 0.4]))
        first = reinforce_grads(params, forward, *batch)
        second = reinforce_grads(params, forward, *batch)
        for name in first:
            assert np.array_equal(first[name], second[name])
        arrays = [a for a in _leaves(forward) if isinstance(a, np.ndarray)]
        assert len(arrays) > 10
        for a, b in zip(_leaves(forward), _leaves(before)):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        params = tiny_controller()
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        new, state = adam_step(params, grads, AdamState())
        for name in params.tensors:
            assert np.array_equal(new.tensors[name], params.tensors[name])
        assert state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        cfg = ControllerConfig(n_qubits=1, max_seq=1, v_rot=2, v_ent=1,
                               embed_dim=2, n_heads=1, n_blocks=1, ff_dim=2)
        params = init_controller(cfg, np.random.default_rng(0))
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        grads["W_out"][0, 0] = 1.0
        state = AdamState(lr=0.01)
        new, _ = adam_step(params, grads, state)
        delta = params.tensors["W_out"][0, 0] - new.tensors["W_out"][0, 0]
        # bias-corrected m_hat = v_hat = 1 at t=1, so the step is lr/(1+eps')
        assert delta == pytest.approx(0.01, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        params = tiny_controller()
        grads = {"W_out": np.zeros(3)}
        with pytest.raises(ValueError):
            adam_step(params, grads, AdamState())
