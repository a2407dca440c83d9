"""Mutation-policy network: forward shapes, sampling, REINFORCE gradients
against finite differences, Adam and checkpointing."""

import copy
import math

import numpy as np
import pytest

from qcas.cell import Cell, build_vocab, encode_views
from qcas.controller import (
    AdamState,
    ControllerConfig,
    accumulate_grads,
    action_logprob,
    adam_step,
    controller_forward,
    controller_from_dict,
    controller_to_dict,
    init_controller,
    reinforce_grads,
    reinforce_loss,
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


def softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


class TestForward:
    def test_logit_shapes(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, views)
        assert rot_logits.shape == (2, 2, VOCAB.v_rot)
        assert ent_logits.shape == (2, 2, VOCAB.v_ent)
        assert np.all(np.isfinite(rot_logits))

    def test_softmax_rows_normalized(self):
        params = tiny_controller()
        views = encode_views(Cell(2, [["RY"], []], {(0, 1): ["CNOT"]}),
                             VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, views)
        assert np.allclose(softmax(rot_logits).sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(softmax(ent_logits).sum(axis=-1), 1.0, atol=1e-9)

    def test_diagonal_forced_to_noop(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        _, ent_logits = controller_forward(params, views)
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
            a, _, _ = sample_actions(rot_logits, ent_logits, rng=rng)
            counts[a[0, 0]] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)

    def test_greedy_pick_maximizes_logprob(self):
        params = tiny_controller(3)
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, views)
        rot_a, ent_a, greedy_lp = sample_actions(rot_logits, ent_logits, greedy=True)
        # any single-slot deviation can only lower the total log-probability
        for q in range(2):
            for s in range(2):
                for alt in range(VOCAB.v_rot):
                    mutated = rot_a.copy()
                    mutated[q, s] = alt
                    lp = action_logprob(rot_logits, ent_logits, mutated, ent_a)
                    assert lp <= greedy_lp + 1e-12

    def test_sampling_requires_rng(self):
        with pytest.raises(ValueError):
            sample_actions(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))


class TestReinforce:
    def test_zero_reward_zero_grads(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        forward = controller_forward(params, views, with_cache=True)
        grads = reinforce_grads(params, forward, np.zeros((2, 2), dtype=int),
                                np.zeros((2, 2), dtype=int), 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_reward_linearity(self):
        params = tiny_controller(5)
        views = encode_views(Cell(2, [["RX"], ["RZ"]]), VOCAB, TINY.max_seq)
        actions = (np.array([[1, 0], [2, 0]]), np.zeros((2, 2), dtype=int))
        forward = controller_forward(params, views, with_cache=True)
        g1 = reinforce_grads(params, forward, *actions, 1.0)
        g2 = reinforce_grads(params, forward, *actions, 2.0)
        for name in g1:
            assert np.allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        params = tiny_controller(7)
        cell = Cell(2, [["RY"], ["RX"]], {(0, 1): ["CNOT"]})
        views = encode_views(cell, VOCAB, TINY.max_seq)
        rng = np.random.default_rng(11)
        rot_logits, ent_logits = controller_forward(params, views)
        rot_a, ent_a, _ = sample_actions(rot_logits, ent_logits, rng=rng)
        reward = 0.7
        grads = reinforce_grads(params, controller_forward(params, views, with_cache=True),
                                rot_a, ent_a, reward)
        step = 1e-5
        worst = 0.0
        for _ in range(30):
            name = list(params.tensors)[rng.integers(len(params.tensors))]
            tensor = params.tensors[name]
            idx = tuple(int(rng.integers(s)) for s in tensor.shape)
            saved = tensor[idx]
            tensor[idx] = saved + step
            up = reinforce_loss(params, views, rot_a, ent_a, reward)
            tensor[idx] = saved - step
            down = reinforce_loss(params, views, rot_a, ent_a, reward)
            tensor[idx] = saved
            numeric = (up - down) / (2 * step)
            analytic = grads[name][idx]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
        assert worst <= 1e-3

    def test_shared_forward_is_read_only(self):
        # one forward serves many backward passes: each gives the gradients
        # of a fresh forward, and none writes to the shared logits or cache
        params = tiny_controller(9)
        views = encode_views(Cell(2, [["RY"], ["RX"]], {(1, 0): ["CRZ"]}),
                             VOCAB, TINY.max_seq)
        forward = controller_forward(params, views, with_cache=True)
        before = copy.deepcopy(forward)
        rng = np.random.default_rng(4)
        for reward in (0.9, -0.3):
            rot_a, ent_a, _ = sample_actions(*forward[0], rng=rng)
            shared = reinforce_grads(params, forward, rot_a, ent_a, reward)
            again = reinforce_grads(params, forward, rot_a, ent_a, reward)
            fresh = reinforce_grads(params, controller_forward(params, views, with_cache=True),
                                    rot_a, ent_a, reward)
            for name in fresh:
                assert np.array_equal(shared[name], again[name])
                assert np.array_equal(shared[name], fresh[name])
        arrays = [a for a in _leaves(forward) if isinstance(a, np.ndarray)]
        assert len(arrays) > 10
        for a, b in zip(_leaves(forward), _leaves(before)):
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b

    def test_accumulate_grads(self):
        params = tiny_controller()
        views = encode_views(Cell(2), VOCAB, TINY.max_seq)
        actions = (np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
        g = reinforce_grads(params, controller_forward(params, views, with_cache=True),
                            *actions, 1.0)
        total = accumulate_grads(None, g)
        total = accumulate_grads(total, g)
        for name in g:
            assert np.allclose(total[name], 2.0 * g[name])


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


class TestCheckpoint:
    def test_roundtrip(self):
        params = tiny_controller(13)
        doc = controller_to_dict(params)
        back = controller_from_dict(doc)
        assert back.config == params.config
        for name, tensor in params.tensors.items():
            assert np.allclose(back.tensors[name], tensor, atol=0)

    def test_roundtrip_preserves_forward_outputs(self):
        params = tiny_controller(13)
        back = controller_from_dict(controller_to_dict(params))
        views = encode_views(Cell(2, [["RZ"], []]), VOCAB, TINY.max_seq)
        a = controller_forward(params, views)
        b = controller_forward(back, views)
        assert np.allclose(a[0], b[0]) and np.allclose(a[1], b[1])

    def test_unknown_format_rejected(self):
        doc = controller_to_dict(tiny_controller())
        doc["format"] = 2
        with pytest.raises(ValueError):
            controller_from_dict(doc)
