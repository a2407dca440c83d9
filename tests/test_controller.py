"""Mutation-policy network: forward shapes, sampling, REINFORCE gradients
against finite differences of the reference loss, and Adam."""

import copy

import numpy as np
import pytest
from reference import adam_per_tensor, reinforce_loss, sample_actions_per_child

from qcas.cell import Cell, build_vocab, encode_actions
from qcas.controller import (
    AdamState,
    ControllerConfig,
    adam_step,
    controller_forward,
    init_controller,
    reinforce_grads,
    sample_actions,
)
from qcas.relm import RelmConfig
from qcas.sim import SPACE_CLIFFORD, SPACE_GENERIC

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


def sample_one(rot_logits, ent_logits, rng):
    """One sample's actions: row 0 of a `sample_actions` batch of size 1."""
    rot, ent = sample_actions(rot_logits, ent_logits, rng, size=1)
    return rot[0], ent[0]


def softmax(x):
    z = x - x.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


class TestForward:
    def test_logit_shapes(self):
        params = tiny_controller()
        slots = encode_actions(Cell(2), VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, *slots)[0]
        assert rot_logits.shape == (2, 2, VOCAB.v_rot)
        assert ent_logits.shape == (2, 2, VOCAB.v_ent)
        assert np.all(np.isfinite(rot_logits))

    def test_softmax_rows_normalized(self):
        params = tiny_controller()
        slots = encode_actions(Cell(2, [["RY"], []], {(0, 1): ["CNOT"]}),
                               VOCAB, TINY.max_seq)
        rot_logits, ent_logits = controller_forward(params, *slots)[0]
        assert np.allclose(softmax(rot_logits).sum(axis=-1), 1.0, atol=1e-9)
        assert np.allclose(softmax(ent_logits).sum(axis=-1), 1.0, atol=1e-9)

    def test_diagonal_forced_to_noop(self):
        params = tiny_controller()
        slots = encode_actions(Cell(2), VOCAB, TINY.max_seq)
        _, ent_logits = controller_forward(params, *slots)[0]
        for q in range(2):
            assert ent_logits[q, q].argmax() == 0
            probs = softmax(ent_logits[q, q])
            assert probs[0] == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_saturated_logit_always_picked(self):
        rng = np.random.default_rng(0)
        rot_logits = np.zeros((1, 1, 4))
        rot_logits[0, 0, 2] = 1e6
        ent_logits = np.zeros((1, 1, 2))
        hits = sum(
            sample_one(rot_logits, ent_logits, rng=rng)[0][0, 0] == 2
            for _ in range(1000)
        )
        assert hits >= 999

    def test_uniform_logits_sample_uniformly(self):
        rng = np.random.default_rng(1)
        rot_logits = np.zeros((1, 1, 4))
        ent_logits = np.zeros((1, 1, 2))
        counts = np.zeros(4)
        for _ in range(10_000):
            a, _ = sample_one(rot_logits, ent_logits, rng=rng)
            counts[a[0, 0]] += 1
        assert np.all(np.abs(counts / 10_000 - 0.25) < 0.02)

    def test_sampling_requires_rng(self):
        with pytest.raises(TypeError):
            sample_actions(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))

    # the controller shapes of the benchmark workloads at RelmConfig's
    # default widths: 5-qubit Clifford regeneration, 3-qubit generic denoising
    @pytest.mark.parametrize("n_qubits, space, size", [
        (5, SPACE_CLIFFORD, 32), (3, SPACE_GENERIC, 8), (5, SPACE_CLIFFORD, 1)],
        ids=["regen", "denoise", "one"])
    def test_batch_equals_children_one_at_a_time(self, n_qubits, space, size):
        defaults, vocab = RelmConfig(), build_vocab(space)
        cfg = ControllerConfig(n_qubits=n_qubits, max_seq=defaults.max_seq,
                               v_rot=vocab.v_rot, v_ent=vocab.v_ent,
                               embed_dim=defaults.embed_dim, n_heads=defaults.n_heads,
                               n_blocks=defaults.n_blocks, ff_dim=defaults.ff_dim)
        params = init_controller(cfg, np.random.default_rng(n_qubits))
        parent = Cell(n_qubits, [[vocab.rotation_kinds[1]]] + [[]] * (n_qubits - 1),
                      {(0, 1): [vocab.entangle_kinds[1]]})
        logits = controller_forward(params, *encode_actions(parent, vocab, cfg.max_seq))[0]
        batched_rng, single_rng, reference_rng = (np.random.default_rng(size)
                                                  for _ in range(3))
        rot, ent = sample_actions(*logits, batched_rng, size=size)
        assert rot.shape == (size, n_qubits, cfg.max_seq)
        assert ent.shape == (size, n_qubits, n_qubits)
        for j in range(size):
            one = sample_one(*logits, single_rng)
            per_child = sample_actions_per_child(*logits, reference_rng)
            for batch_part, single, reference in zip((rot[j], ent[j]), one, per_child):
                assert np.array_equal(batch_part, single)
                assert np.array_equal(batch_part, reference)
        assert (batched_rng.bit_generator.state == single_rng.bit_generator.state
                == reference_rng.bit_generator.state)


class TestReinforce:
    def test_zero_reward_zero_grads(self):
        params = tiny_controller()
        slots = encode_actions(Cell(2), VOCAB, TINY.max_seq)
        forward = controller_forward(params, *slots)
        grads = reinforce_grads(params, forward, np.zeros((1, 2, 2), dtype=int),
                                np.zeros((1, 2, 2), dtype=int), np.array([0.0]))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_reward_linearity(self):
        params = tiny_controller(5)
        slots = encode_actions(Cell(2, [["RX"], ["RZ"]]), VOCAB, TINY.max_seq)
        actions = (np.array([[[1, 0], [2, 0]]]), np.zeros((1, 2, 2), dtype=int))
        forward = controller_forward(params, *slots)
        g1 = reinforce_grads(params, forward, *actions, np.array([1.0]))
        g2 = reinforce_grads(params, forward, *actions, np.array([2.0]))
        for name in g1:
            assert np.allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        params = tiny_controller(7)
        cell = Cell(2, [["RY"], ["RX"]], {(0, 1): ["CNOT"]})
        slots = encode_actions(cell, VOCAB, TINY.max_seq)
        rng = np.random.default_rng(11)
        rot_logits, ent_logits = controller_forward(params, *slots)[0]
        rot_a, ent_a = sample_one(rot_logits, ent_logits, rng=rng)
        reward = 0.7
        grads = reinforce_grads(params, controller_forward(params, *slots),
                                rot_a[None], ent_a[None], np.array([reward]))
        assert worst_fd_error(
            params, grads, lambda: reinforce_loss(params, slots, rot_a, ent_a, reward),
            rng) <= 1e-3

    def test_batched_gradients_match_finite_differences(self):
        # the batched gradient is that of sum_j r_j * reinforce_loss(a_j)
        params = tiny_controller(8)
        cell = Cell(2, [["RX"], ["RZ", "RY"]], {(1, 0): ["CNOT"]})
        slots = encode_actions(cell, VOCAB, TINY.max_seq)
        rng = np.random.default_rng(12)
        forward = controller_forward(params, *slots)
        samples = [sample_one(*forward[0], rng=rng) for _ in range(4)]
        rewards = np.array([0.7, -0.4, 0.0, 1.3])
        rot = np.stack([r for r, _ in samples])
        ent = np.stack([e for _, e in samples])
        grads = reinforce_grads(params, forward, rot, ent, rewards)

        def loss():
            return sum(reinforce_loss(params, slots, r, e, w)
                       for r, e, w in zip(rot, ent, rewards))
        assert worst_fd_error(params, grads, loss, rng) <= 1e-3

    def test_batched_grads_equal_sum_of_samples(self):
        params = tiny_controller(17)
        slots = encode_actions(Cell(2, [["RY"], []], {(0, 1): ["CNOT"]}),
                               VOCAB, TINY.max_seq)
        forward = controller_forward(params, *slots)
        rng = np.random.default_rng(21)
        for b in (1, 3, 8):
            rot = rng.integers(TINY.v_rot, size=(b, 2, 2))
            ent = rng.integers(TINY.v_ent, size=(b, 2, 2))
            rot[b // 2], ent[b // 2] = rot[0], ent[0]  # a repeated action
            # signs cycle +, -, 0: positive, negative and zero rewards
            rewards = rng.uniform(0.1, 2.0, b) * np.resize([1.0, -1.0, 0.0], b)
            batched = reinforce_grads(params, forward, rot, ent, rewards)
            per_sample = [reinforce_grads(params, forward, r[None], e[None], np.array([w]))
                          for r, e, w in zip(rot, ent, rewards)]
            for name, g in batched.items():
                expected = sum(grads[name] for grads in per_sample)
                assert np.allclose(g, expected, rtol=0, atol=1e-12)

    def test_shared_forward_is_read_only(self):
        # one forward serves many backward passes, single-sample or batched:
        # each gives the gradients of a fresh forward or of a repeated call,
        # and none writes to the shared logits or cache
        params = tiny_controller(9)
        slots = encode_actions(Cell(2, [["RY"], ["RX"]], {(1, 0): ["CRZ"]}),
                               VOCAB, TINY.max_seq)
        forward = controller_forward(params, *slots)
        before = copy.deepcopy(forward)
        rng = np.random.default_rng(4)
        for reward in (0.9, -0.3):
            rot_a, ent_a = sample_one(*forward[0], rng=rng)
            one = (rot_a[None], ent_a[None], np.array([reward]))
            shared = reinforce_grads(params, forward, *one)
            again = reinforce_grads(params, forward, *one)
            fresh = reinforce_grads(params, controller_forward(params, *slots), *one)
            for name in fresh:
                assert np.array_equal(shared[name], again[name])
                assert np.array_equal(shared[name], fresh[name])
        samples = [sample_one(*forward[0], rng=rng) for _ in range(5)]
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
        new, state = adam_step(params, grads, AdamState(lr=3e-4))
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

    def test_flat_update_equals_per_tensor_update(self):
        params = tiny_controller(3)
        rng = np.random.default_rng(5)
        state = AdamState(lr=0.01)
        expected, m, v = dict(params.tensors), {}, {}
        for step in range(1, 5):
            # non-zero gradients of mixed scale, some entries exactly zero
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=t.shape)
                     * (rng.random(t.shape) > 0.2) for k, t in params.tensors.items()}
            before = copy.deepcopy(params.tensors)
            new, state = adam_step(params, grads, state)
            expected = adam_per_tensor(expected, grads, m, v, step, 0.01)
            assert state.step == step
            assert list(new.tensors) == list(params.tensors)
            for name, tensor in expected.items():
                assert new.tensors[name].shape == tensor.shape
                assert np.array_equal(new.tensors[name], tensor)
            # the step left the previous params as they were, and a write
            # into the new tensors reaches neither them nor the moments
            moments = state.m.copy(), state.v.copy()
            for name, tensor in new.tensors.items():
                assert np.array_equal(params.tensors[name], before[name])
                saved = tensor.copy()
                tensor += 1.0
                assert np.array_equal(params.tensors[name], before[name])
                tensor[...] = saved
            assert np.array_equal(state.m, moments[0])
            assert np.array_equal(state.v, moments[1])
            params = new
