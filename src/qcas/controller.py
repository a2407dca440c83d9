"""Mutation-policy network: embeddings, transformer encoder stack, output
projection, categorical action sampling, REINFORCE gradients and Adam.

Everything is plain numpy with hand-written backpropagation; gradient
correctness is pinned by a finite-difference test at desk scale.

`controller_forward` returns the logits together with the cache that
`reinforce_grads` backpropagates from.  The backward pass only reads the
cache, so one forward serves every action sampled and every gradient taken at
the same parameters and parent.  RELM runs one forward, one Gumbel draw for
its whole batch of actions, one backward of the batch's summed gradients and
one Adam step, over all tensors as one flat vector, per epoch.  Actions are
always sampled, from the caller's rng.

A parent goes in as the action slots a child comes out as: rotation ids
`(n_qubits, max_seq)` and entanglement ids `(n_qubits, n_qubits)`.  Token
layout: the n_qubits * max_seq rotation slots followed by the n_qubits *
(n_qubits - 1) ordered-pair entanglement slots (lexicographic, diagonal
excluded).  Learned positional embeddings distinguish slots.  The
output projection maps each token to 2e values; the first half is scored
against the rotation embedding matrix, the second half against the
entanglement embedding matrix (tied weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LN_EPS = 1e-5
_NEG_INF = -1e9
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ControllerConfig:
    n_qubits: int
    max_seq: int
    v_rot: int
    v_ent: int
    embed_dim: int
    n_heads: int  # divides embed_dim, as `RelmConfig` checks
    n_blocks: int
    ff_dim: int

    @property
    def n_rot_tokens(self) -> int:
        return self.n_qubits * self.max_seq

    @property
    def n_ent_tokens(self) -> int:
        return self.n_qubits * (self.n_qubits - 1)

    @property
    def n_tokens(self) -> int:
        return self.n_rot_tokens + self.n_ent_tokens


@dataclass
class ControllerParams:
    config: ControllerConfig
    tensors: dict = field(default_factory=dict)


def init_controller(config: ControllerConfig, rng: np.random.Generator) -> ControllerParams:
    """Uniform +-1/sqrt(fan_in) weights, unit layer-norm gains, zero biases."""
    e, f = config.embed_dim, config.ff_dim

    def u(shape, fan_in):
        lim = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-lim, lim, size=shape)

    t = {
        "W_s": u((config.v_rot, e), config.v_rot),
        "W_m": u((config.v_ent, e), config.v_ent),
        "pos": u((config.n_tokens, e), e),
        "W_out": u((e, 2 * e), e),
    }
    for i in range(config.n_blocks):
        t[f"enc{i}.ln1_g"] = np.ones(e)
        t[f"enc{i}.ln1_b"] = np.zeros(e)
        t[f"enc{i}.Wq"] = u((e, e), e)
        t[f"enc{i}.Wk"] = u((e, e), e)
        t[f"enc{i}.Wv"] = u((e, e), e)
        t[f"enc{i}.Wo"] = u((e, e), e)
        t[f"enc{i}.ln2_g"] = np.ones(e)
        t[f"enc{i}.ln2_b"] = np.zeros(e)
        t[f"enc{i}.W1"] = u((e, f), e)
        t[f"enc{i}.b1"] = np.zeros(f)
        t[f"enc{i}.W2"] = u((f, e), f)
        t[f"enc{i}.b2"] = np.zeros(e)
    return ControllerParams(config, t)


# ---------------------------------------------------------------------------
# Forward / backward primitives
# ---------------------------------------------------------------------------


def _ln_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _ln_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=axis, keepdims=True)


def _attn_forward(x, p, prefix, h):
    wq, wk, wv, wo = (p[prefix + n] for n in ("Wq", "Wk", "Wv", "Wo"))
    t, e = x.shape
    dk = e // h

    def split(m):
        return m.reshape(t, h, dk).transpose(1, 0, 2)  # (h, t, dk)

    q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(dk)
    probs = _softmax(scores)
    heads = probs @ v  # (h, t, dk)
    concat = heads.transpose(1, 0, 2).reshape(t, e)
    out = concat @ wo
    cache = (x, q, k, v, probs, concat, wq, wk, wv, wo, h, dk)
    return out, cache


def _attn_backward(dout, cache):
    x, q, k, v, probs, concat, wq, wk, wv, wo, h, dk = cache
    t, e = x.shape
    dwo = concat.T @ dout
    dconcat = dout @ wo.T
    dheads = dconcat.reshape(t, h, dk).transpose(1, 0, 2)
    dprobs = dheads @ v.transpose(0, 2, 1)
    dv = probs.transpose(0, 2, 1) @ dheads
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dscores /= math.sqrt(dk)
    dq = dscores @ k
    dk_ = dscores.transpose(0, 2, 1) @ q

    def merge(m):
        return m.transpose(1, 0, 2).reshape(t, e)

    dq, dk_, dv = merge(dq), merge(dk_), merge(dv)
    dx = dq @ wq.T + dk_ @ wk.T + dv @ wv.T
    grads = {"Wq": x.T @ dq, "Wk": x.T @ dk_, "Wv": x.T @ dv, "Wo": dwo}
    return dx, grads


def _block_forward(x, p, i, n_heads):
    prefix = f"enc{i}."
    a, ln1_cache = _ln_forward(x, p[prefix + "ln1_g"], p[prefix + "ln1_b"])
    attn, attn_cache = _attn_forward(a, p, prefix, n_heads)
    x1 = x + attn
    b, ln2_cache = _ln_forward(x1, p[prefix + "ln2_g"], p[prefix + "ln2_b"])
    h1 = b @ p[prefix + "W1"] + p[prefix + "b1"]
    r = np.maximum(h1, 0.0)
    ff = r @ p[prefix + "W2"] + p[prefix + "b2"]
    x2 = x1 + ff
    cache = (ln1_cache, attn_cache, ln2_cache, b, h1, r, prefix)
    return x2, cache


def _block_backward(dx2, cache, p, grads):
    ln1_cache, attn_cache, ln2_cache, b, h1, r, prefix = cache
    dff = dx2
    grads[prefix + "b2"] += dff.sum(axis=0)
    grads[prefix + "W2"] += r.T @ dff
    dr = dff @ p[prefix + "W2"].T
    dh1 = dr * (h1 > 0)
    grads[prefix + "b1"] += dh1.sum(axis=0)
    grads[prefix + "W1"] += b.T @ dh1
    db = dh1 @ p[prefix + "W1"].T
    dx1_from_ff, dg2, db2 = _ln_backward(db, ln2_cache)
    grads[prefix + "ln2_g"] += dg2
    grads[prefix + "ln2_b"] += db2
    dx1 = dx2 + dx1_from_ff
    da, attn_grads = _attn_backward(dx1, attn_cache)
    for name, g in attn_grads.items():
        grads[prefix + name] += g
    dx_from_attn, dg1, db1 = _ln_backward(da, ln1_cache)
    grads[prefix + "ln1_g"] += dg1
    grads[prefix + "ln1_b"] += db1
    return dx1 + dx_from_attn


# ---------------------------------------------------------------------------
# Controller forward / backward
# ---------------------------------------------------------------------------


def controller_forward(params: ControllerParams, rot_slots, ent_slots):
    """Map a parent's action slots, as `encode_actions` returns them, to per-slot
    logits over the two gate vocabularies; returns ((rot_logits, ent_logits), cache)."""
    cfg = params.config
    p = params.tensors
    off_diagonal = ~np.eye(cfg.n_qubits, dtype=bool)  # the ordered pairs
    rot_onehots = np.eye(cfg.v_rot)[np.reshape(rot_slots, -1)]
    ent_onehots = np.eye(cfg.v_ent)[np.asarray(ent_slots)[off_diagonal]]
    x = np.concatenate([rot_onehots @ p["W_s"], ent_onehots @ p["W_m"]], axis=0)
    x = x + p["pos"]
    block_caches = []
    for i in range(cfg.n_blocks):
        x, cache = _block_forward(x, p, i, cfg.n_heads)
        block_caches.append(cache)
    y = x @ p["W_out"]  # (T, 2e)
    nr = cfg.n_rot_tokens
    e = cfg.embed_dim
    rot_half = y[:nr, :e]
    ent_half = y[nr:, e:]
    rot_flat = rot_half @ p["W_s"].T  # (n*max_seq, v_rot)
    ent_flat = ent_half @ p["W_m"].T  # (n_pairs, v_ent)
    rot_logits = rot_flat.reshape(cfg.n_qubits, cfg.max_seq, cfg.v_rot)
    ent_logits = np.full((cfg.n_qubits, cfg.n_qubits, cfg.v_ent), _NEG_INF)
    ent_logits[:, :, 0] = 0.0
    ent_logits[off_diagonal] = ent_flat
    cache = (rot_onehots, ent_onehots, block_caches, x, rot_half, ent_half)
    return (rot_logits, ent_logits), cache


def controller_backward(params: ControllerParams, cache, d_rot_flat, d_ent_flat):
    """Backpropagate per-slot logit gradients to every parameter tensor."""
    cfg = params.config
    p = params.tensors
    rot_onehots, ent_onehots, block_caches, x_final, rot_half, ent_half = cache
    grads = {name: np.zeros_like(t) for name, t in p.items()}
    nr = cfg.n_rot_tokens
    e = cfg.embed_dim
    grads["W_s"] += d_rot_flat.T @ rot_half
    grads["W_m"] += d_ent_flat.T @ ent_half
    dy = np.zeros((cfg.n_tokens, 2 * e))
    dy[:nr, :e] = d_rot_flat @ p["W_s"]
    dy[nr:, e:] = d_ent_flat @ p["W_m"]
    grads["W_out"] += x_final.T @ dy
    dx = dy @ p["W_out"].T
    for i in reversed(range(cfg.n_blocks)):
        dx = _block_backward(dx, block_caches[i], p, grads)
    grads["pos"] += dx
    grads["W_s"] += rot_onehots.T @ dx[:nr]
    grads["W_m"] += ent_onehots.T @ dx[nr:]
    return grads


# ---------------------------------------------------------------------------
# Sampling and REINFORCE
# ---------------------------------------------------------------------------


def sample_actions(rot_logits, ent_logits, rng: np.random.Generator, size: int):
    """`size` per-slot categorical samples; returns the rotation and
    entanglement action index tensors, `(size, n, max_seq)` and `(size, n, n)`.

    The categorical sample is the Gumbel-max argmax, so the picks follow
    softmax(logits), the policy that `reinforce_grads` differentiates, and
    every id lies in its vocabulary.  The entanglement diagonal is forced to
    NO_OP by the forward pass.  Sample j reads row j of one Gumbel draw,
    rotation noise then entanglement noise: the draws, and actions, of
    `size` calls of size 1 one after another.
    """
    n_rot = rot_logits.size
    gumbel = rng.gumbel(size=(size, n_rot + ent_logits.size))
    gumbel_r = gumbel[:, :n_rot].reshape((size,) + rot_logits.shape)
    gumbel_e = gumbel[:, n_rot:].reshape((size,) + ent_logits.shape)
    return (rot_logits + gumbel_r).argmax(axis=-1), (ent_logits + gumbel_e).argmax(axis=-1)


def _weighted_onehot_sum(actions, weights, size):
    """sum_j weights[j] * onehot(actions[j]) over the leading sample axis:
    one row of length `size` per action slot, each summed in sample order."""
    flat = actions.reshape(actions.shape[0], -1)
    slots = flat.shape[1]
    index = np.arange(slots) * size + flat
    w = np.broadcast_to(weights[:, None], flat.shape)
    counts = np.bincount(index.ravel(), weights=w.ravel(), minlength=slots * size)
    return counts.reshape(actions.shape[1:] + (size,))


def reinforce_grads(params: ControllerParams, forward, rot_actions,
                    ent_actions, reward):
    """Gradients of -sum_j reward_j * log pi(actions_j | parent) for every tensor.

    `forward` is `controller_forward(params, *parent_slots)`; it is read, never
    written, so many calls may share it.  The actions are rows of one
    `sample_actions` batch from its logits, with `reward` a float array of
    one reward per row.  The backward pass is linear in the logit gradients,
    so the summed gradient takes one backward of
    `sum_j reward_j * (softmax - onehot(action_j))`.
    """
    cfg = params.config
    (rot_logits, ent_logits), cache = forward
    # d(-logprob)/dlogits = softmax - onehot(action), scaled by reward
    total = reward.sum()
    d_rot = total * _softmax(rot_logits) - _weighted_onehot_sum(rot_actions, reward, cfg.v_rot)
    d_ent = total * _softmax(ent_logits) - _weighted_onehot_sum(ent_actions, reward, cfg.v_ent)
    off_diagonal = ~np.eye(cfg.n_qubits, dtype=bool)  # the controller's ordered pairs
    return controller_backward(params, cache, d_rot.reshape(cfg.n_rot_tokens, cfg.v_rot),
                               d_ent[off_diagonal])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    lr: float
    step: int = 0
    m: np.ndarray | None = None  # flat over the tensors in order; None before step 1
    v: np.ndarray | None = None


def adam_step(params: ControllerParams, grads: dict, state: AdamState):
    """One bias-corrected Adam update of all tensors as one flat vector, each
    value that of a per-tensor update as every operation is elementwise:
    returns new params, views of one new array, and `state` updated in place.
    `grads` is as `reinforce_grads` returns it, one per tensor."""
    tensors = params.tensors
    g = np.concatenate([grads[name].ravel() for name in tensors])
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.step += 1
    state.m *= _ADAM_BETA1  # m = b1*m + (1-b1)*g and v likewise, in place
    state.m += (1 - _ADAM_BETA1) * g
    state.v *= _ADAM_BETA2
    state.v += (1 - _ADAM_BETA2) * g**2
    np.sqrt(np.divide(state.v, 1 - _ADAM_BETA2**state.step, out=g), out=g)
    g += _ADAM_EPS  # g now holds sqrt(v_hat) + eps
    stepped = np.concatenate([t.ravel() for t in tensors.values()])
    stepped -= state.lr * (state.m / (1 - _ADAM_BETA1**state.step)) / g
    new, end = {}, 0
    for name, t in tensors.items():
        start, end = end, end + t.size
        new[name] = stepped[start:end].reshape(t.shape)
    return ControllerParams(params.config, new), state
