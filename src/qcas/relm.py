"""Regularized evolution with a learned mutation policy: tournament selection
over a cell population, transformer-controller mutation of the winner and
policy-gradient training of the controller from parent/child score deltas.

The policy is fixed within an epoch and every child mutates the same parent,
so the controller forward pass runs once per epoch: each child samples from
its logits and each policy gradient backpropagates from its cache."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell import Cell, GateVocab, decode_actions, encode_views, eval_soft_constraint
from .controller import (
    AdamState,
    ControllerConfig,
    ControllerParams,
    accumulate_grads,
    adam_step,
    controller_forward,
    init_controller,
    reinforce_grads,
    sample_actions,
)
from .optim import OptBudget, score_cell
from .res import ResConfig, res_search
from .tasks import random_search

DEFAULT_EPS_TAN = 1e-3


@dataclass(frozen=True)
class RelmConfig:
    epochs: int = 30
    tournament_size: int = 5
    batch_size: int = 32
    learning_rate: float = 3e-4
    init_mode: str = "random_search"  # "random_search" | "res"
    reward_mode: str = "qae"  # "qae" | "unitary"
    reward_sign: str = "text"  # "text" | "printed" (worse-child branch sign)
    alpha: float = 1.5
    eps_tan: float = DEFAULT_EPS_TAN
    constraint: object = None  # optional SoftConstraint gating admission
    population_size: int = 30
    layer_budget: int = 2
    max_seq: int = 8
    embed_dim: int = 32
    n_heads: int = 4
    n_blocks: int = 2
    ff_dim: int = 64
    opt_budget: OptBudget = OptBudget()
    seed: int = 6090

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament size must be in [1, population size]")
        if not 0.0 < self.eps_tan < 1.0:
            raise ValueError("eps_tan must be in (0, 1)")


@dataclass
class PopEntry:
    cell: Cell
    theta: np.ndarray
    score: float


@dataclass
class ScoredPopulation:
    entries: list
    capacity: int

    def __post_init__(self):
        if len(self.entries) > self.capacity:
            raise ValueError("population exceeds capacity")
        if any(not math.isfinite(e.score) for e in self.entries):
            raise ValueError("population scores must be finite")

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


def _clamped_tan(arg: float, eps_tan: float) -> float:
    bound = (1.0 - eps_tan) * math.pi / 2.0
    return math.tan(min(max(arg, -bound), bound))


def qae_reward(f_parent: float, f_child: float, eps_tan: float = DEFAULT_EPS_TAN,
               sign: str = "text") -> float:
    """Fidelity-delta reward: negative when the child is strictly worse,
    otherwise tan(f_child * pi/2) with the argument clamped below pi/2.

    `sign="printed"` flips the worse-child branch to f_parent - f_child.
    """
    if f_parent > f_child:
        delta = f_child - f_parent
        return delta if sign == "text" else -delta
    return _clamped_tan(min(f_child, 1.0 - eps_tan) * math.pi / 2.0, eps_tan)


def unitary_reward(l_parent: float, l_child: float, alpha: float = 1.5,
                   eps_tan: float = DEFAULT_EPS_TAN) -> float:
    """tan(alpha * (L_child - L_parent) * pi/2) with a clamped argument."""
    return _clamped_tan(alpha * (l_child - l_parent) * math.pi / 2.0, eps_tan)


# ---------------------------------------------------------------------------
# Population handling
# ---------------------------------------------------------------------------


def init_population(mode: str, task, space, size: int, config: RelmConfig,
                    res_config: ResConfig | None = None):
    """Scored starting population: random search over cells that satisfy
    `config.constraint` (when set), or the final RES population (topped up
    with admissible random cells if short).

    Returns (population, res_trace_or_None).
    """
    if mode == "random_search":
        _, scored = random_search(task, space, size, config.constraint, config.seed,
                                  layer_budget=config.layer_budget,
                                  opt_budget=config.opt_budget)
        entries = [PopEntry(c, th, sc) for c, th, sc in scored]
        return ScoredPopulation(entries, size), None
    if mode != "res":
        raise ValueError(f"unknown init mode {mode!r}")
    if res_config is None:
        res_config = ResConfig(population_size=size, opt_budget=config.opt_budget,
                               seed=config.seed)
    result = res_search(task, space, res_config)
    entries = [PopEntry(c, th, sc) for c, th, sc in result.population[:size]]
    if len(entries) < size:
        _, extra = random_search(task, space, size - len(entries),
                                 res_config.constraint, config.seed + 1,
                                 layer_budget=config.layer_budget,
                                 opt_budget=config.opt_budget)
        entries.extend(PopEntry(c, th, sc) for c, th, sc in extra)
    return ScoredPopulation(entries, size), result


def tournament_step(pop: ScoredPopulation, k: int, rng: np.random.Generator):
    """Sample k members without replacement; drop the worst from the
    population, return (best entry, removed worst entry)."""
    if len(pop) < k:
        raise ValueError("population smaller than tournament size")
    idx = rng.choice(len(pop), size=k, replace=False)
    best_i = max(idx, key=lambda i: pop.entries[i].score)
    worst_i = min(idx, key=lambda i: pop.entries[i].score)
    worst = pop.entries.pop(worst_i)
    best = pop.entries[best_i if best_i < worst_i else best_i - 1] \
        if best_i != worst_i else worst
    return best, worst


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------


@dataclass
class MutationSample:
    child: Cell
    rot_actions: np.ndarray
    ent_actions: np.ndarray
    logprob: float
    forward: tuple  # controller_forward(..., with_cache=True) of the parent


def mutate(forward, vocab: GateVocab, rng: np.random.Generator | None = None,
           greedy: bool = False) -> MutationSample:
    """Sample (or argmax) per-slot actions from the parent's policy forward
    `controller_forward(controller, views, with_cache=True)` and decode them
    into a child cell."""
    rot_logits, ent_logits = forward[0]
    rot_actions, ent_actions, logprob = sample_actions(rot_logits, ent_logits,
                                                       rng=rng, greedy=greedy)
    child = decode_actions(rot_actions, ent_actions, vocab)
    return MutationSample(child, rot_actions, ent_actions, logprob, forward)


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    parent_score: float
    mean_reward: float
    best_child_score: float
    best_score: float


@dataclass
class RelmResult:
    best_cell: Cell
    theta: np.ndarray
    score: float
    epochs: list = field(default_factory=list)
    controller: ControllerParams | None = None


def relm_search(task, config: RelmConfig, pop: ScoredPopulation, vocab: GateVocab,
                controller: ControllerParams | None = None) -> RelmResult:
    """Tournament-select a parent each epoch, mutate it batch_size times with
    the learned policy, score the children, apply one policy-gradient update
    and admit the best child; the global best entry is tracked throughout.

    The parent's policy forward runs once per epoch and is shared by all
    batch_size mutations and policy gradients of that epoch."""
    rng = np.random.default_rng([config.seed, 0xE70])
    if controller is None:
        n = task.n_qubits
        ctrl_cfg = ControllerConfig(
            n_qubits=n, max_seq=config.max_seq, v_rot=vocab.v_rot,
            v_ent=vocab.v_ent, embed_dim=config.embed_dim,
            n_heads=config.n_heads, n_blocks=config.n_blocks,
            ff_dim=config.ff_dim,
        )
        controller = init_controller(ctrl_cfg, np.random.default_rng([config.seed, 0xC7]))
    adam = AdamState(lr=config.learning_rate)
    eligible = pop.entries
    if config.constraint is not None:
        ok = [e for e in pop.entries
              if eval_soft_constraint(config.constraint, e.cell)]
        eligible = ok or pop.entries
    global_best = max(eligible, key=lambda e: e.score)
    records = []

    for epoch in range(1, config.epochs + 1):
        parent, _removed = tournament_step(pop, config.tournament_size, rng)
        views = encode_views(parent.cell, vocab, controller.config.max_seq)
        forward = controller_forward(controller, views, with_cache=True)
        samples, rewards, scored_children = [], [], []
        for j in range(config.batch_size):
            sample = mutate(forward, vocab, rng=rng)
            child_rng = np.random.default_rng([config.seed, 0x5C0, epoch, j])
            theta, score = score_cell(sample.child, task, config.opt_budget,
                                      child_rng, theta_init=parent.theta)
            if config.reward_mode == "unitary":
                reward = unitary_reward(1.0 - parent.score, 1.0 - score,
                                        config.alpha, config.eps_tan)
            else:
                reward = qae_reward(parent.score, score, config.eps_tan,
                                    config.reward_sign)
            samples.append(sample)
            rewards.append(reward)
            scored_children.append(PopEntry(sample.child, theta, score))

        total = None
        for sample, reward in zip(samples, rewards):
            if reward == 0.0:
                continue
            grads = reinforce_grads(controller, sample.forward, sample.rot_actions,
                                    sample.ent_actions, reward)
            total = accumulate_grads(total, grads)
        if total is not None:
            for g in total.values():
                g /= config.batch_size
            controller, adam = adam_step(controller, total, adam)

        admissible = scored_children
        if config.constraint is not None:
            admissible = [e for e in scored_children
                          if eval_soft_constraint(config.constraint, e.cell)]
        best_child = max(admissible or [parent], key=lambda e: e.score)
        pop.entries.append(best_child)
        if best_child.score > global_best.score:
            global_best = best_child
        records.append(EpochRecord(
            epoch=epoch,
            parent_score=parent.score,
            mean_reward=float(np.mean(rewards)),
            best_child_score=best_child.score,
            best_score=global_best.score,
        ))

    return RelmResult(global_best.cell, global_best.theta, global_best.score,
                      records, controller)
