"""Regularized evolution with a learned mutation policy: tournament selection
over a population of `Scored` cells, transformer-controller mutation of the
winner and policy-gradient training of the controller from parent/child score
deltas.

The policy is fixed within an epoch and every child mutates the same parent,
so each epoch runs one controller forward and one backward: it samples its
whole batch of children from the forward's logits, then scores them, and the
children's policy gradients are summed in one backward pass from its cache.

Tournament selection removes the tournament's worst member, not the oldest
member of the population as in aging (regularized) evolution (Real et al.,
AAAI 2019); this is a deliberate deviation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cell import Cell, GateVocab, decode_actions, encode_views, eval_soft_constraint
from .controller import (
    AdamState,
    ControllerConfig,
    ControllerParams,
    adam_step,
    controller_forward,
    init_controller,
    reinforce_grads,
    sample_actions,
)
from .optim import OptBudget, check_int, check_positive, score_cell
from .res import ResConfig, res_search
from .tasks import random_search

DEFAULT_EPS_TAN = 1e-3


@dataclass(frozen=True)
class RelmConfig:
    epochs: int = 30
    tournament_size: int = 5
    batch_size: int = 32
    learning_rate: float = 3e-4
    init_mode: str = "res"  # "res" | "random_search"
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
        for name in ("epochs", "population_size", "tournament_size", "batch_size",
                     "layer_budget", "max_seq", "embed_dim", "n_heads", "n_blocks", "ff_dim"):
            check_int(name, getattr(self, name), 1)
        check_positive("learning_rate", self.learning_rate)
        check_positive("alpha", self.alpha)
        if self.embed_dim % self.n_heads:
            raise ValueError(f"n_heads must divide embed_dim {self.embed_dim}, "
                             f"got {self.n_heads}")
        if self.tournament_size > self.population_size:
            raise ValueError(f"tournament_size must be <= population_size "
                             f"{self.population_size}, got {self.tournament_size}")
        for name, choices in (("init_mode", ("res", "random_search")),
                              ("reward_mode", ("qae", "unitary")),
                              ("reward_sign", ("text", "printed"))):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 < self.eps_tan < 1.0:
            raise ValueError("eps_tan must be in (0, 1)")


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


def init_population(task, space, config: RelmConfig, res_config: ResConfig | None = None):
    """Starting population, a list of `config.population_size` `Scored`
    cells, by `config.init_mode`: random search over cells that satisfy
    `config.constraint` (when set), or the final population of RES run with
    `res_config` (topped up with admissible random cells if short).

    Returns (population, res_result_or_None).
    """
    size = config.population_size
    if config.init_mode == "random_search":
        _, population = random_search(task, space, size, config.constraint, config.seed,
                                      layer_budget=config.layer_budget,
                                      opt_budget=config.opt_budget)
        return population, None
    if res_config is None:
        raise ValueError("init_mode 'res' needs a res_config")
    result = res_search(task, space, res_config)
    population = result.population[:size]
    if len(population) < size:
        _, extra = random_search(task, space, size - len(population),
                                 res_config.constraint, config.seed + 1,
                                 layer_budget=config.layer_budget,
                                 opt_budget=config.opt_budget)
        population += extra
    return population, result


def tournament_step(pop: list, k: int, rng: np.random.Generator):
    """Sample k members without replacement; drop the worst from the
    population, return (best entry, removed worst entry).

    Aging evolution removes the oldest member instead; removing the worst is
    a documented deviation of this implementation."""
    if len(pop) < k:
        raise ValueError("population smaller than tournament size")
    idx = rng.choice(len(pop), size=k, replace=False)
    best = pop[max(idx, key=lambda i: pop[i].score)]
    worst = pop.pop(min(idx, key=lambda i: pop[i].score))
    return best, worst


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------


@dataclass
class MutationSample:
    child: Cell
    rot_actions: np.ndarray
    ent_actions: np.ndarray


def mutate(forward, vocab: GateVocab, rng: np.random.Generator) -> MutationSample:
    """Sample per-slot actions from the parent's policy forward
    `controller_forward(controller, views)` and decode them into a child
    cell."""
    rot_logits, ent_logits = forward[0]
    rot_actions, ent_actions = sample_actions(rot_logits, ent_logits, rng)
    child = decode_actions(rot_actions, ent_actions, vocab)
    return MutationSample(child, rot_actions, ent_actions)


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    """One epoch of the run record's RELM trace.  `n_scored` children were
    scored, `n_admissible` of them meet the constraint (all of them when
    there is none); the CSV export reads neither count."""

    epoch: int
    parent_score: float
    mean_reward: float
    best_child_score: float
    best_score: float
    n_scored: int
    n_admissible: int


@dataclass
class RelmResult:
    best_cell: Cell
    theta: np.ndarray
    score: float
    epochs: list = field(default_factory=list)
    controller: ControllerParams | None = None


def relm_search(task, config: RelmConfig, pop: list, vocab: GateVocab,
                controller: ControllerParams | None = None) -> RelmResult:
    """Tournament-select a parent each epoch, mutate it batch_size times with
    the learned policy, score the children, apply one policy-gradient update
    and admit the best child; the global best entry is tracked throughout.
    `pop` is a list of `Scored` cells with finite scores; each epoch removes
    one and appends one.

    The parent's policy forward runs once per epoch and is shared by all
    batch_size mutations of that epoch; the policy gradients of its
    non-zero-reward children are summed in one backward pass from it."""
    if any(not math.isfinite(e.score) for e in pop):
        raise ValueError("population scores must be finite")
    rng = np.random.default_rng([config.seed, 0xE70])
    if controller is None:
        ctrl_cfg = ControllerConfig(
            n_qubits=task.n_qubits, max_seq=config.max_seq, v_rot=vocab.v_rot,
            v_ent=vocab.v_ent, embed_dim=config.embed_dim, n_heads=config.n_heads,
            n_blocks=config.n_blocks, ff_dim=config.ff_dim)
        controller = init_controller(ctrl_cfg, np.random.default_rng([config.seed, 0xC7]))
    adam = AdamState(lr=config.learning_rate)
    eligible = [e for e in pop if config.constraint is None
                or eval_soft_constraint(config.constraint, e.cell)] or pop
    global_best = max(eligible, key=lambda e: e.score)
    records = []

    for epoch in range(1, config.epochs + 1):
        parent, _ = tournament_step(pop, config.tournament_size, rng)
        views = encode_views(parent.cell, vocab, controller.config.max_seq)
        forward = controller_forward(controller, views)
        samples = [mutate(forward, vocab, rng) for _ in range(config.batch_size)]
        # each child is fitted with its own rng, so scoring draws nothing from `rng`
        children = [score_cell(s.child, task, config.opt_budget,
                               np.random.default_rng([config.seed, 0x5C0, epoch, j]),
                               theta_init=parent.theta)
                    for j, s in enumerate(samples)]
        rewards = np.array([
            unitary_reward(1.0 - parent.score, 1.0 - c.score, config.alpha, config.eps_tan)
            if config.reward_mode == "unitary"
            else qae_reward(parent.score, c.score, config.eps_tan, config.reward_sign)
            for c in children])

        # Adam moves the parameters even on a zero gradient (through its
        # moments), so an epoch whose rewards are all zero takes no step.
        nonzero = rewards != 0.0
        if nonzero.any():
            grads = reinforce_grads(
                controller, forward,
                np.stack([s.rot_actions for s in samples])[nonzero],
                np.stack([s.ent_actions for s in samples])[nonzero],
                rewards[nonzero])
            for g in grads.values():
                g /= config.batch_size
            controller, adam = adam_step(controller, grads, adam)

        admissible = [e for e in children if config.constraint is None
                      or eval_soft_constraint(config.constraint, e.cell)]
        best_child = max(admissible or [parent], key=lambda e: e.score)
        pop.append(best_child)
        if best_child.score > global_best.score:
            global_best = best_child
        records.append(EpochRecord(
            epoch=epoch, parent_score=parent.score, mean_reward=float(np.mean(rewards)),
            best_child_score=best_child.score, best_score=global_best.score,
            n_scored=len(children), n_admissible=len(admissible)))

    return RelmResult(*global_best, records, controller)
