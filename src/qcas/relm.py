"""Regularized evolution with a learned mutation policy: tournament selection
over a population of `Scored` cells, transformer-controller mutation of the
winner and policy-gradient training of the controller from parent/child score
deltas.

The policy is fixed within an epoch and every child mutates the same parent,
so each epoch runs one controller forward, one Gumbel draw, one backward and
one Adam step: it samples its whole batch of children from the forward's
logits with one draw, then scores them, the children's policy gradients are
summed in one backward pass from its cache and Adam updates the policy once.

Tournament selection removes the tournament's worst member, not the oldest
member of the population as in aging (regularized) evolution (Real et al.,
AAAI 2019); this is a deliberate deviation."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cell import (GateVocab, SoftConstraint, decode_actions, encode_actions,
                   eval_soft_constraint, select_best)
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
from .optim import OptBudget, Scored, check_choice, check_int, check_positive, score_cell, stream
from .res import ResConfig, res_search
from .tasks import random_search

DEFAULT_EPS_TAN = 1e-3  # keeps the rewards' tan arguments below pi/2


@dataclass(frozen=True)
class RelmConfig:
    """The relm section of a run config."""

    epochs: int = 30
    tournament_size: int = 5
    batch_size: int = 32
    learning_rate: float = 3e-4
    init_mode: str = "res"  # "res" | "random_search"
    reward_mode: str = "qae"  # "qae" | "unitary"
    alpha: float = 1.5
    population_size: int = 30
    layer_budget: int = 2
    max_seq: int = 8
    embed_dim: int = 32
    n_heads: int = 4
    n_blocks: int = 2
    ff_dim: int = 64

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
        if self.layer_budget > self.max_seq:
            raise ValueError(f"layer_budget must be <= max_seq {self.max_seq}, "
                             f"got {self.layer_budget}")
        check_choice("init_mode", self.init_mode, ("res", "random_search"))
        check_choice("reward_mode", self.reward_mode, ("qae", "unitary"))


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------


def _clamped_tan(arg: float) -> float:
    bound = (1.0 - DEFAULT_EPS_TAN) * math.pi / 2.0
    return math.tan(min(max(arg, -bound), bound))


def qae_reward(f_parent: float, f_child: float) -> float:
    """Fidelity-delta reward: f_child - f_parent when the child is strictly
    worse, otherwise tan(f_child * pi/2) with the argument clamped below pi/2."""
    if f_parent > f_child:
        return f_child - f_parent
    return _clamped_tan(f_child * math.pi / 2.0)


def unitary_reward(l_parent: float, l_child: float, alpha: float) -> float:
    """tan(alpha * (L_child - L_parent) * pi/2) with a clamped argument.  Its
    sign follows the loss: a child with a higher loss than its parent (a worse
    child) gets a positive reward, unlike `qae_reward`, which rewards a worse
    child negatively."""
    return _clamped_tan(alpha * (l_child - l_parent) * math.pi / 2.0)


# ---------------------------------------------------------------------------
# Population handling
# ---------------------------------------------------------------------------


def init_population(task, vocab: GateVocab, config: RelmConfig, res_config: ResConfig,
                    opt_budget: OptBudget, seed: int):
    """Starting population of `vocab`'s kinds, a list of `config.population_size`
    `Scored` cells that satisfy `res_config.constraint`, by `config.init_mode`:
    random search, or the final population of RES run with `res_config`
    (topped up with random cells, from seed `seed + 1`, if short).

    Returns (population, res_result_or_None)."""
    size = config.population_size
    population, result = [], None
    if config.init_mode == "res":
        result = res_search(task, vocab, res_config, opt_budget, seed)
        population, seed = result.population[:size], seed + 1
    if len(population) < size:
        population += random_search(task, vocab, size - len(population), res_config.constraint,
                                    seed, layer_budget=config.layer_budget,
                                    opt_budget=opt_budget)[1]
    return population, result


def tournament_step(pop: list, k: int, rng: np.random.Generator):
    """Sample k members without replacement; drop the worst from the
    population, return (best entry, removed worst entry).  With fewer than k
    members, numpy's `choice` rejects the draw and the population is left as it was.

    Aging evolution removes the oldest member instead; removing the worst is
    a documented deviation of this implementation."""
    idx = rng.choice(len(pop), size=k, replace=False)
    best = pop[max(idx, key=lambda i: pop[i].score)]
    worst = pop.pop(min(idx, key=lambda i: pop[i].score))
    return best, worst


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------


def mutate(forward, vocab: GateVocab, rng: np.random.Generator, batch_size: int):
    """Sample `batch_size` children with one Gumbel draw from the parent's
    policy forward `controller_forward(controller, *parent_slots)`; returns
    their cells and their actions, which carry a leading sample axis."""
    rot_actions, ent_actions = sample_actions(*forward[0], rng, size=batch_size)
    cells = [decode_actions(rot, ent, vocab) for rot, ent in zip(rot_actions, ent_actions)]
    return cells, rot_actions, ent_actions


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    """One epoch of the run record's RELM trace.  `n_scored` children were
    scored, `n_admissible` of them meet the run's constraint; the CSV export
    reads neither count."""

    epoch: int
    parent_score: float
    mean_reward: float
    best_child_score: float
    best_score: float
    n_scored: int
    n_admissible: int


@dataclass
class RelmResult:
    best: Scored
    epochs: list  # an `EpochRecord` per epoch
    controller: ControllerParams


def relm_search(task, config: RelmConfig, pop: list, vocab: GateVocab,
                constraint: SoftConstraint, opt_budget: OptBudget, seed: int) -> RelmResult:
    """Tournament-select a parent each epoch, mutate it batch_size times with
    the learned policy, score the children, apply one policy-gradient update
    and admit the best child that meets `constraint` (the parent if none
    does).  The global best starts as the best member of `pop` within the
    constraint and is replaced by an admitted child only on a strictly higher
    score; "best" is `select_best`'s rule, as in RES and random search.
    `pop` is a list of `Scored` cells with finite scores, at least one of
    them within the constraint (a ValueError names it otherwise); each epoch
    removes one and appends one.  Returns the global best entry as
    `RelmResult.best`.

    The parent's policy forward runs once per epoch and is shared by all
    batch_size mutations of that epoch, which one Gumbel draw samples; the
    policy gradients of its non-zero-reward children are summed in one
    backward pass from it, and one Adam step applies them."""
    if any(not math.isfinite(e.score) for e in pop):
        raise ValueError("population scores must be finite")
    rng = stream(seed, "relm.select")
    ctrl_cfg = ControllerConfig(
        n_qubits=task.n_qubits, max_seq=config.max_seq, v_rot=vocab.v_rot,
        v_ent=vocab.v_ent, embed_dim=config.embed_dim, n_heads=config.n_heads,
        n_blocks=config.n_blocks, ff_dim=config.ff_dim)
    controller = init_controller(ctrl_cfg, stream(seed, "relm.controller"))
    adam = AdamState(lr=config.learning_rate)
    eligible = [e for e in pop if eval_soft_constraint(constraint, e.cell)]
    if not eligible:
        raise ValueError(f"no member of the starting population meets "
                         f"{constraint.quantity} <= {constraint.bound}")
    global_best = eligible[select_best(eligible)]
    records = []

    for epoch in range(1, config.epochs + 1):
        parent, _ = tournament_step(pop, config.tournament_size, rng)
        forward = controller_forward(controller,
                                     *encode_actions(parent.cell, vocab, config.max_seq))
        cells, rot_actions, ent_actions = mutate(forward, vocab, rng, config.batch_size)
        # each child is fitted with its own rng, so scoring draws nothing from `rng`
        children = [score_cell(cell, task, opt_budget,
                               functools.partial(stream, seed, "relm.fit", epoch, j),
                               theta_init=parent.theta)
                    for j, cell in enumerate(cells)]
        rewards = np.array([
            unitary_reward(1.0 - parent.score, 1.0 - c.score, config.alpha)
            if config.reward_mode == "unitary"
            else qae_reward(parent.score, c.score)
            for c in children])

        # Adam moves the parameters even on a zero gradient (through its
        # moments), so an epoch whose rewards are all zero takes no step.
        nonzero = rewards != 0.0
        if nonzero.any():
            grads = reinforce_grads(controller, forward, rot_actions[nonzero],
                                    ent_actions[nonzero], rewards[nonzero])
            for g in grads.values():
                g /= config.batch_size
            controller, adam = adam_step(controller, grads, adam)

        admissible = [e for e in children if eval_soft_constraint(constraint, e.cell)]
        candidates = admissible or [parent]
        best_child = candidates[select_best(candidates)]
        pop.append(best_child)
        if best_child.score > global_best.score:
            global_best = best_child
        records.append(EpochRecord(
            epoch=epoch, parent_score=parent.score, mean_reward=float(np.mean(rewards)),
            best_child_score=best_child.score, best_score=global_best.score,
            n_scored=len(children), n_admissible=len(admissible)))

    return RelmResult(global_best, records, controller)
