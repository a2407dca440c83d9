"""Random Elastic Search: alternating population search and seeded expansion
phases under a soft resource constraint."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cell import (
    SoftConstraint,
    can_grow,
    eval_soft_constraint,
    expand_cell,
    metrics,
    random_cell,
    sample_admissible,
    select_best,
)
from .optim import Draws, OptBudget, Scored, check_int, score_cell, stream


@dataclass(frozen=True)
class ResConfig:
    """The res section of a run config."""

    population_size: int = 30
    constraint: SoftConstraint = SoftConstraint("n_layers", 3)
    layer_budget_per_phase: int = 1
    max_phases: int = 10

    def __post_init__(self):
        check_int("population_size", self.population_size, 1)
        check_int("layer_budget_per_phase", self.layer_budget_per_phase, 1)
        check_int("max_phases", self.max_phases, 1)


@dataclass
class PhaseRecord:
    phase: int
    best_score: float
    best_metrics: dict
    n_scored: int


@dataclass
class ResResult:
    best: Scored
    phases: list  # a `PhaseRecord` per phase
    population: list  # final phase's `Scored` entries


def evaluate_population(cells, task, opt_budget: OptBudget, seed: int):
    """`Scored` entries of the cells, each scored with its own derived rng;
    results do not depend on list order or evaluation schedule."""
    return [score_cell(cell, task, opt_budget, functools.partial(stream, seed, "res.fit", cell))
            for cell in cells]


def res_search(task, vocab, config: ResConfig, opt_budget: OptBudget, seed: int) -> ResResult:
    """Alternate sampling/expansion and evaluation phases over `vocab`'s
    kinds; return the best constraint-satisfying cell seen.

    The constraint is a resource budget: candidates that would exceed it are
    rejected at sampling time, and each phase expands the best cell so far
    until no child of it fits the bound (`can_grow`) or a phase admits none.
    """
    constraint = config.constraint
    rng = Draws(stream(seed, "res.sample"))

    cells = sample_admissible(
        lambda: random_cell(vocab, task.n_qubits, rng, config.layer_budget_per_phase,
                            constraint),
        config.population_size,
    )
    if not cells:
        raise RuntimeError(
            f"no cell satisfying {constraint.quantity} <= {constraint.bound} "
            f"found in phase 1 (layer budget {config.layer_budget_per_phase})"
        )

    population = evaluate_population(cells, task, opt_budget, seed)
    global_best = population[select_best(population)]
    phases = [PhaseRecord(1, global_best.score, vars(metrics(global_best.cell)),
                          len(population))]

    for phase in range(2, config.max_phases + 1):
        seed_cell = global_best.cell
        if not can_grow(seed_cell, vocab, constraint):
            break  # every expansion breaks the bound, or is the excluded seed
        children = sample_admissible(
            lambda: expand_cell(seed_cell, vocab, rng, config.layer_budget_per_phase,
                                constraint),
            config.population_size - 1, exclude=seed_cell,
        )
        if not children:
            break  # headroom is left, but the draw cap found none of it
        # elitism: the seed entry is carried forward with its known score,
        # only the fresh children cost evaluations
        population = [global_best] + evaluate_population(children, task, opt_budget, seed)
        best = population[select_best(population)]
        if best.score > global_best.score:
            global_best = best
        phases.append(PhaseRecord(phase, best.score, vars(metrics(best.cell)), len(children)))

    if not eval_soft_constraint(constraint, global_best.cell):
        raise RuntimeError("search terminated without a constraint-satisfying cell")
    return ResResult(global_best, phases, population)
