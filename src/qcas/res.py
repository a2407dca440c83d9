"""Random Elastic Search: alternating population search and seeded expansion
phases under a soft resource constraint."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .cell import (
    Cell,
    SoftConstraint,
    cell_to_dict,
    eval_soft_constraint,
    expand_cell,
    metrics,
    random_cell,
    sample_admissible,
    select_best,
)
from .optim import OptBudget, check_int, score_cell


@dataclass(frozen=True)
class ResConfig:
    population_size: int = 30
    constraint: SoftConstraint = SoftConstraint("n_layers", 3)
    layer_budget_per_phase: int = 1
    opt_budget: OptBudget = OptBudget()
    max_phases: int = 10
    seed: int = 0

    def __post_init__(self):
        check_int("population_size", self.population_size, 1)
        check_int("max_phases", self.max_phases, 1)


@dataclass
class PhaseRecord:
    phase: int
    best_score: float
    best_metrics: dict
    evals: int


@dataclass
class SearchTrace:
    phases: list = field(default_factory=list)

    def record(self, phase: int, best_score: float, best_cell: Cell, evals: int):
        m = metrics(best_cell)
        self.phases.append(PhaseRecord(phase, best_score, vars(m), evals))


@dataclass
class ResResult:
    best_cell: Cell
    theta: np.ndarray
    score: float
    trace: SearchTrace
    population: list  # final phase's `Scored` entries


def _cell_seed(master_seed: int, cell: Cell) -> np.random.Generator:
    """Content-derived per-cell rng so population scores are order-independent."""
    digest = hashlib.sha256(
        json.dumps([master_seed, cell_to_dict(cell)], sort_keys=True).encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def evaluate_population(cells, task, opt_budget: OptBudget, seed: int):
    """`Scored` entries of the cells, each scored with its own derived rng;
    results do not depend on list order or evaluation schedule."""
    return [score_cell(cell, task, opt_budget, _cell_seed(seed, cell)) for cell in cells]


def res_search(task, space, config: ResConfig) -> ResResult:
    """Alternate sampling/expansion and evaluation phases; return the best
    constraint-satisfying cell seen.

    The constraint is a resource budget: candidates that would exceed it are
    rejected at sampling time, and each phase expands the best cell so far
    while admissible growth exists.
    """
    constraint = config.constraint
    rng = np.random.default_rng([config.seed, 0x2E5])

    cells = sample_admissible(
        lambda: random_cell(space, task.n_qubits, rng, config.layer_budget_per_phase,
                            constraint),
        config.population_size,
    )
    if not cells:
        raise RuntimeError(
            f"no cell satisfying {constraint.quantity} <= {constraint.bound} "
            f"found in phase 1 (layer budget {config.layer_budget_per_phase})"
        )

    trace = SearchTrace()
    population = evaluate_population(cells, task, config.opt_budget, config.seed)
    global_best = population[select_best(population)]
    trace.record(1, global_best.score, global_best.cell, len(population))

    for phase in range(2, config.max_phases + 1):
        seed_cell = global_best.cell
        children = sample_admissible(
            lambda: expand_cell(seed_cell, space, rng, config.layer_budget_per_phase,
                                constraint),
            config.population_size - 1, exclude=seed_cell,
        )
        if not children:
            break  # no admissible expansion headroom left
        # elitism: the seed entry is carried forward with its known score,
        # only the fresh children cost evaluations
        population = [global_best] + evaluate_population(children, task, config.opt_budget,
                                                         config.seed)
        best = population[select_best(population)]
        if best.score > global_best.score:
            global_best = best
        trace.record(phase, best.score, best.cell, len(children))

    if not eval_soft_constraint(constraint, global_best.cell):
        raise RuntimeError("search terminated without a constraint-satisfying cell")
    return ResResult(*global_best, trace, population)
