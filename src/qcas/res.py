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
    select_best,
)
from .optim import OptBudget, score_cell


@dataclass(frozen=True)
class ResConfig:
    population_size: int = 30
    constraint: SoftConstraint = SoftConstraint("n_layers", 3)
    layer_budget_per_phase: int = 1
    opt_budget: OptBudget = OptBudget()
    max_phases: int = 10
    seed: int = 0
    mode: str = "budget"  # "budget" | "literal"

    def __post_init__(self):
        if self.population_size < 1 or self.max_phases < 1:
            raise ValueError("invalid RES configuration")
        if self.mode not in ("budget", "literal"):
            raise ValueError("mode must be 'budget' or 'literal'")


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
    population: list  # final phase's scored (cell, theta, score) entries


def _cell_seed(master_seed: int, cell: Cell) -> np.random.Generator:
    """Content-derived per-cell rng so population scores are order-independent."""
    digest = hashlib.sha256(
        json.dumps([master_seed, cell_to_dict(cell)], sort_keys=True).encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def evaluate_population(cells, task, opt_budget: OptBudget, seed: int):
    """Score every cell with its own derived rng; results do not depend on
    list order or evaluation schedule."""
    return [score_cell(cell, task, opt_budget, _cell_seed(seed, cell)) for cell in cells]


def _sample_admissible(make, count: int, max_tries: int = 100,
                       exclude: Cell | None = None):
    """Up to `count` cells from at most count * max_tries calls of `make`,
    which samples one candidate and returns None for one that breaks the
    constraint; a candidate equal to `exclude` is skipped too."""
    cells = []
    for _ in range(count * max_tries):
        if len(cells) == count:
            break
        cell = make()
        if cell is not None and (exclude is None or cell != exclude):
            cells.append(cell)
    return cells


def res_search(task, space, config: ResConfig) -> ResResult:
    """Alternate sampling/expansion and evaluation phases; return the best
    constraint-satisfying cell seen.

    In the default "budget" mode the constraint is treated as a resource
    budget: candidates that would exceed it are rejected at sampling time and
    expansion continues while admissible growth exists.  In "literal" mode
    expansion only happens while the current best violates the constraint.
    """
    constraint = config.constraint
    rng = np.random.default_rng([config.seed, 0x2E5])
    sample_constraint = constraint if config.mode == "budget" else None

    cells = _sample_admissible(
        lambda: random_cell(space, task.n_qubits, rng, config.layer_budget_per_phase,
                            sample_constraint),
        config.population_size,
    )
    if not cells:
        raise RuntimeError(
            f"no cell satisfying {constraint.quantity} <= {constraint.bound} "
            f"found in phase 1 (layer budget {config.layer_budget_per_phase})"
        )

    trace = SearchTrace()
    results = evaluate_population(cells, task, config.opt_budget, config.seed)
    scored = [(c, th, sc) for c, (th, sc) in zip(cells, results)]
    if config.mode == "budget":
        admissible = [e for e in scored if eval_soft_constraint(constraint, e[0])]
        if not admissible:
            raise RuntimeError("phase 1 produced no constraint-satisfying cell")
    else:
        admissible = scored
    best = admissible[select_best(admissible)]
    global_best = best if eval_soft_constraint(constraint, best[0]) else None
    trace.record(1, best[2], best[0], len(scored))
    population = scored

    for phase in range(2, config.max_phases + 1):
        if config.mode == "budget":
            seed_entry = global_best or best
        else:
            if eval_soft_constraint(constraint, best[0]):
                break
            seed_entry = best
        seed_cell = seed_entry[0]
        children = _sample_admissible(
            lambda: expand_cell(seed_cell, space, rng, config.layer_budget_per_phase,
                                sample_constraint),
            config.population_size - 1, exclude=seed_cell,
        )
        if not children:
            break  # no admissible expansion headroom left
        # elitism: the seed entry is carried forward with its known score,
        # only the fresh children cost evaluations
        results = evaluate_population(children, task, config.opt_budget, config.seed)
        scored = [seed_entry] + [(c, th, sc) for c, (th, sc) in zip(children, results)]
        best = scored[select_best(scored)]
        if eval_soft_constraint(constraint, best[0]) and (
            global_best is None or best[2] > global_best[2]
        ):
            global_best = best
        trace.record(phase, best[2], best[0], len(children))
        population = scored

    final = global_best if global_best is not None else best
    if not eval_soft_constraint(constraint, final[0]):
        raise RuntimeError("search terminated without a constraint-satisfying cell")
    return ResResult(final[0], final[1], final[2], trace, population)
