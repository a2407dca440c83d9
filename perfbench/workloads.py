"""The benchmark's workloads: seeded `qcas search` configs.

Each workload puts most of its time in a different layer (see README.md).
A run of the benchmark searches with qcas seeds derived from its --seed, one
search per round; `qcas_seed` gives the seed of round i.
"""

from __future__ import annotations

import copy

# Round i of a run with --seed n searches with qcas seed n * ROUND_STRIDE + i.
ROUND_STRIDE = 1000

WORKLOADS = {
    # Criterion-8 shape with fewer epochs: RES-initialised RELM over the
    # generic gate set under n_layers <= 2.  Time goes to the cost function
    # over 100 training columns (tasks.training_cost -> sim).
    "denoise-relm": {
        "task": {"kind": "denoise", "noise": "bitflip"},
        "algorithm": "relm",
        "res": {"population_size": 6,
                "constraint": {"quantity": "n_layers", "bound": 2},
                "layer_budget_per_phase": 1, "max_phases": 2},
        "relm": {"epochs": 2, "tournament_size": 5, "batch_size": 8,
                 "population_size": 6, "layer_budget": 2, "init_mode": "res"},
        "opt": {"max_evals": 100, "restarts": 1},
        "jobs": 1,
    },
    # 5-qubit digits compression with RES alone, CLI default RES population
    # and constraint (30, n_layers <= 3).  Time goes to RES sampling near the
    # constraint bound and to scoring; there is no controller.
    "image-res": {
        "task": {"kind": "image", "dataset": "digits", "n_trash": 1},
        "algorithm": "res",
        "res": {"population_size": 30,
                "constraint": {"quantity": "n_layers", "bound": 3},
                "layer_budget_per_phase": 1, "max_phases": 2},
        "opt": {"max_evals": 100, "restarts": 1},
        "jobs": 1,
    },
    # 5-qubit dense-Clifford unitary regeneration with RELM.  Cells have no
    # parameters, so there is no optimizer and one simulated column per
    # score; time goes to the controller (mutate, reinforce_grads).
    "regen-relm": {
        "task": {"kind": "unitary_regen", "n_qubits": 5, "subtask": "dense",
                 "layers": 1},
        "algorithm": "relm",
        "res": {"population_size": 30,
                "constraint": {"quantity": "n_layers", "bound": 3},
                "layer_budget_per_phase": 1, "max_phases": 2},
        "relm": {"epochs": 10, "batch_size": 32, "reward_mode": "unitary",
                 "init_mode": "res"},
        "jobs": 1,
    },
}


def qcas_seed(seed: int, round_index: int) -> int:
    return seed * ROUND_STRIDE + round_index


def search_config(workload: str, seed: int) -> dict:
    """The config document of one search, before qcas parses it."""
    doc = copy.deepcopy(WORKLOADS[workload])
    doc["seeds"] = [seed]
    return doc
