"""Quick self-test of the benchmark's output checks.

The two-CNOT encoder CNOT(0,1)·CNOT(0,2) maps every bit-flipped GHZ state to
|±>|syndrome>, so resetting the trash qubits and decoding restores GHZ
exactly: both the program and the oracle must give validation 1.0 on the
`denoise` task.  The checks must then accept a record of that circuit and
reject it once its score or its theta is perturbed.

Run alone with `python3 perfbench/selftest.py` from the repository root.
"""

from __future__ import annotations

import copy
import os
import sys

import checks
import oracle

SEED = 7
EXACT = 1e-12
CONFIG = {"task": {"kind": "denoise", "noise": "bitflip"},
          "res": {"constraint": {"quantity": "n_layers", "bound": 2}},
          "seeds": [SEED]}
TWO_CNOT = [("CNOT", (0, 1)), ("CNOT", (0, 2))]


def _record_run(qcas, config, node_ops, theta) -> dict:
    """A run entry as `qcas.cli.run` writes it, for a fixed cell."""
    cell = qcas.cell.Cell(3, node_ops, {(0, 1): ["CNOT"], (0, 2): ["CNOT"]})
    circuit = qcas.cell.cell_to_circuit(cell)
    built = qcas.cli.build_task(config["task"], SEED)
    return {
        "seed": SEED,
        "algorithm": "res",
        "best_cell": qcas.cell.cell_to_dict(cell),
        "theta": list(theta),
        "metrics": vars(qcas.cell.metrics(cell)),
        "validation_score": built.task.validation_score(circuit, theta),
        "test": built.evaluate(circuit, theta),
        "trace": None,
    }


def selftest(qcas) -> list:
    failures = []
    config = qcas.cli.parse_config(copy.deepcopy(CONFIG), environ={})
    plain = _record_run(qcas, config, [[], [], []], [])
    if abs(plain["validation_score"] - 1.0) > EXACT:
        failures.append(f"program validation {plain['validation_score']!r} != 1")
    val, _test = checks.expected(qcas, config["task"], SEED, TWO_CNOT, [], 3)
    if abs(val - 1.0) > EXACT:
        failures.append(f"oracle validation {val!r} != 1")
    rejected = checks.check_run(qcas, config, plain)
    if rejected:
        failures.append(f"checks reject the exact encoder: {rejected}")

    # An RZ(0) on a trash qubit before encoding is the identity, so the
    # record stays exact; RZ(0.1) changes the round trip by ~2.5e-3.
    with_param = _record_run(qcas, config, [[], [], ["RZ"]], [0.0])
    perturbed = {
        "score": dict(with_param, validation_score=with_param["validation_score"] - 1e-6),
        "theta": dict(with_param, theta=[0.1]),
    }
    if checks.check_run(qcas, config, with_param):
        failures.append("checks reject the exact RZ(0) encoder")
    for what, run in perturbed.items():
        if not checks.check_run(qcas, config, run):
            failures.append(f"checks accept a record with a perturbed {what}")
    if oracle.n_layers(oracle.cell_gates(with_param["best_cell"]), 3) != 2:
        failures.append("oracle layer count of the RZ encoder is not 2")
    return failures


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import run

    problems = selftest(run.load_qcas())
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    raise SystemExit(1 if problems else 0)
