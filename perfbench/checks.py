"""Checks of one search's run entry against the independent oracle.

`check_run` returns a list of failure messages (empty when the run passes).
The state columns the oracle needs are regenerated through the program's
dataset generators from the run's seed; everything computed from them is the
oracle's own.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import oracle

UNIT_SLACK = 1e-12

_QUANTITY = {
    "n_layers": lambda gates, n: oracle.n_layers(gates, n),
    "n_params": lambda gates, n: oracle.n_parametric(gates),
    "n_two_qubit": lambda gates, n: sum(1 for _, t in gates if len(t) == 2),
    "n_gates": lambda gates, n: len(gates),
}


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= oracle.TOL


def _unit(x) -> bool:
    # Rounding may put an exact fidelity of 0 or 1 a few ulps outside.
    return math.isfinite(float(x)) and -UNIT_SLACK <= float(x) <= 1.0 + UNIT_SLACK


def test_fidelity(run: dict) -> float:
    """The held-out figure of merit of a run's best circuit."""
    test = run["test"]
    if "per_p" in test:
        means = [mean for mean, _std in test["per_p"].values()]
        return sum(means) / len(means)
    if "test_mean_fidelity" in test:
        return test["test_mean_fidelity"]
    return test["fidelity"]


def expected(qcas, task_cfg: dict, seed: int, gates, theta, n: int):
    """(validation score, test metrics) of the circuit, from the oracle."""
    tasks = qcas.tasks
    u = oracle.circuit_unitary(gates, theta, n)
    kind = task_cfg["kind"]
    if kind == "denoise":
        data = tasks.gen_noise_dataset(task_cfg["noise"], seed=seed)
        clean = oracle.ghz(data.n_qubits)
        n_trash = data.n_qubits - 1
        val = oracle.round_trip_fidelities(u, data.val, n_trash, clean).mean()
        per_p = {}
        for p, cols in sorted(data.test.items()):
            f = oracle.round_trip_fidelities(u, cols, n_trash, clean)
            per_p[str(p)] = [float(f.mean()), float(f.std())]
        return val, {"per_p": per_p}
    if kind == "image":
        gen = tasks.gen_digits if task_cfg["dataset"] == "digits" else tasks.gen_tetris
        task, test_cols = tasks.make_image_task(gen(seed), n_trash=task_cfg["n_trash"],
                                                seed=seed)
        val = oracle.round_trip_fidelities(u, task.val_cols, task_cfg["n_trash"]).mean()
        f = oracle.round_trip_fidelities(u, test_cols, task_cfg["n_trash"])
        return val, {"test_mean_fidelity": float(f.mean()),
                     "test_std_fidelity": float(f.std())}
    target = tasks.gen_hidden_targets(task_cfg["n_qubits"], task_cfg["subtask"],
                                      task_cfg["layers"], 1, seed)[0]
    target_gates = [(g.kind.tag, tuple(g.targets)) for g in target.circuit.gates]
    want = oracle.target_state(target_gates, n)
    fidelity = float(abs(np.vdot(want, u[:, 0])) ** 2)
    return fidelity, {"loss": 1.0 - fidelity, "fidelity": fidelity}


def check_run(qcas, config: dict, run: dict) -> list:
    """Oracle and property checks of one entry of a record's "runs"."""
    if "error" in run:
        return [f"search failed: {run['error']}"]
    failures = []
    cell = run["best_cell"]
    n = cell["n_qubits"]
    gates = oracle.cell_gates(cell)
    theta = run["theta"]

    if len(theta) != oracle.n_parametric(gates):
        return [f"len(theta) = {len(theta)} but the cell has "
                f"{oracle.n_parametric(gates)} parametric gates"]
    constraint = config["res"]["constraint"]
    amount = _QUANTITY[constraint["quantity"]](gates, n)
    if amount > constraint["bound"]:
        failures.append(f"constraint {constraint['quantity']} <= {constraint['bound']} "
                        f"broken: {amount}")
    for key, count in (("n_layers", oracle.n_layers(gates, n)),
                       ("n_params", oracle.n_parametric(gates))):
        if run["metrics"][key] != count:
            failures.append(f"metrics.{key} = {run['metrics'][key]}, oracle {count}")

    val, test = expected(qcas, config["task"], run["seed"], gates, theta, n)
    if not _close(run["validation_score"], val):
        failures.append(f"validation_score {run['validation_score']!r} vs oracle {val!r}")
    if "per_p" in test:
        got = run["test"].get("per_p", {})
        if sorted(got) != sorted(test["per_p"]):
            failures.append("test per_p grid differs")
        else:
            for p, (mean, std) in test["per_p"].items():
                if not (_close(got[p][0], mean) and _close(got[p][1], std)):
                    failures.append(f"test per_p[{p}] {got[p]} vs oracle {[mean, std]}")
    else:
        for key, want in test.items():
            if not _close(run["test"].get(key, math.nan), want):
                failures.append(f"test.{key} {run['test'].get(key)!r} vs oracle {want!r}")

    scores = [run["validation_score"], test_fidelity(run)]
    trace = run.get("trace") or {}
    scores += [p["best_score"] for p in trace.get("res", [])]
    for e in trace.get("relm", []):
        scores += [e["parent_score"], e["best_child_score"], e["best_score"]]
    if "init_best_score" in trace:
        scores.append(trace["init_best_score"])
    bad = [s for s in scores if not _unit(s)]
    if bad:
        failures.append(f"scores outside [0, 1]: {bad[:5]}")

    if "relm" in trace:
        best = [e["best_score"] for e in trace["relm"]]
        if any(b < a for a, b in zip(best, best[1:])):
            failures.append("RELM best_score decreased between epochs")
        if best and best[-1] < trace["init_best_score"]:
            failures.append("RELM ended below its initial best score")
    return failures


def csv_digest(qcas, record: dict, out_dir: str) -> str:
    """sha256 over the CSV files `qcas export` writes for a record."""
    digest = hashlib.sha256()
    for path in sorted(qcas.cli.export_csv(record, out_dir)):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()
