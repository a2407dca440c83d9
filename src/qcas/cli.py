"""Seeded experiment driver: config parsing, run orchestration, persistent
run records and CSV export.

Configs are YAML documents (schema below); run records are JSON written
atomically.  Any config key can be overridden through environment variables
with the ``QCAS_`` prefix and ``__`` as the nesting separator, e.g.
``QCAS_RES__POPULATION_SIZE=10``.

Config schema (all keys optional except task.kind)::

    task:
      kind: denoise | image | state_compress | unitary_regen
      noise: bitflip | qdc          # denoise
      dataset: digits | tetris      # image
      n_trash: 1                    # image
      n_qubits: 3                   # unitary_regen
      subtask: dense | hybrid | single
      layers: 3
      cost_mode: trash | local
    algorithm: rs | res | relm
    space: [RX, RY, RZ, CNOT, CRX, CRY, CRZ]   # null = task default
    rs:   {budget_evals, layer_budget}
    res:  {population_size, constraint: {quantity, bound},
           layer_budget_per_phase, max_phases, mode}
    relm: {epochs, tournament_size, batch_size, learning_rate, init_mode,
           reward_mode, reward_sign, alpha, population_size, layer_budget,
           max_seq, embed_dim, n_heads, n_blocks, ff_dim}
    opt:  {max_evals, x_tol, f_tol, restarts}
    seeds: [1]
    out_dir: runs
    jobs: 1
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .cell import SoftConstraint, build_vocab, cell_from_dict, cell_to_dict, metrics
from .optim import OptBudget
from .relm import RelmConfig, init_population, relm_search
from .res import ResConfig, res_search
from .sim import SPACE_CLIFFORD, SPACE_GENERIC, SPACE_SINGLE_CLIFFORD
from .tasks import (
    evaluate_denoising,
    evaluate_qae_test,
    gen_digits,
    gen_hidden_targets,
    gen_noise_dataset,
    gen_state_compress_dataset,
    gen_tetris,
    make_denoise_task,
    make_image_task,
    make_state_compress_task,
    random_search,
    UnitaryRegenTask,
)

ENV_PREFIX = "QCAS_"
RECORD_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "task": {
        "kind": None,
        "noise": "bitflip",
        "dataset": "digits",
        "n_trash": 1,
        "n_qubits": 3,
        "subtask": "dense",
        "layers": 3,
        "cost_mode": "trash",
    },
    "algorithm": "res",
    "space": None,
    "rs": {"budget_evals": 30, "layer_budget": 2},
    "res": {
        "population_size": 30,
        "constraint": {"quantity": "n_layers", "bound": 3},
        "layer_budget_per_phase": 1,
        "max_phases": 10,
        "mode": "budget",
    },
    "relm": {
        "epochs": 30,
        "tournament_size": 5,
        "batch_size": 32,
        "learning_rate": 3e-4,
        "init_mode": "res",
        "reward_mode": "qae",
        "reward_sign": "text",
        "alpha": 1.5,
        "population_size": 30,
        "layer_budget": 2,
        "max_seq": 8,
        "embed_dim": 32,
        "n_heads": 4,
        "n_blocks": 2,
        "ff_dim": 64,
    },
    "opt": {"max_evals": 0, "x_tol": 1e-6, "f_tol": 1e-9, "restarts": 3},
    "seeds": [1],
    "out_dir": "runs",
    "jobs": 1,
}


def _merge_checked(defaults: dict, given: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        here = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be a mapping")
            out[key] = _merge_checked(defaults[key], value, here + ".")
        else:
            out[key] = value
    return out


def _apply_env_overrides(config: dict, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        parts = [p.lower() for p in name[len(ENV_PREFIX):].split("__")]
        node = config
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key in {name}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key in {name}")
        node[parts[-1]] = yaml.safe_load(raw)
    return config


def parse_config(source, environ=None) -> dict:
    """Parse and validate a YAML config (path or text); fill defaults, then
    apply environment overrides.  Unknown keys are errors."""
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if os.path.exists(str(source)):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        doc = yaml.safe_load(text) or {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    config = _merge_checked(DEFAULT_CONFIG, doc)
    config = _apply_env_overrides(config, environ)
    _validate(config)
    return config


def _validate(config: dict):
    task = config["task"]
    if task["kind"] not in ("denoise", "image", "state_compress", "unitary_regen"):
        raise ConfigError(f"unknown task kind {task['kind']!r}")
    if config["algorithm"] not in ("rs", "res", "relm"):
        raise ConfigError(f"unknown algorithm {config['algorithm']!r}")
    if not config["seeds"]:
        raise ConfigError("at least one seed is required")
    relm = config["relm"]
    if relm["tournament_size"] > relm["population_size"]:
        raise ConfigError("relm.tournament_size exceeds relm.population_size")
    SoftConstraint(**config["res"]["constraint"])  # raises on bad values


# ---------------------------------------------------------------------------
# Task construction
# ---------------------------------------------------------------------------


def default_space(task_cfg: dict):
    if task_cfg["kind"] == "unitary_regen":
        if task_cfg["subtask"] == "single":
            return sorted(SPACE_SINGLE_CLIFFORD)
        return sorted(SPACE_CLIFFORD)
    return sorted(SPACE_GENERIC)


@dataclass
class BuiltTask:
    task: object
    evaluate: object  # record-ready test metrics for (circuit, theta)


def build_task(task_cfg: dict, seed: int) -> BuiltTask:
    kind = task_cfg["kind"]
    if kind == "denoise":
        dataset = gen_noise_dataset(task_cfg["noise"], seed=seed)
        task = make_denoise_task(dataset, cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            per_p = evaluate_denoising(circuit, theta, dataset)
            return {"per_p": {str(p): [m, s] for p, (m, s) in per_p.items()}}

        return BuiltTask(task, evaluate)
    if kind == "image":
        gen = gen_digits if task_cfg["dataset"] == "digits" else gen_tetris
        task, test_cols = make_image_task(gen(seed), n_trash=task_cfg["n_trash"],
                                          seed=seed)

        def evaluate(circuit, theta):
            mean, std = evaluate_qae_test(circuit, theta, task, test_cols)
            return {"test_mean_fidelity": mean, "test_std_fidelity": std}

        return BuiltTask(task, evaluate)
    if kind == "state_compress":
        dataset = gen_state_compress_dataset(seed)
        task = make_state_compress_task(dataset)

        def evaluate(circuit, theta):
            mean, std = evaluate_qae_test(circuit, theta, task, dataset.test)
            from .tasks import logfidelity
            return {"test_mean_fidelity": mean, "test_std_fidelity": std,
                    "test_logfidelity": logfidelity(mean)}

        return BuiltTask(task, evaluate)
    # unitary_regen
    target = gen_hidden_targets(task_cfg["n_qubits"], task_cfg["subtask"],
                                task_cfg["layers"], 1, seed)[0]
    task = UnitaryRegenTask(target)

    def evaluate(circuit, theta):
        loss = task.training_cost(circuit, theta)
        return {"loss": loss, "fidelity": 1.0 - loss}

    return BuiltTask(task, evaluate)


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------


def _opt_budget(config: dict) -> OptBudget:
    return OptBudget(**config["opt"])


def _res_config(config: dict, seed: int) -> ResConfig:
    res = config["res"]
    return ResConfig(
        population_size=res["population_size"],
        constraint=SoftConstraint(**res["constraint"]),
        layer_budget_per_phase=res["layer_budget_per_phase"],
        opt_budget=_opt_budget(config),
        max_phases=res["max_phases"],
        seed=seed,
        mode=res["mode"],
    )


def _relm_config(config: dict, seed: int) -> RelmConfig:
    relm = config["relm"]
    return RelmConfig(
        epochs=relm["epochs"],
        tournament_size=relm["tournament_size"],
        batch_size=relm["batch_size"],
        learning_rate=relm["learning_rate"],
        init_mode=relm["init_mode"],
        reward_mode=relm["reward_mode"],
        reward_sign=relm["reward_sign"],
        alpha=relm["alpha"],
        constraint=SoftConstraint(**config["res"]["constraint"]),
        population_size=relm["population_size"],
        layer_budget=relm["layer_budget"],
        max_seq=relm["max_seq"],
        embed_dim=relm["embed_dim"],
        n_heads=relm["n_heads"],
        n_blocks=relm["n_blocks"],
        ff_dim=relm["ff_dim"],
        opt_budget=_opt_budget(config),
        seed=seed,
    )


def _run_single_seed(config: dict, seed: int) -> dict:
    from .cell import cell_to_circuit

    start = time.monotonic()
    built = build_task(config["task"], seed)
    task = built.task
    space = config["space"] or default_space(config["task"])
    algorithm = config["algorithm"]
    trace = None
    if algorithm == "rs":
        rs = config["rs"]
        (cell, theta, score), _ = random_search(
            task, space, rs["budget_evals"], None, seed,
            layer_budget=rs["layer_budget"], opt_budget=_opt_budget(config),
        )
    elif algorithm == "res":
        result = res_search(task, space, _res_config(config, seed))
        cell, theta, score = result.best_cell, result.theta, result.score
        trace = {"res": [vars(p) for p in result.trace.phases]}
    else:
        relm_cfg = _relm_config(config, seed)
        pop, res_result = init_population(
            relm_cfg.init_mode, task, space, relm_cfg.population_size, relm_cfg,
            res_config=_res_config(config, seed) if relm_cfg.init_mode == "res" else None,
        )
        init_best = max(e.score for e in pop.entries)
        result = relm_search(task, relm_cfg, pop, build_vocab(space))
        cell, theta, score = result.best_cell, result.theta, result.score
        trace = {"relm": [vars(r) for r in result.epochs],
                 "init_best_score": init_best}
        if res_result is not None:
            trace["res"] = [vars(p) for p in res_result.trace.phases]
    circuit = cell_to_circuit(cell)
    test_metrics = built.evaluate(circuit, np.asarray(theta, dtype=float))
    return {
        "seed": seed,
        "algorithm": algorithm,
        "best_cell": cell_to_dict(cell),
        "theta": [float(t) for t in np.atleast_1d(theta)],
        "metrics": vars(metrics(cell)),
        "validation_score": float(score),
        "test": test_metrics,
        "trace": trace,
        "wall_time_s": time.monotonic() - start,
    }


def _seed_worker(args):
    config, seed = args
    try:
        return _run_single_seed(config, seed)
    except Exception as exc:  # captured per seed, other seeds continue
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}


def run(config: dict) -> dict:
    """Execute the configured algorithm for every seed and return the record."""
    jobs = max(1, int(config["jobs"]))
    work = [(config, seed) for seed in config["seeds"]]
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_seed_worker, work))
    else:
        runs = [_seed_worker(w) for w in work]
    return {
        "format": RECORD_FORMAT_VERSION,
        "toolkit_version": __version__,
        "config": config,
        "runs": runs,
    }


def write_record(record: dict, path: str):
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("format") != RECORD_FORMAT_VERSION:
        raise ConfigError(f"unsupported record format in {path}")
    return record


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _smooth(values, window: int = 5):
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out.append(sum(values[lo:i + 1]) / (i + 1 - lo))
    return out


def export_csv(records, out_dir: str) -> list:
    """Write one CSV per figure family; returns the written paths."""
    if isinstance(records, dict):
        records = [records]
    os.makedirs(out_dir, exist_ok=True)
    denoise_rows, relm_rows, summary_rows = [], [], []
    for record in records:
        for r in record["runs"]:
            if "error" in r:
                continue
            algorithm, seed = r["algorithm"], r["seed"]
            test = r.get("test", {})
            if "per_p" in test:
                for p, (mean, std) in sorted(test["per_p"].items(), key=lambda kv: float(kv[0])):
                    denoise_rows.append([_fmt(p), _fmt(mean), _fmt(std), algorithm, str(seed)])
            trace = r.get("trace") or {}
            if "relm" in trace:
                rewards = [e["mean_reward"] for e in trace["relm"]]
                smoothed = _smooth(rewards)
                for e, s in zip(trace["relm"], smoothed):
                    relm_rows.append([str(e["epoch"]), _fmt(s), _fmt(e["best_score"])])
            m = r["metrics"]
            summary_rows.append([
                record["config"]["task"]["kind"], algorithm, str(seed),
                _fmt(r["validation_score"]), str(m["n_params"]),
                str(m["n_layers"]), str(m["n_two_qubit"]),
            ])
    written = []

    def emit(name, header, rows):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        written.append(path)

    emit("denoising.csv", ["p", "mean_fidelity", "std_fidelity", "algorithm", "seed"],
         denoise_rows)
    emit("relm.csv", ["epoch", "smoothed_reward", "best_score"], relm_rows)
    emit("summary.csv", ["task", "algorithm", "seed", "validation_score",
                         "n_params", "n_layers", "n_two_qubit"], summary_rows)
    return written


# ---------------------------------------------------------------------------
# Dataset generation / evaluation commands
# ---------------------------------------------------------------------------


def gen_data(task_cfg: dict, seed: int, out_dir: str) -> str:
    """Regenerate a task's dataset deterministically and persist it as JSON."""
    os.makedirs(out_dir, exist_ok=True)
    kind = task_cfg["kind"]
    if kind == "denoise":
        ds = gen_noise_dataset(task_cfg["noise"], seed=seed)
        doc = {
            "format": 1, "kind": "denoise", "noise": ds.kind, "p_train": ds.p_train,
            "train": _cols_to_list(ds.train), "val": _cols_to_list(ds.val),
            "test": {str(p): _cols_to_list(c) for p, c in sorted(ds.test.items())},
        }
    elif kind == "image":
        gen = gen_digits if task_cfg["dataset"] == "digits" else gen_tetris
        images = gen(seed)
        doc = {"format": 1, "kind": "image", "name": images.name,
               "images": images.images.tolist(), "labels": images.labels.tolist()}
    elif kind == "state_compress":
        ds = gen_state_compress_dataset(seed)
        doc = {"format": 1, "kind": "state_compress",
               "train": _cols_to_list(ds.train), "test": _cols_to_list(ds.test)}
    else:
        targets = gen_hidden_targets(task_cfg["n_qubits"], task_cfg["subtask"],
                                     task_cfg["layers"], 10, seed)
        doc = {"format": 1, "kind": "unitary_regen",
               "targets": [_cols_to_list(t.evolved.amplitudes[:, None]) for t in targets]}
    path = os.path.join(out_dir, f"{kind}_seed{seed}.json")
    write_record(doc, path)
    return path


def _cols_to_list(cols: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in col] for col in np.asarray(cols).T]


def eval_record(record_path: str, out_dir: str) -> str:
    """Re-evaluate every run in a record on its task's test protocol."""
    record = load_record(record_path)
    from .cell import cell_to_circuit

    results = []
    for r in record["runs"]:
        if "error" in r:
            results.append(r)
            continue
        built = build_task(record["config"]["task"], r["seed"])
        circuit = cell_to_circuit(cell_from_dict(r["best_cell"]))
        theta = np.asarray(r["theta"], dtype=float)
        results.append({"seed": r["seed"], "algorithm": r["algorithm"],
                        "test": built.evaluate(circuit, theta)})
    out = {"format": RECORD_FORMAT_VERSION, "source": os.path.basename(record_path),
           "results": results}
    path = os.path.join(out_dir, "eval_" + os.path.basename(record_path))
    write_record(out, path)
    return path


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", required=True, help="YAML config path")
    p.add_argument("--seed", type=int, action="append", default=None,
                   help="override config seeds (repeatable)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=None, help="parallel seed workers")
    p.add_argument("--algo", choices=["rs", "res", "relm"], default=None)


def _resolved(args) -> dict:
    config = parse_config(args.config)
    if args.seed:
        config["seeds"] = args.seed
    if args.out:
        config["out_dir"] = args.out
    if getattr(args, "jobs", None):
        config["jobs"] = args.jobs
    if getattr(args, "algo", None):
        config["algorithm"] = args.algo
    _validate(config)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qcas",
                                     description="quantum architecture search runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "search", "eval", "export"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "eval":
            p.add_argument("--record", required=True, help="run record to evaluate")
        if name == "export":
            p.add_argument("--record", action="append", required=True,
                           help="run record(s) to export (repeatable)")
    try:
        args = parser.parse_args(argv)
        config = _resolved(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK

    out_dir = config["out_dir"]
    try:
        if args.command == "gen-data":
            for seed in config["seeds"]:
                path = gen_data(config["task"], seed, out_dir)
                print(path)
        elif args.command == "search":
            record = run(config)
            name = f"{config['task']['kind']}_{config['algorithm']}.json"
            path = os.path.join(out_dir, name)
            write_record(record, path)
            print(path)
            if any("error" in r for r in record["runs"]):
                return EXIT_RUNTIME
        elif args.command == "eval":
            print(eval_record(args.record, out_dir))
        else:
            records = [load_record(p) for p in args.record]
            for path in export_csv(records, out_dir):
                print(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
