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
      subtask: dense | hybrid | single  # unitary_regen
      layers: 3                     # unitary_regen
      cost_mode: trash | local      # denoise, image, state_compress
    algorithm: rs | res | relm
    space: [RX, RY, RZ, CNOT, CRX, CRY, CRZ]   # null = task default
    rs:   {budget_evals, layer_budget}
    res:  {population_size, constraint: {quantity, bound},
           layer_budget_per_phase, max_phases}
    relm: {epochs, tournament_size, batch_size, learning_rate, init_mode,
           reward_mode, reward_sign, alpha, population_size, layer_budget,
           max_seq, embed_dim, n_heads, n_blocks, ff_dim}
    opt:  {max_evals, x_tol, f_tol, restarts}
    seeds: [1]                    # non-empty, integers >= 0
    out_dir: runs
    jobs: 1                       # 1..os.cpu_count()

Each task key is read only by the kinds marked beside it; setting one that
the configured kind does not read to anything but its default is a config
error.  The res, relm and opt sections are the fields of `ResConfig`,
`RelmConfig` and `OptBudget` with their defaults, less those the runner fills
in itself (the seed, the optimizer budget, and RELM's constraint, which is
res's).
Each config object is built once at parse time, so a bad value is a config
error naming its dotted key.
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
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from . import __version__
from .cell import SoftConstraint, build_vocab, cell_from_dict, cell_to_dict, metrics
from .optim import OptBudget, check_range
from .relm import RelmConfig, init_population, relm_search
from .res import ResConfig, res_search
from .sim import SPACE_CLIFFORD, SPACE_GENERIC, SPACE_SINGLE_CLIFFORD
from .tasks import (
    COST_MODES,
    IMAGE_DATASETS,
    NOISE_KINDS,
    REGEN_LAYERS,
    REGEN_QUBITS,
    SUBTASK_CNOT_PROB,
    evaluate_qae_test,
    gen_hidden_targets,
    gen_noise_dataset,
    gen_state_compress_dataset,
    image_qubits,
    logfidelity,
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


def _section(cls, *filled_by_runner) -> dict:
    """A config class's fields and defaults as a CLI config section."""
    return {f.name: asdict(f.default) if is_dataclass(f.default) else f.default
            for f in fields(cls)
            if f.name not in ("seed", "opt_budget") + filled_by_runner}


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
    "res": _section(ResConfig),
    "relm": _section(RelmConfig, "constraint", "eps_tan"),
    "opt": _section(OptBudget),
    "seeds": [1],
    "out_dir": "runs",
    "jobs": 1,
}
TASK_KEYS = {  # the task keys each kind reads, besides "kind"
    "denoise": ("noise", "cost_mode"),
    "image": ("dataset", "n_trash", "cost_mode"),
    "state_compress": ("cost_mode",),
    "unitary_regen": ("n_qubits", "subtask", "layers"),
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
        import yaml  # imported here: a run from a dict config never needs it
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
        import yaml
        doc = yaml.safe_load(text) or {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    config = _merge_checked(DEFAULT_CONFIG, doc)
    config = _apply_env_overrides(config, environ)
    _validate(config)
    return config


def _validate(config: dict):
    task = config["task"]
    for key, value, choices in (
        ("task.kind", task["kind"], TASK_KEYS),
        ("task.noise", task["noise"], NOISE_KINDS),
        ("task.dataset", task["dataset"], IMAGE_DATASETS),
        ("task.subtask", task["subtask"], SUBTASK_CNOT_PROB),
        ("task.cost_mode", task["cost_mode"], COST_MODES),
        ("algorithm", config["algorithm"], ("rs", "res", "relm")),
    ):
        if value not in tuple(choices):
            raise ConfigError(f"{key} must be one of {tuple(choices)}, got {value!r}")
    kind = task["kind"]
    for key, value in task.items():
        if (key != "kind" and key not in TASK_KEYS[kind]
                and value != DEFAULT_CONFIG["task"][key]):
            raise ConfigError(f"task.{key} is not read by task kind {kind!r}")
    seeds, space = config["seeds"], config["space"]
    if not (isinstance(seeds, list) and seeds and all(type(s) is int and s >= 0 for s in seeds)):
        raise ConfigError(f"seeds must be a non-empty list of integers >= 0, got {seeds!r}")
    try:
        check_range("jobs", config["jobs"], 1, os.cpu_count() or 1)
        if kind == "image":
            check_range("task.n_trash", task["n_trash"], 1, image_qubits(task["dataset"]) - 1)
        elif kind == "unitary_regen":
            check_range("task.n_qubits", task["n_qubits"], *REGEN_QUBITS)
            check_range("task.layers", task["layers"], *REGEN_LAYERS)
        _configs(config, seed=0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(space, (list, type(None))):
        raise ConfigError(f"space must be null or a list of gate kinds, got {space!r}")
    if space is not None:
        try:
            build_vocab(space)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"space: {exc}") from exc


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
    dataset: object  # () -> JSON document of the dataset the task is built from


def build_task(task_cfg: dict, seed: int) -> BuiltTask:
    """The task of a config at a seed; searches and `gen-data` both take
    their dataset from here, so they always see the same one."""
    kind = task_cfg["kind"]
    if kind == "denoise":
        dataset = gen_noise_dataset(task_cfg["noise"], seed=seed)
        task = make_denoise_task(dataset, cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            return {"per_p": {str(p): list(evaluate_qae_test(circuit, theta, task, cols))
                              for p, cols in sorted(dataset.test.items())}}

        return BuiltTask(task, evaluate, lambda: {
            "noise": dataset.kind, "p_train": dataset.p_train,
            "train": _cols_to_list(dataset.train), "val": _cols_to_list(dataset.val),
            "test": {str(p): _cols_to_list(c) for p, c in sorted(dataset.test.items())}})
    if kind == "image":
        images = IMAGE_DATASETS[task_cfg["dataset"]](seed)
        task, test_cols = make_image_task(images, n_trash=task_cfg["n_trash"], seed=seed,
                                          cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            mean, std = evaluate_qae_test(circuit, theta, task, test_cols)
            return {"test_mean_fidelity": mean, "test_std_fidelity": std}

        return BuiltTask(task, evaluate, lambda: {
            "name": images.name, "images": images.images.tolist(),
            "labels": images.labels.tolist()})
    if kind == "state_compress":
        dataset = gen_state_compress_dataset(seed)
        task = make_state_compress_task(dataset, cost_mode=task_cfg["cost_mode"])

        def evaluate(circuit, theta):
            mean, std = evaluate_qae_test(circuit, theta, task, dataset.test)
            return {"test_mean_fidelity": mean, "test_std_fidelity": std,
                    "test_logfidelity": logfidelity(mean)}

        return BuiltTask(task, evaluate, lambda: {
            "train": _cols_to_list(dataset.train), "test": _cols_to_list(dataset.test)})
    # unitary_regen
    target = gen_hidden_targets(task_cfg["n_qubits"], task_cfg["subtask"],
                                task_cfg["layers"], 1, seed)[0]
    task = UnitaryRegenTask(target)

    def evaluate(circuit, theta):
        loss = task.training_cost(circuit, theta)
        return {"loss": loss, "fidelity": 1.0 - loss}

    return BuiltTask(task, evaluate, lambda: {
        "targets": [_cols_to_list(target.evolved.amplitudes[:, None])]})


def _cols_to_list(cols: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in col] for col in np.asarray(cols).T]


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------


def _build(section: str, cls, values: dict, **filled):
    try:
        return cls(**values, **filled)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from exc


def _configs(config: dict, seed: int):
    """The OptBudget, ResConfig and RelmConfig of one seed's run.  A bad value
    raises a ValueError that starts with its dotted config key."""
    opt = _build("opt", OptBudget, config["opt"])
    res = config["res"]
    constraint = _build("res.constraint", SoftConstraint, res["constraint"])
    res_cfg = _build("res", ResConfig, dict(res, constraint=constraint),
                     opt_budget=opt, seed=seed)
    relm_cfg = _build("relm", RelmConfig, config["relm"], constraint=constraint,
                      opt_budget=opt, seed=seed)
    return opt, res_cfg, relm_cfg


def _run_single_seed(config: dict, seed: int) -> dict:
    from .cell import cell_to_circuit

    start = time.monotonic()
    built = build_task(config["task"], seed)
    task = built.task
    space = config["space"] or default_space(config["task"])
    algorithm = config["algorithm"]
    opt, res_cfg, relm_cfg = _configs(config, seed)
    trace = None
    if algorithm == "rs":
        rs = config["rs"]
        (cell, theta, score), _ = random_search(
            task, space, rs["budget_evals"], None, seed,
            layer_budget=rs["layer_budget"], opt_budget=opt,
        )
    elif algorithm == "res":
        result = res_search(task, space, res_cfg)
        cell, theta, score = result.best_cell, result.theta, result.score
        trace = {"res": [vars(p) for p in result.trace.phases]}
    else:
        pop, res_result = init_population(task, space, relm_cfg, res_cfg)
        init_best = max(e.score for e in pop)
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
    work = [(config, seed) for seed in config["seeds"]]
    if config["jobs"] > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only jobs > 1 needs it

        with ProcessPoolExecutor(max_workers=config["jobs"]) as pool:
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
    """Persist, as JSON, the dataset a search with this task config uses at
    this seed."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {"format": 1, "kind": task_cfg["kind"], **build_task(task_cfg, seed).dataset()}
    path = os.path.join(out_dir, f"{task_cfg['kind']}_seed{seed}.json")
    write_record(doc, path)
    return path


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
    for key, flag in (("seeds", args.seed), ("out_dir", args.out), ("jobs", args.jobs),
                      ("algorithm", args.algo)):
        if flag not in (None, ""):
            config[key] = flag
    _validate(config)  # the flags are checked like the keys they set
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
