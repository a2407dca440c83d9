"""Seeded experiment driver: config parsing, run orchestration, persistent
run records and CSV export.  What each task kind is (its keys, dataset, task,
test protocol and default gate space) lives in `qcas.tasks`; this module
reaches it only through `build_task` and `default_space`.

Configs are YAML documents (schema below); run records are JSON written
atomically.  Any config key can be overridden through environment variables
with the ``QCAS_`` prefix and ``__`` as the nesting separator, e.g.
``QCAS_RES__POPULATION_SIZE=10``; a variable's YAML value merges like the
same key in a file.

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
           reward_mode, alpha, population_size, layer_budget, max_seq,
           embed_dim, n_heads, n_blocks, ff_dim}
    opt:  {max_evals, x_tol, f_tol, restarts}
    seeds: [1]                    # non-empty, integers >= 0
    out_dir: runs
    jobs: 1                       # 1..os.cpu_count()

Each task key is read only by the kinds marked beside it; setting one that
the configured kind does not read to anything but its default is a config
error.  The task, rs, res, relm and opt sections are exactly the fields and
defaults of `TaskConfig`, `RsConfig`, `ResConfig`, `RelmConfig` and
`OptBudget`; every algorithm searches under ``res.constraint``.  A bad value
is a config error naming its dotted key: every section is built at parse time.
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
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from . import __version__
from .cell import (Cell, SoftConstraint, build_vocab, cell_from_dict, cell_to_circuit,
                   cell_to_dict, metrics)
from .optim import OptBudget, check_choice, check_range
from .relm import RelmConfig, init_population, relm_search
from .res import ResConfig, res_search
from .tasks import RsConfig, TaskConfig, build_task, default_space, random_search

ENV_PREFIX = "QCAS_"
RECORD_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
ALGORITHMS = ("rs", "res", "relm")


class ConfigError(ValueError):
    pass


def _section(cls) -> dict:
    """A config class's fields and defaults as a CLI config section."""
    return {f.name: asdict(f.default) if is_dataclass(f.default) else f.default
            for f in fields(cls)}


DEFAULT_CONFIG = {
    "task": _section(TaskConfig),
    "algorithm": "res",
    "space": None,
    "rs": _section(RsConfig),
    "res": _section(ResConfig),
    "relm": _section(RelmConfig),
    "opt": _section(OptBudget),
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


def _load_yaml(text: str, where: str):
    """The YAML document `text`; a parse error is a one-line ConfigError
    that names `where` the text came from."""
    import yaml  # imported here: a run from a dict config never needs it
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        reason = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"{where} is not valid YAML{at}: {reason}") from None


def _apply_env_overrides(config: dict, environ=None) -> dict:
    """Merge each ``QCAS_`` variable, in name order, as the one-key document
    its name spells (``QCAS_RES__CONSTRAINT`` is ``{res: {constraint: ...}}``),
    checked like the same key in a config file."""
    environ = os.environ if environ is None else environ
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        doc = _load_yaml(raw, name)
        for part in reversed(name[len(ENV_PREFIX):].lower().split("__")):
            doc = {part: doc}
        try:
            config = _merge_checked(config, doc)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return config


def parse_config(source, environ=None) -> dict:
    """Parse and validate a config, given as a mapping or as the path of a
    YAML file; fill defaults, then apply environment overrides.  Unknown
    keys are errors."""
    if isinstance(source, dict):
        doc = source
    else:
        where = f"config {str(source)!r}"
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read {where}: {reason}") from None
        doc = _load_yaml(text, where) or {}
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    config = _merge_checked(DEFAULT_CONFIG, doc)
    config = _apply_env_overrides(config, environ)
    _validate(config)
    return config


def _validate(config: dict):
    seeds, space = config["seeds"], config["space"]
    try:
        check_choice("algorithm", config["algorithm"], ALGORITHMS)
        if not (isinstance(seeds, list) and seeds
                and all(type(s) is int and s >= 0 for s in seeds)):
            raise ValueError(f"seeds must be a non-empty list of integers >= 0, got {seeds!r}")
        _build("task", TaskConfig, config["task"])
        check_range("jobs", config["jobs"], 1, os.cpu_count() or 1)
        _, _, res_cfg, relm_cfg = _configs(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(space, (list, type(None))):
        raise ConfigError(f"space must be null or a list of gate kinds, got {space!r}")
    try:
        vocab = build_vocab(default_space(config["task"]) if space is None else space)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"space: {exc}") from exc
    if config["algorithm"] == "relm" and relm_cfg.init_mode == "res":
        # RES adds up to layer_budget_per_phase rotations to a qubit a phase, no more
        # than the bound holds of its cheapest rotation kind; RELM reads a parent's
        # rotations into max_seq slots
        quantity, bound = res_cfg.constraint.quantity, res_cfg.constraint.bound
        costs = [getattr(metrics(Cell(1, [[t]])), quantity) for t in vocab.rotation_kinds[1:]]
        most = res_cfg.max_phases * res_cfg.layer_budget_per_phase if costs else 0
        cheapest = min(costs, default=0)
        if cheapest:
            most = min(most, bound // cheapest)
        if relm_cfg.max_seq < most:
            raise ConfigError(f"relm.max_seq must be >= {most}, the most rotations RES "
                              f"can put on one qubit, got {relm_cfg.max_seq}")


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------


def _build(section: str, cls, values: dict):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{section}.{exc}") from exc


def _configs(config: dict):
    """The RsConfig, OptBudget, ResConfig and RelmConfig of a run.  A bad
    value raises a ValueError that starts with its dotted config key."""
    rs_cfg = _build("rs", RsConfig, config["rs"])
    opt = _build("opt", OptBudget, config["opt"])
    res = config["res"]
    constraint = _build("res.constraint", SoftConstraint, res["constraint"])
    res_cfg = _build("res", ResConfig, dict(res, constraint=constraint))
    relm_cfg = _build("relm", RelmConfig, config["relm"])
    return rs_cfg, opt, res_cfg, relm_cfg


def _run_single_seed(config: dict, seed: int) -> dict:
    start = time.monotonic()
    built = build_task(config["task"], seed)
    task = built.task
    vocab = build_vocab(config["space"] or default_space(config["task"]))
    algorithm = config["algorithm"]
    rs_cfg, opt, res_cfg, relm_cfg = _configs(config)
    trace = None
    if algorithm == "rs":
        best, _ = random_search(
            task, vocab, rs_cfg.budget_evals, res_cfg.constraint, seed,
            layer_budget=rs_cfg.layer_budget, opt_budget=opt,
        )
    elif algorithm == "res":
        result = res_search(task, vocab, res_cfg, opt, seed)
        best = result.best
        trace = {"res": [vars(p) for p in result.phases]}
    else:
        pop, res_result = init_population(task, vocab, relm_cfg, res_cfg, opt, seed)
        init_best = max(e.score for e in pop)
        result = relm_search(task, relm_cfg, pop, vocab, res_cfg.constraint, opt, seed)
        best = result.best
        trace = {"relm": [vars(r) for r in result.epochs],
                 "init_best_score": init_best}
        if res_result is not None:
            trace["res"] = [vars(p) for p in res_result.phases]
    cell, theta, score = best
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


# the keys of a run without an error that `export_csv` and `eval_record` read
_RUN_KEYS = ("seed", "algorithm", "metrics", "validation_score", "test", "trace", "best_cell",
             "theta")
# the keys of a run's metrics that `export_csv` reads
_METRIC_KEYS = ("n_params", "n_layers", "n_two_qubit")


def load_record(path: str) -> dict:
    """The run record at `path`, its task section merged over the defaults
    and checked as a config's is.  An unreadable file, a document without the
    keys that `export_csv` and `eval_record` read, a bad task section (named
    by its dotted key) or a run with a `_run_problem` is a ConfigError that
    names the path (and the run)."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read record {path!r}: {reason}") from None
    if not (isinstance(record, dict) and isinstance(record.get("runs"), list)):
        raise ConfigError(f"record {path!r} is not a run record: it has no 'runs' list")
    if record.get("format") != RECORD_FORMAT_VERSION:
        raise ConfigError(f"unsupported record format in {path}")
    config = record.get("config")
    if not (isinstance(config, dict) and isinstance(config.get("task"), dict)
            and "kind" in config["task"]):
        raise ConfigError(f"record {path!r} has no 'config.task.kind'")
    try:
        config["task"] = _merge_checked(DEFAULT_CONFIG["task"], config["task"], "task.")
        _build("task", TaskConfig, config["task"])
    except ValueError as exc:
        raise ConfigError(f"record {path!r}: {exc}") from None
    for i, run in enumerate(record["runs"]):
        if not isinstance(run, dict):
            raise ConfigError(f"record {path!r}: run {i} is not a mapping")
        if "error" in run:
            continue
        missing = [key for key in _RUN_KEYS if key not in run]
        if not missing:
            metrics = run["metrics"]
            missing = [f"metrics.{key}" for key in _METRIC_KEYS
                       if not (isinstance(metrics, dict) and key in metrics)]
        if missing:
            raise ConfigError(f"record {path!r}: run {i} has no {missing[0]!r}")
        problem = _run_problem(run)
        if problem is not None:
            raise ConfigError(f"record {path!r}: run {i} has {problem}")
    return record


def _run_problem(run: dict) -> str | None:
    """What keeps a run's `seed`, `best_cell` and `theta` from being a seed,
    a cell and its parameters, or None."""
    if type(run["seed"]) is not int or run["seed"] < 0:
        return f"a 'seed' that is not an integer >= 0: {run['seed']!r}"
    doc, theta = run["best_cell"], run["theta"]
    if not isinstance(doc, dict):
        return "a 'best_cell' that is not a mapping"
    try:
        cell = cell_from_dict(doc)
    except KeyError as exc:
        return f"a 'best_cell' with no {exc.args[0]!r}"
    except (TypeError, ValueError) as exc:
        return f"a bad 'best_cell': {exc}"
    if not (isinstance(theta, list) and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in theta)):
        return "a 'theta' that is not a list of numbers"
    n_params = metrics(cell).n_params
    if len(theta) != n_params:
        return f"a 'theta' of {len(theta)} values, but its cell has {n_params} parameters"
    return None


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
            test = r["test"]
            if "per_p" in test:
                for p, (mean, std) in sorted(test["per_p"].items(), key=lambda kv: float(kv[0])):
                    denoise_rows.append([_fmt(p), _fmt(mean), _fmt(std), algorithm, str(seed)])
            trace = r["trace"] or {}
            if "relm" in trace:
                rewards = [e["mean_reward"] for e in trace["relm"]]
                smoothed = _smooth(rewards)
                for e, s in zip(trace["relm"], smoothed):
                    relm_rows.append([str(e["epoch"]), _fmt(s), _fmt(e["best_score"]),
                                      algorithm, str(seed)])
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
    emit("relm.csv", ["epoch", "smoothed_reward", "best_score", "algorithm", "seed"],
         relm_rows)
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


def _leaves(value, path: str = "") -> list:
    """Each leaf of a JSON value as (path, JSON text), keys in sorted order;
    a path reads like `['per_p']['0.1'][0]`, and an empty container is a
    leaf."""
    if isinstance(value, dict) and value:
        return [leaf for k in sorted(value) for leaf in _leaves(value[k], f"{path}[{k!r}]")]
    if isinstance(value, list) and value:
        return [leaf for i, v in enumerate(value) for leaf in _leaves(v, f"{path}[{i}]")]
    return [(path, json.dumps(value))]


def eval_record(record_path: str, out_dir: str) -> tuple[str, str | None]:
    """Re-evaluate every run in a record on its task's test protocol and
    check that it reproduces the record's `test` block.

    Writes the eval file and returns its path and, if a recomputed block
    differs from the stored one, a line that names the first such run's seed
    and the first differing key (else None).  Runs with an `error` pass
    through unchecked.
    """
    record = load_record(record_path)
    results, difference = [], None
    for r in record["runs"]:
        if "error" in r:
            results.append(r)
            continue
        built = build_task(record["config"]["task"], r["seed"])
        circuit = cell_to_circuit(cell_from_dict(r["best_cell"]))
        theta = np.asarray(r["theta"], dtype=float)
        test = json.loads(json.dumps(built.evaluate(circuit, theta)))  # as the record holds it
        results.append({"seed": r["seed"], "algorithm": r["algorithm"], "test": test})
        stored, recomputed = dict(_leaves(r["test"])), dict(_leaves(test))
        where = next((p for p in {**recomputed, **stored}
                      if stored.get(p) != recomputed.get(p)), None)
        if where is not None and difference is None:
            difference = (f"seed {r['seed']} does not reproduce its record: test{where} is "
                          f"{recomputed.get(where, 'missing')}, the record holds "
                          f"{stored.get(where, 'missing')}")
    out = {"format": RECORD_FORMAT_VERSION, "source": os.path.basename(record_path),
           "results": results}
    path = os.path.join(out_dir, "eval_" + os.path.basename(record_path))
    write_record(out, path)
    return path, difference


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", required=True, help="YAML config path")
    p.add_argument("--seed", type=int, action="append", default=None,
                   help="override config seeds (repeatable)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=None, help="parallel seed workers")
    p.add_argument("--algo", choices=ALGORITHMS, default=None)


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
            path, difference = eval_record(args.record, out_dir)
            print(path)
            if difference is not None:
                print(difference, file=sys.stderr)
                return EXIT_RUNTIME
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
