"""Benchmark of seeded `qcas search` runs.

    python3 perfbench/run.py --workload denoise-relm --seed 1 --seconds 40 --trace 0

Run from the repository root; qcas is imported from ./src.  One run:

1. runs the self-test of the output checks (selftest.py);
2. times SETUP_LAUNCHES cold launches of setup_probe.py (setup_s);
3. for --seconds, runs whole rounds, each one search through
   `qcas.cli.run` with the next qcas seed derived from --seed.  With
   --trace 1 each round runs the search untraced and then traced, and the
   per-layer figures come from the traced search;
4. after the timed region, checks every round's result against the
   independent oracle (checks.py) and repeats round 0 to compare the digests
   of the exported CSVs;
5. prints an "info" JSON line (environment, per-round figures), then as the
   last line {"correct", "attempted", "failed", "metrics"}.

A fixed reference loop (ref_loop_s) runs before and after every set-up launch
and every untraced search.  The end-to-end times are the measured wall times
rescaled by it to a host of fixed speed (REF_NOMINAL_S), because on a shared
host the same search varies by tens of percent from one minute to the next;
the unscaled medians are in the info line.

A round whose search fails or whose result fails a check counts in "failed".
Run records and the spans of the last traced search go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import selftest  # noqa: E402
from tracing import LAYER_UNITS, Tracer, summarise  # noqa: E402
from workloads import WORKLOADS, qcas_seed, search_config  # noqa: E402

SETUP_LAUNCHES = 7
# End-to-end times are rescaled to a host on which ref_loop_s() takes
# REF_NOMINAL_S, about its median on the 2-core host of README.md.
REF_NOMINAL_S = 0.07
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
QCAS_MODULES = ("sim", "cell", "optim", "tasks", "res", "controller", "relm", "cli")
UNITS = {"setup_s": "s", "search_s": "s", "evals_per_s": "1/s",
         "test_fidelity": "1", "peak_rss_mb": "MB"}


class Qcas:
    """The qcas modules, imported from the checkout's src/."""

    def __init__(self):
        for name in QCAS_MODULES:
            setattr(self, name, importlib.import_module(f"qcas.{name}"))

    def modules(self) -> dict:
        return {name: getattr(self, name) for name in QCAS_MODULES}


def load_qcas() -> Qcas:
    if not os.path.isfile(os.path.join(SRC, "qcas", "__init__.py")):
        raise FileNotFoundError(f"no qcas package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return Qcas()


class EvalCounter:
    """Counts calls of the tasks' public training_cost during a search."""

    def __init__(self, tasks):
        self.calls = 0
        for cls in (tasks.QaeTask, tasks.UnitaryRegenTask):
            cls.training_cost = self._counted(cls.training_cost)

    def _counted(self, method):
        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def ref_loop_s() -> float:
    """Time of a fixed numpy and pure-Python loop that touches no qcas code.

    It is shaped like a search's inner work (gate-sized tensordots on a small
    complex batch, dict and list bookkeeping), so a busy host slows it about
    as much as it slows a search (see README.md)."""
    import numpy as np

    tensor = np.ones((2, 2, 2, 100), dtype=complex)
    gate = np.eye(2, dtype=complex)
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        axis = i % 3
        tensor = np.moveaxis(np.tensordot(gate, tensor, axes=([1], [axis])), 0, axis)
        entry = {"index": i, "pair": [i, i + 1]}
        acc += len(entry["pair"]) + sum(range(20))
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> list:
    """Phase times of SETUP_LAUNCHES cold launches, with their wall time and
    the mean of the reference loop times before and after each (ref_s)."""
    doc = json.dumps(search_config(workload, qcas_seed(seed, 0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    launches = []
    before = ref_loop_s()
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), doc],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup launch failed ({proc.returncode}): {proc.stderr[-2000:]}")
        after = ref_loop_s()
        phases = json.loads(proc.stdout.strip().splitlines()[-1])
        launches.append(dict(phases, wall_s=wall, ref_s=(before + after) / 2))
        before = after
    return launches


def timed_search(qcas, counter: EvalCounter, config: dict):
    counter.calls = 0
    start = time.perf_counter()
    record = qcas.cli.run(config)
    return record, time.perf_counter() - start, counter.calls


def run_rounds(qcas, workload: str, seed: int, seconds: float, trace: bool):
    """Whole rounds until `seconds` have passed.  The reference loop runs
    before and after each untraced search; their mean is the round's ref_s."""
    counter = EvalCounter(qcas.tasks)
    epochs = WORKLOADS[workload].get("relm", {}).get("epochs", 0)
    rounds, last_tracer = [], None
    deadline = time.perf_counter() + seconds
    before = ref_loop_s()
    while not rounds or time.perf_counter() < deadline:
        s = qcas_seed(seed, len(rounds))
        config = qcas.cli.parse_config(search_config(workload, s), environ={})
        record, search_s, evals = timed_search(qcas, counter, config)
        after = ref_loop_s()
        entry = {"qcas_seed": s, "config": config, "records": [record],
                 "search_s": search_s, "evals": evals, "ref_s": (before + after) / 2}
        if trace:
            tracer = Tracer()
            tracer.install(qcas.modules())
            try:
                traced, traced_s, _ = timed_search(qcas, counter, config)
            finally:
                tracer.uninstall()
            entry["records"].append(traced)
            entry["overhead_s"] = traced_s - search_s
            entry["layers"] = summarise(tracer, epochs)
            last_tracer = tracer
            after = ref_loop_s()
        rounds.append(entry)
        before = after
    return rounds, counter, last_tracer


def check_rounds(qcas, rounds: list, counter: EvalCounter) -> None:
    """Oracle checks of every round; repeat round 0 unless it already ran
    twice; every round's records must export identical CSVs."""
    if len(rounds[0]["records"]) == 1:
        rounds[0]["records"].append(timed_search(qcas, counter, rounds[0]["config"])[0])
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for i, entry in enumerate(rounds):
            run = entry["records"][0]["runs"][0]
            entry["failures"] = checks.check_run(qcas, entry["config"], run)
            digests = {checks.csv_digest(qcas, rec, os.path.join(tmp, f"{i}-{j}"))
                       for j, rec in enumerate(entry["records"])}
            if len(digests) != 1:
                entry["failures"].append("exported CSVs differ between runs of one seed")
            entry["test_fidelity"] = (checks.test_fidelity(run) if "error" not in run
                                      else None)


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(seconds: float, ref_s: float) -> float:
    """`seconds` measured next to a reference loop of `ref_s`, rescaled to a
    host on which the loop takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def end_to_end(rounds, setup, rss) -> dict:
    ok = [r for r in rounds if not r["failures"]]
    fidelities = [r["test_fidelity"] for r in ok]
    values = {
        "setup_s": statistics.median(scaled(s["wall_s"], s["ref_s"]) for s in setup),
        "search_s": statistics.median(scaled(r["search_s"], r["ref_s"]) for r in rounds),
        "evals_per_s": statistics.median(r["evals"] / scaled(r["search_s"], r["ref_s"])
                                         for r in rounds),
        "test_fidelity": statistics.median(fidelities) if fidelities else 0.0,
        "peak_rss_mb": rss,
    }
    return {name: metric(v, UNITS[name]) for name, v in values.items()}


def per_layer(rounds, setup) -> dict:
    out = {
        "cli.import_s": metric(statistics.median(s["import_s"] for s in setup), "s"),
        "cli.build_task_s": metric(statistics.median(s["build_task_s"] for s in setup), "s"),
    }
    for name, unit in LAYER_UNITS.items():
        out[name] = metric(statistics.median(r["layers"][name] for r in rounds), unit)
    out["trace.overhead_s"] = metric(statistics.median(r["overhead_s"] for r in rounds), "s")
    out["host.ref_loop_ms"] = metric(statistics.median(r["ref_s"] for r in rounds) * 1e3, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        qcas = load_qcas()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load qcas: {exc}", file=sys.stderr)
        return 2

    problems = selftest.selftest(qcas)
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    setup = measure_setup(args.workload, args.seed)
    rounds, counter, tracer = run_rounds(qcas, args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    rss = peak_rss_mb()
    check_rounds(qcas, rounds, counter)

    metrics = (per_layer(rounds, setup) if args.trace
               else end_to_end(rounds, setup, rss))
    failed = sum(1 for r in rounds if r["failures"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(), "ref_nominal_s": REF_NOMINAL_S,
        "wall_setup_s": statistics.median(s["wall_s"] for s in setup),
        "wall_search_s": statistics.median(r["search_s"] for r in rounds),
        "setup": setup,
        "rounds": [{"qcas_seed": r["qcas_seed"], "search_s": r["search_s"], "ref_s": r["ref_s"],
                    "evals": r["evals"], "test_fidelity": r["test_fidelity"],
                    "failures": r["failures"], **({"overhead_s": r["overhead_s"]}
                                                  if args.trace else {})}
                   for r in rounds],
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics,
                   "records": [r["records"][0] for r in rounds]}, fh)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json"))
    for r in rounds:
        for line in r["failures"]:
            print(f"round {r['qcas_seed']}: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems, "attempted": len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
