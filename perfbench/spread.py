"""Run the benchmark once per seed and print the median and spread of each
metric, per workload, as a markdown table.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 --trace 0

Spread is (Q3 - Q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`.  Each run's last output line is appended
to perfbench/out/spread-trace<T>.jsonl.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-trace{args.trace}.jsonl")
    rows = []
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=os.path.dirname(HERE), capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        for name, (vals, unit) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows.append(f"| {workload} | {name} | {unit} | {statistics.median(vals):.4g} "
                        f"| {spread:.3f} |")
        rows.append(f"| {workload} | failed / attempted | count | {failed} / {attempted} | |")
    print("| workload | metric | unit | median | spread |")
    print("| --- | --- | --- | --- | --- |")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
