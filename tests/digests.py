"""Bit-identity check: run 72 fixed, seeded searches and print a digest of each.

    PYTHONPATH=src python3 tests/digests.py > digests.txt

`PYTHONPATH` selects the `qcas` that runs, so running the script against two
checkouts and diffing the outputs shows whether a change alters any result.
pytest does not collect it.  Each line holds the case, the qcas seed, the
sha256 of the record `qcas.cli.run` returns without the runs' `wall_time_s`
(JSON, sorted keys), the sha256 of the files `export_csv` writes for it (name
and content, sorted by name) and the number of `training_cost` calls, counted
by perfbench's `EvalCounter` on the two task classes.  After the cases, one
line per group gives the group's name, the first 16 hex digits of sha256
over its cases' record digests (hex, concatenated in case order), the same
over their CSV digests, and its summed `training_cost` calls.

The cases are qcas seeds 1000-1011 of the `denoise-relm` and `regen-relm`
benchmark workloads, and seeds 1-3 each of `image-res`, of `image-res` on the
tetris dataset (the only cases that draw tetromino images), a denoise `rs`
search with `budget_evals: 8` and `denoise-relm`'s `opt`, a `state_compress`
RES search with `denoise-relm`'s `res` (population 6, 2 phases) and `opt`,
`denoise-relm` and `regen-relm` with `relm.init_mode: random_search`,
`denoise-relm` with `task.noise: qdc` and with `task.cost_mode: local`, and
`regen-relm` under `n_gates <= 6` in place of its `n_layers` constraint, at
which RES both admits and rejects candidates in each phase, and under
`n_gates <= 5`, at which seed 2's RES seed reaches the bound before its last
phase, and `denoise-relm` under `n_params <= 4`, at which seed 2's RES seed
has no room left after phase 1.  Then come seeds 7, 9 and 32 of `denoise-relm`
with `relm.max_seq: 2`, the fewest slots its RES parents fit (two phases of
one rotation per qubit): of seeds 1-40 these alone hand RELM a parent with
two rotations on one qubit, which fills that qubit's slots.  Then seeds 1-3
of `denoise-relm` under `n_two_qubit <= 1`, at which RES both admits and
rejects candidates, and over the space `[RY, CNOT]` with `relm.max_seq: 2`,
at which some children of seeds 1 and 3 warm-start from their parent's theta
and RELM beats its starting best; then seeds 3, 5 and 6 of `regen-relm` as a
RES search with population 4 and 4 phases, at which the draw cap empties a
phase; last, seeds 1-3 of an `rs` search with `regen-relm`'s task and `res`
and the default `rs` section, whose `n_layers <= 3` bound rejects most
candidates of the parameter-free task.  The configs come from
`perfbench/workloads.py`.
"""

import copy
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from qcas import tasks
from qcas.cli import export_csv, parse_config, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import EvalCounter  # noqa: E402
from workloads import WORKLOADS, qcas_seed  # noqa: E402


def variant(workload: str, **sections) -> dict:
    """A workload's config with some keys of its sections replaced."""
    doc = copy.deepcopy(WORKLOADS[workload])
    for name, values in sections.items():
        doc[name] = dict(doc.get(name, {}), **values)
    return doc


def cases():
    denoise, regen = (WORKLOADS[w] for w in ("denoise-relm", "regen-relm"))
    rs_init = {"init_mode": "random_search"}
    for name, doc in (("denoise-relm", denoise), ("regen-relm", regen)):
        for i in range(12):
            yield name, doc, qcas_seed(1, i)
    for name, doc in (
            ("image-res", WORKLOADS["image-res"]),
            ("image-tetris", variant("image-res", task={"dataset": "tetris"})),
            ("denoise-rs", {"task": denoise["task"], "algorithm": "rs",
                            "rs": {"budget_evals": 8}, "opt": denoise["opt"]}),
            ("state-res", {"task": {"kind": "state_compress"}, "algorithm": "res",
                           "res": denoise["res"], "opt": denoise["opt"]}),
            ("denoise-rsinit", variant("denoise-relm", relm=rs_init)),
            ("regen-rsinit", variant("regen-relm", relm=rs_init)),
            ("denoise-qdc", variant("denoise-relm", task={"noise": "qdc"})),
            ("denoise-local", variant("denoise-relm", task={"cost_mode": "local"})),
            ("regen-ngates", variant("regen-relm",
                                     res={"constraint": {"quantity": "n_gates", "bound": 6}})),
            ("regen-ngates5", variant("regen-relm",
                                      res={"constraint": {"quantity": "n_gates", "bound": 5}})),
            ("denoise-nparams4", variant("denoise-relm",
                                         res={"constraint": {"quantity": "n_params",
                                                             "bound": 4}}))):
        for seed in (1, 2, 3):
            yield name, doc, seed
    for seed in (7, 9, 32):
        yield "denoise-maxseq2", variant("denoise-relm", relm={"max_seq": 2}), seed
    for name, doc, seeds in (
            ("denoise-n2q1", variant("denoise-relm",
                                     res={"constraint": {"quantity": "n_two_qubit",
                                                         "bound": 1}}), (1, 2, 3)),
            ("denoise-ry", dict(variant("denoise-relm", relm={"max_seq": 2}),
                                space=["RY", "CNOT"]), (1, 2, 3)),
            ("regen-rescap", dict(variant("regen-relm",
                                          res={"population_size": 4, "max_phases": 4}),
                                  algorithm="res"), (3, 5, 6)),
            ("regen-rs", {"task": regen["task"], "algorithm": "rs", "res": regen["res"]},
             (1, 2, 3))):
        for seed in seeds:
            yield name, doc, seed


def digest(doc: dict, seed: int, counter: EvalCounter) -> tuple:
    config = parse_config(dict(copy.deepcopy(doc), seeds=[seed], jobs=1), environ={})
    before = counter.calls
    record = run(config)
    calls = counter.calls - before
    runs = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in record["runs"]]
    record_hash = hashlib.sha256(json.dumps(dict(record, runs=runs), sort_keys=True).encode())
    with tempfile.TemporaryDirectory() as out:
        csv = hashlib.sha256()
        for path in sorted(export_csv(record, out)):
            csv.update(os.path.basename(path).encode())
            csv.update(Path(path).read_bytes())
    return record_hash.hexdigest(), csv.hexdigest(), calls


def main():
    counter = EvalCounter(tasks)
    groups = {}  # name -> (record digests, CSV digests, calls), in case order
    for name, doc, seed in cases():
        record_hash, csv_hash, calls = digest(doc, seed, counter)
        print(name, seed, record_hash, csv_hash, calls, flush=True)
        records, csvs, total = groups.get(name, ("", "", 0))
        groups[name] = records + record_hash, csvs + csv_hash, total + calls
    for name, (records, csvs, total) in groups.items():
        print(name, *(hashlib.sha256(h.encode()).hexdigest()[:16] for h in (records, csvs)),
              total)


if __name__ == "__main__":
    main()
