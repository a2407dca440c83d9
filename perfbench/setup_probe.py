"""One cold launch for `setup_s`: a fresh interpreter imports qcas, parses a
search config, builds the task and runs the search until the first cell is
scored, then prints its phase times as one JSON line and exits at once.

Usage: python3 setup_probe.py '<config json>'   (with qcas on PYTHONPATH)
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from qcas import cli, relm, res, tasks  # noqa: E402

_phases = {"import_s": time.perf_counter() - _start}


def _timed_build_task(build_task):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return build_task(*args, **kwargs)
        finally:
            _phases["build_task_s"] = time.perf_counter() - t0
    return wrapper


def _exit_after_first_score(score_cell):
    def wrapper(*args, **kwargs):
        result = score_cell(*args, **kwargs)
        _phases["first_score_s"] = time.perf_counter() - _start
        sys.stdout.write(json.dumps(_phases) + "\n")
        sys.stdout.flush()
        os._exit(0)
        return result
    return wrapper


def main():
    config = cli.parse_config(json.loads(sys.argv[1]), environ={})
    cli.build_task = _timed_build_task(cli.build_task)
    for module in (res, relm, tasks):
        module.score_cell = _exit_after_first_score(module.score_cell)
    record = cli.run(config)
    print(f"search ended without scoring a cell: {record['runs']}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
