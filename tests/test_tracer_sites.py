"""The benchmark's hooks into qcas: every site that perfbench/tracing.py wraps
resolves, every cell a search scores goes through one of the three
module-level `score_cell` names that the tracer and perfbench/setup_probe.py
patch (`res.score_cell`, `relm.score_cell`, `tasks.score_cell`), every
run builds its task through `cli.build_task`, which setup_probe.py times,
the probe itself runs, the benchmark's self-test of its output checks
passes on this qcas, the program's scores of parametric cells agree with
the benchmark's oracle, every algorithm's runs pass the benchmark's checks,
and every config that the benchmark and tests/digests.py search with
parses."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcas.cli
import qcas.relm
import qcas.res
import qcas.tasks
from qcas.cell import Cell, cell_to_circuit, cell_to_dict, metrics
from qcas.cli import build_task, parse_config, run
from qcas.sim import GATE_KINDS, SPACE_GENERIC

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_perfbench(name):
    return load_module(PERFBENCH / f"{name}.py")


tracing = load_perfbench("tracing")

QCAS_MODULES = ("sim", "cell", "optim", "tasks", "res", "controller", "relm", "cli")
SCORE_SITES = (qcas.res, qcas.relm, qcas.tasks)

TINY = {
    "task": {"kind": "unitary_regen", "n_qubits": 2, "layers": 1},
    "res": {"population_size": 6, "max_phases": 2,
            "constraint": {"quantity": "n_layers", "bound": 3}},
    "relm": {"epochs": 2, "tournament_size": 2, "batch_size": 3, "population_size": 4,
             "max_seq": 6, "embed_dim": 4, "n_heads": 1, "n_blocks": 1, "ff_dim": 8},
    "rs": {"budget_evals": 5, "layer_budget": 2},
    "opt": {"max_evals": 20, "restarts": 1},
    "seeds": [1],
}


def modules():
    return {name: importlib.import_module(f"qcas.{name}") for name in QCAS_MODULES}


def site_values(mods):
    values = []
    for site, _ in tracing._SITES:
        head, *path = site.split(".")
        owner = mods[head]
        for part in path[:-1]:
            owner = getattr(owner, part)
        values.append(owner.__dict__[path[-1]] if isinstance(owner, type)
                      else getattr(owner, path[-1]))
    return values


def search(algorithm, **relm):
    config = parse_config(dict(TINY, algorithm=algorithm,
                               relm=dict(TINY["relm"], **relm)), environ={})
    [record] = run(config)["runs"]
    assert "error" not in record, record
    return config, record


@pytest.fixture
def score_calls(monkeypatch):
    calls = []
    for module in SCORE_SITES:
        original = module.score_cell

        def counted(*args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "score_cell", counted)
    return calls


def test_tracer_installs_on_every_site_and_uninstalls():
    mods = modules()
    before = site_values(mods)
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        wrapped = site_values(mods)
        assert all(w is not b for w, b in zip(wrapped, before))
        _, record = search("relm")
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(site_values(mods), before))
    names = [tracer.names[span[0]] for span in tracer.spans]
    res_scored = sum(phase["n_scored"] for phase in record["trace"]["res"])
    relm_scored = sum(epoch["n_scored"] for epoch in record["trace"]["relm"])
    assert names.count("optim.score_cell") == res_scored + relm_scored
    assert names.count("cli.build_task") == 1  # TINY has one seed


def test_res_initialised_relm_scores_through_the_sites(score_calls):
    config, record = search("relm")
    res_phases, epochs = record["trace"]["res"], record["trace"]["relm"]
    assert len(epochs) == config["relm"]["epochs"]
    # the RES population covers RELM's, so no random top-up is scored
    assert res_phases[0]["n_scored"] >= config["relm"]["population_size"]
    assert len(score_calls) == (sum(phase["n_scored"] for phase in res_phases)
                                + sum(epoch["n_scored"] for epoch in epochs))


def test_random_search_initialised_relm_scores_through_the_sites(score_calls):
    config, record = search("relm", init_mode="random_search")
    epochs = record["trace"]["relm"]
    assert len(score_calls) == (config["relm"]["population_size"]
                                + sum(epoch["n_scored"] for epoch in epochs))


def test_random_search_scores_through_the_sites(score_calls):
    config, _ = search("rs")
    assert len(score_calls) == config["rs"]["budget_evals"]


def test_setup_probe_reports_its_phases():
    """setup_probe.py, which `setup_s` launches, times `cli.build_task`: the
    name through which the runner reaches `tasks.build_task`."""
    assert qcas.cli.build_task is qcas.tasks.build_task
    config = workloads.search_config("denoise-relm", 1000)
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    probe = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), json.dumps(config)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert probe.returncode == 0, probe.stderr
    phases = json.loads(probe.stdout.splitlines()[-1])
    assert {"import_s", "build_task_s", "first_score_s"} <= set(phases)


def test_benchmark_selftest_passes(monkeypatch):
    # selftest.py imports its sibling modules `checks` and `oracle` by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    selftest = load_perfbench("selftest")
    assert selftest.selftest(SimpleNamespace(**modules())) == []


@pytest.fixture(scope="module")
def checks():
    # checks.py imports its sibling module `oracle` by name
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        return load_perfbench("checks")


ORACLE_SEED = 7
ORACLE_TASKS = {3: {"kind": "denoise", "noise": "bitflip"},
                5: {"kind": "image", "dataset": "digits", "n_trash": 1}}


@pytest.fixture(scope="module")
def oracle_cases():
    """n -> the parsed config of the n-qubit oracle task and the task qcas
    builds from it at ORACLE_SEED."""
    cases = {}
    for n, task in ORACLE_TASKS.items():
        config = parse_config({"task": task, "seeds": [ORACLE_SEED],
                               "res": {"constraint": {"quantity": "n_gates", "bound": 99}}},
                              environ={})
        cases[n] = config, build_task(config["task"], ORACLE_SEED)
    return cases


@st.composite
def parametric_cells(draw, n):
    """A cell of n qubits over the generic gate set, with one to three
    rotations on qubit 0, up to two on each other qubit and up to four
    edges, and a theta with one angle per parametric gate."""
    rotations = sorted(t for t in SPACE_GENERIC if GATE_KINDS[t].arity == 1)
    entanglers = sorted(t for t in SPACE_GENERIC if GATE_KINDS[t].arity == 2)
    node_ops = [draw(st.lists(st.sampled_from(rotations), min_size=1 if q == 0 else 0,
                              max_size=3 if q == 0 else 2)) for q in range(n)]
    pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4))
    cell = Cell(n, node_ops, {e: [draw(st.sampled_from(entanglers))] for e in edges})
    count = metrics(cell).n_params
    theta = draw(st.lists(st.floats(-math.pi, math.pi), min_size=count, max_size=count))
    return cell, theta


def leaves(doc, path=()):
    """(path, number) for every number of a test-metrics document, in key order."""
    if isinstance(doc, dict):
        return [leaf for key in sorted(doc) for leaf in leaves(doc[key], path + (key,))]
    if isinstance(doc, list):
        return [leaf for i, item in enumerate(doc) for leaf in leaves(item, path + (i,))]
    return [(path, doc)]


@pytest.mark.parametrize("n", sorted(ORACLE_TASKS), ids=["denoise", "image"])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parametric_cell_scores_match_the_benchmark_oracle(checks, oracle_cases, n, data):
    """qcas binds theta to a cell's parametric gates in the order the oracle
    does: its validation score and test metrics equal the oracle's, and the
    benchmark's checks accept a record of the cell."""
    cell, theta = data.draw(parametric_cells(n))
    config, built = oracle_cases[n]
    circuit = cell_to_circuit(cell)
    score, test = built.task.validation_score(circuit, theta), built.evaluate(circuit, theta)
    gates = checks.oracle.cell_gates(cell_to_dict(cell))
    qcas = SimpleNamespace(**modules())
    want_score, want_test = checks.expected(qcas, config["task"], ORACLE_SEED, gates, theta, n)
    assert abs(score - want_score) <= 1e-12
    got, want = leaves(test), leaves(want_test)
    assert [path for path, _ in got] == [path for path, _ in want]
    assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got, want))
    record = {"seed": ORACLE_SEED, "algorithm": "res", "best_cell": cell_to_dict(cell),
              "theta": list(theta), "metrics": vars(metrics(cell)),
              "validation_score": score, "test": test, "trace": None}
    assert checks.check_run(qcas, config, record) == []


workloads = load_perfbench("workloads")
STATE_COMPRESS_GAP = pytest.mark.xfail(
    strict=True, reason="perfbench/checks.py `expected` has no state_compress branch, so it "
    "scores a state_compress cell as a unitary_regen one")


def checked_searches():
    """Each algorithm on each task kind with TINY's budgets under n_layers <= 2,
    seeds 1-5; and the random search with denoise-relm's task and opt and
    rs.budget_evals 8, seeds 1-20, under the default res.constraint."""
    res = dict(TINY["res"], constraint={"quantity": "n_layers", "bound": 2})
    for task in ({"kind": "denoise", "noise": "bitflip"},
                 {"kind": "image", "dataset": "digits", "n_trash": 1},
                 TINY["task"], {"kind": "state_compress"}):
        for algorithm in ("rs", "res", "relm"):
            doc = dict(TINY, task=task, algorithm=algorithm, res=res, seeds=[1, 2, 3, 4, 5])
            yield pytest.param(doc, id=f"{task['kind']}-{algorithm}",
                               marks=STATE_COMPRESS_GAP if task["kind"] == "state_compress"
                               else ())
    denoise = workloads.WORKLOADS["denoise-relm"]
    yield pytest.param({"task": denoise["task"], "algorithm": "rs", "rs": {"budget_evals": 8},
                        "opt": denoise["opt"], "seeds": list(range(1, 21))},
                       id="denoise-relm-task-rs")


@pytest.mark.parametrize("doc", checked_searches())
def test_every_run_passes_the_benchmark_checks(checks, doc):
    """Every algorithm's best cell meets the run's res.constraint and its
    scores and metrics agree with the benchmark's oracle."""
    config = parse_config(doc, environ={})
    qcas = SimpleNamespace(**modules())
    failures = {run["seed"]: checks.check_run(qcas, config, run)
                for run in run(config)["runs"]}
    assert failures == {seed: [] for seed in config["seeds"]}


def searched_configs():
    """Group name -> the config documents searched by each benchmark workload
    (at --seed 1) and by each case group of tests/digests.py."""
    docs = {name: [workloads.search_config(name, 1)] for name in workloads.WORKLOADS}
    with pytest.MonkeyPatch.context() as patch:
        # digests.py puts perfbench on sys.path to import run.py; the
        # context takes it off again
        patch.syspath_prepend(str(PERFBENCH))
        digests = load_module(Path(__file__).with_name("digests.py"))
    for name, doc, seed in digests.cases():
        docs.setdefault(f"digests-{name}", []).append(dict(doc, seeds=[seed], jobs=1))
    return docs


SEARCHED_CONFIGS = searched_configs()


@pytest.mark.parametrize("name", sorted(SEARCHED_CONFIGS))
def test_searched_configs_parse(name):
    """A config key renamed or removed fails here, not at the next benchmark
    or digest run."""
    for doc in SEARCHED_CONFIGS[name]:
        parse_config(doc, environ={})
