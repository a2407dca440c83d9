"""The benchmark's hooks into qcas: every site that perfbench/tracing.py wraps
resolves, every cell a search scores goes through one of the three
module-level `score_cell` names that the tracer and perfbench/setup_probe.py
patch (`res.score_cell`, `relm.score_cell`, `tasks.score_cell`), and the
benchmark's self-test of its output checks passes on this qcas."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import qcas.relm
import qcas.res
import qcas.tasks
from qcas.cli import parse_config, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    res_evals = sum(phase["evals"] for phase in record["trace"]["res"])
    relm_scored = sum(epoch["n_scored"] for epoch in record["trace"]["relm"])
    assert names.count("optim.score_cell") == res_evals + relm_scored


def test_res_initialised_relm_scores_through_the_sites(score_calls):
    config, record = search("relm")
    res_phases, epochs = record["trace"]["res"], record["trace"]["relm"]
    assert len(epochs) == config["relm"]["epochs"]
    # the RES population covers RELM's, so no random top-up is scored
    assert res_phases[0]["evals"] >= config["relm"]["population_size"]
    assert len(score_calls) == (sum(phase["evals"] for phase in res_phases)
                                + sum(epoch["n_scored"] for epoch in epochs))


def test_random_search_initialised_relm_scores_through_the_sites(score_calls):
    config, record = search("relm", init_mode="random_search")
    epochs = record["trace"]["relm"]
    assert len(score_calls) == (config["relm"]["population_size"]
                                + sum(epoch["n_scored"] for epoch in epochs))


def test_random_search_scores_through_the_sites(score_calls):
    config, _ = search("rs")
    assert len(score_calls) == config["rs"]["budget_evals"]


def test_benchmark_selftest_passes(monkeypatch):
    # selftest.py imports its sibling modules `checks` and `oracle` by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    selftest = load_perfbench("selftest")
    assert selftest.selftest(SimpleNamespace(**modules())) == []
