"""Experiment driver: config parsing with defaults and env overrides, run
records, CSV export, dataset generation and exit codes."""

import copy
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

import qcas
from qcas.cell import Cell, SoftConstraint, cell_to_dict
from qcas.optim import OptBudget
from qcas.relm import RelmConfig
from qcas.res import ResConfig
from qcas.sim import GATE_KINDS, Circuit, circuit_unitary, gate
from qcas.tasks import TASK_KINDS, RsConfig, TaskConfig, gen_hidden_targets

from qcas.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    build_task,
    eval_record,
    export_csv,
    gen_data,
    load_record,
    main,
    parse_config,
    run,
    write_record,
)

FAST = {
    "task": {"kind": "unitary_regen", "n_qubits": 2, "layers": 1},
    "algorithm": "res",
    "res": {"population_size": 4, "max_phases": 2},
    "opt": {"max_evals": 30, "restarts": 1},
    "seeds": [1],
}


# an environment variable that sets a section, or a key a section lacks:
# (name, value, the config error's message)
ENV_SHAPE_ERRORS = [
    ("QCAS_RES", "5", "QCAS_RES: 'res' must be a mapping"),
    ("QCAS_TASK", "x", "QCAS_TASK: 'task' must be a mapping"),
    ("QCAS_OPT", "[1]", "QCAS_OPT: 'opt' must be a mapping"),
    ("QCAS_RES__CONSTRAINT", "{quantity: n_gates, bound: 3, extra: 1}",
     "QCAS_RES__CONSTRAINT: unknown config key 'res.constraint.extra'"),
]
ENV_SHAPE_IDS = ["res", "task", "opt", "constraint-extra"]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config = parse_config({"task": {"kind": "denoise"}}, environ={})
        assert config["res"]["population_size"] == 30
        assert config["relm"]["epochs"] == 30
        assert config["relm"]["embed_dim"] == 32
        assert config["relm"]["ff_dim"] == 64
        assert config["relm"]["init_mode"] == "res"
        assert config["algorithm"] == "res"

    def test_sections_are_the_config_classes_defaults(self):
        config = parse_config({"task": {"kind": "denoise"}}, environ={})
        assert TaskConfig(**config["task"]) == TaskConfig(kind="denoise")
        assert RsConfig(**config["rs"]) == RsConfig()
        assert OptBudget(**config["opt"]) == OptBudget()
        res = dict(config["res"], constraint=SoftConstraint(**config["res"]["constraint"]))
        assert ResConfig(**res) == ResConfig()
        assert RelmConfig(**config["relm"]) == RelmConfig()
        # a section holds every field of its class and nothing else, so no
        # field is left for the runner to fill in
        for section, cls in (("task", TaskConfig), ("rs", RsConfig), ("res", ResConfig),
                             ("relm", RelmConfig), ("opt", OptBudget)):
            assert list(config[section]) == [f.name for f in fields(cls)], section

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="algoritm"):
            parse_config({"task": {"kind": "denoise"}, "algoritm": "res"},
                         environ={})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="res.populaton"):
            parse_config({"task": {"kind": "denoise"},
                          "res": {"populaton": 5}}, environ={})
        with pytest.raises(ConfigError, match="unknown config key 'relm.reward_sign'"):
            parse_config({"task": {"kind": "denoise"},
                          "relm": {"reward_sign": "text"}}, environ={})

    def test_seed_only_difference(self):
        a = parse_config({"task": {"kind": "denoise"}, "seeds": [1]}, environ={})
        b = parse_config({"task": {"kind": "denoise"}, "seeds": [2]}, environ={})
        a.pop("seeds"), b.pop("seeds")
        assert a == b

    def test_env_override(self):
        config = parse_config({"task": {"kind": "denoise"}},
                              environ={"QCAS_RES__POPULATION_SIZE": "7",
                                       "QCAS_ALGORITHM": "rs"})
        assert config["res"]["population_size"] == 7
        assert config["algorithm"] == "rs"

    def test_env_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"task": {"kind": "denoise"}},
                         environ={"QCAS_RES__POPSIZE": "7"})

    @pytest.mark.parametrize("name, value, message", ENV_SHAPE_ERRORS, ids=ENV_SHAPE_IDS)
    def test_env_override_is_checked_like_a_file_key(self, name, value, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            parse_config({"task": {"kind": "denoise"}}, environ={name: value})

    @pytest.mark.parametrize("file_bound", [None, 5])
    def test_env_override_of_part_of_a_constraint_keeps_the_rest(self, file_bound):
        doc = {"task": {"kind": "denoise"}}
        if file_bound is not None:
            doc["res"] = {"constraint": {"quantity": "n_params", "bound": file_bound}}
        config = parse_config(doc, environ={"QCAS_RES__CONSTRAINT": "{quantity: n_gates}"})
        bound = file_bound or DEFAULT_CONFIG["res"]["constraint"]["bound"]
        assert config["res"]["constraint"] == {"quantity": "n_gates", "bound": bound}

    def test_yaml_text_source(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("task:\n  kind: image\n  dataset: tetris\n")
        config = parse_config(str(path), environ={})
        assert config["task"]["dataset"] == "tetris"

    def test_bad_task_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"task": {"kind": "teleportation"}}, environ={})

    def test_bad_constraint_rejected(self):
        with pytest.raises(ConfigError, match="res\\.constraint\\.bound"):
            parse_config({"task": {"kind": "denoise"},
                          "res": {"constraint": {"quantity": "n_params",
                                                 "bound": 0}}}, environ={})

    @pytest.mark.parametrize("section, key, value", [
        ("task", "dataset", "digts"),
        ("task", "cost_mode", "locl"),
        ("relm", "reward_mode", "unitry"),
        ("relm", "init_mode", "rs"),
    ])
    def test_bad_enumerated_value_rejected(self, section, key, value):
        doc = {"task": {"kind": "image"}}
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}\\.{key} .*'{value}'"):
            parse_config(doc, environ={})

    @pytest.mark.parametrize("opt, field", [
        ({"x_tol": float("nan")}, "x_tol"),
        ({"f_tol": float("inf")}, "f_tol"),
        ({"max_evals": 2.5}, "max_evals"),
        ({"restarts": True}, "restarts"),
    ])
    def test_bad_opt_budget_rejected(self, opt, field):
        with pytest.raises(ConfigError, match=f"opt\\.{field}"):
            parse_config({"task": {"kind": "denoise"}, "opt": opt}, environ={})

    @pytest.mark.parametrize("kind, key, value, source", [
        ("state_compress", "n_trash", 3, "doc"),
        ("unitary_regen", "noise", "qdc", "doc"),
        ("unitary_regen", "n_trash", 3, "doc"),
        ("unitary_regen", "noise", "qdc", "env"),
    ])
    def test_task_key_its_kind_does_not_read_rejected(self, kind, key, value, source):
        task, environ = {"kind": kind}, {}
        if source == "doc":
            task[key] = value
        else:
            environ[f"QCAS_TASK__{key.upper()}"] = str(value)
        with pytest.raises(ConfigError,
                           match=f"^task\\.{key} is not read by task kind '{kind}'$"):
            parse_config({"task": task}, environ=environ)

    def test_unread_task_key_at_its_default_accepted(self):
        config = parse_config({"task": {"kind": "state_compress", "n_trash": 1,
                                        "noise": "bitflip", "layers": 3}}, environ={})
        assert config["task"]["kind"] == "state_compress"

    def test_bad_opt_budget_from_yaml_and_env_rejected(self, tmp_path):
        # PyYAML reads an exponent without a dot as a string
        path = tmp_path / "cfg.yaml"
        path.write_text("task:\n  kind: denoise\nopt:\n  x_tol: 1e-6\n")
        with pytest.raises(ConfigError, match="opt\\.x_tol .*'1e-6'"):
            parse_config(str(path), environ={})
        with pytest.raises(ConfigError, match="opt\\.f_tol .*nan"):
            parse_config({"task": {"kind": "denoise"}},
                         environ={"QCAS_OPT__F_TOL": ".nan"})

    @pytest.mark.parametrize("source", ["doc", "env"])
    @pytest.mark.parametrize("value", ["x", -3, 0, 2.7, True, 100000])
    def test_bad_jobs_rejected(self, value, source):
        doc, environ = {"task": {"kind": "denoise"}}, {}
        if source == "doc":
            doc["jobs"] = value
        else:
            environ["QCAS_JOBS"] = str(value)
        cpus = os.cpu_count() or 1
        with pytest.raises(ConfigError,
                           match="^" + re.escape(f"jobs must be in 1..{cpus}, got {value!r}")):
            parse_config(doc, environ=environ)

    def test_jobs_up_to_the_cpu_count_accepted(self):
        cpus = os.cpu_count() or 1
        for jobs in (1, cpus):
            assert parse_config({"task": {"kind": "denoise"}, "jobs": jobs},
                                environ={})["jobs"] == jobs

    @pytest.mark.parametrize("seeds", [3, [], None, [1, "x"], [True], [-1], [1.5]])
    def test_bad_seeds_rejected(self, seeds):
        with pytest.raises(ConfigError, match=re.escape(
                f"seeds must be a non-empty list of integers >= 0, got {seeds!r}")):
            parse_config({"task": {"kind": "denoise"}, "seeds": seeds}, environ={})

    @pytest.mark.parametrize("space, message", [
        (["FOO"], "space: unknown gate kinds: ['FOO']"),
        (["RX", "FOO"], "space: unknown gate kinds: ['FOO']"),
        ([], "space: gate space must be nonempty"),
        ([["RX"]], "space: unhashable type: 'list'"),
        ("RX", "space must be null or a list of gate kinds, got 'RX'"),
    ])
    def test_bad_space_rejected(self, space, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config({"task": {"kind": "denoise"}, "space": space}, environ={})

    def test_known_space_or_null_accepted(self):
        for space in (None, ["RX", "CNOT"]):
            config = parse_config({"task": {"kind": "denoise"}, "space": space}, environ={})
            assert config["space"] == space

    @pytest.mark.parametrize("task", [
        {"kind": "image", "n_trash": 0},
        {"kind": "image", "n_trash": 5},
        {"kind": "image", "n_trash": 1.5},
        {"kind": "image", "dataset": "tetris", "n_trash": 4},
        {"kind": "unitary_regen", "n_qubits": 0},
        {"kind": "unitary_regen", "n_qubits": 11},
        {"kind": "unitary_regen", "layers": 7},
        {"kind": "unitary_regen", "layers": True},
    ])
    def test_task_key_out_of_range_rejected_as_building_would(self, task):
        # the parse-time check and the task's own check are one range
        with pytest.raises(ValueError) as built:
            build_task(dict(DEFAULT_CONFIG["task"], **task), seed=0)
        with pytest.raises(ConfigError) as parsed:
            parse_config({"task": task}, environ={})
        assert str(parsed.value) == f"task.{built.value}"

    def test_task_ranges_checked_without_building_the_task(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a task was built at parse time")

        monkeypatch.setattr(qcas.cli, "build_task", unexpected)
        for name in ("make_image_task", "gen_hidden_targets"):
            monkeypatch.setattr(qcas.tasks, name, unexpected)
        monkeypatch.setattr(qcas.tasks, "encode_images", unexpected)
        for task in ({"kind": "image", "n_trash": 4},
                     {"kind": "image", "dataset": "tetris", "n_trash": 3},
                     {"kind": "unitary_regen", "n_qubits": 10, "layers": 6}):
            assert parse_config({"task": task}, environ={})["task"]["kind"] == task["kind"]


# the record `test` keys of each task kind's test protocol
TEST_KEYS = {
    "denoise": {"per_p"},
    "image": {"test_mean_fidelity", "test_std_fidelity"},
    "state_compress": {"test_mean_fidelity", "test_std_fidelity", "test_logfidelity"},
    "unitary_regen": {"loss", "fidelity"},
}


class TestBuildTask:
    @pytest.mark.parametrize("kind", sorted(TASK_KINDS))
    def test_evaluate_and_dataset(self, kind):
        built = build_task(parse_config({"task": {"kind": kind}}, environ={})["task"], seed=1)
        n = built.task.n_qubits
        out = built.evaluate(Circuit(n), np.zeros(0))
        assert set(out) == TEST_KEYS[kind]
        if kind == "denoise":
            assert len(out["per_p"]) == 11
        json.dumps(built.dataset())

    def test_state_compress(self):
        cfg = parse_config({"task": {"kind": "state_compress"}}, environ={})
        built = build_task(cfg["task"], seed=0)
        assert built.task.n_qubits == 4

    @pytest.mark.parametrize("kind", ["image", "state_compress"])
    def test_local_cost_mode_is_honoured(self, kind):
        # two trash qubits, where the local and the global cost differ
        # (state_compress always has two)
        task_cfg = {"kind": kind, "cost_mode": "local"}
        if kind == "image":
            task_cfg["n_trash"] = 2
        local = build_task(parse_config({"task": task_cfg}, environ={})["task"], seed=0).task
        task_cfg["cost_mode"] = "trash"
        trash = build_task(parse_config({"task": task_cfg}, environ={})["task"], seed=0).task
        n = local.n_qubits
        assert local.n_trash == trash.n_trash == 2
        circuit = Circuit(n, [gate("RY", n - 2), gate("CNOT", n - 2, n - 1), gate("RX", n - 1)])
        theta = np.array([0.9, -0.4])
        probs = np.abs(circuit_unitary(circuit, theta) @ local.train_cols) ** 2
        bits = np.arange(2**n)
        zero = [probs[(bits >> (n - 1 - q)) & 1 == 0].sum(axis=0) for q in (n - 2, n - 1)]
        assert local.cost_mode == "local"
        assert local.training_cost(circuit, theta) == pytest.approx(
            1.0 - np.mean(zero), abs=1e-12)
        assert abs(local.training_cost(circuit, theta) - trash.training_cost(circuit, theta)) > 1e-3


@pytest.fixture(scope="module")
def record():
    return run(parse_config(FAST, environ={}))


class TestRunAndRecords:

    def test_record_structure(self, record):
        assert record["format"] == 1
        assert len(record["runs"]) == 1
        r = record["runs"][0]
        assert {"seed", "algorithm", "best_cell", "theta", "metrics",
                "validation_score", "test", "trace", "wall_time_s"} <= set(r)

    def test_record_roundtrip(self, record, tmp_path):
        path = str(tmp_path / "rec.json")
        write_record(record, path)
        loaded = load_record(path)
        assert loaded["runs"][0]["best_cell"] == record["runs"][0]["best_cell"]

    def test_write_is_atomic_no_tmp_left_behind(self, record, tmp_path):
        path = str(tmp_path / "rec.json")
        write_record(record, path)
        assert os.listdir(tmp_path) == ["rec.json"]

    def test_repeat_run_identical_modulo_walltime(self, record):
        again = run(parse_config(FAST, environ={}))

        def strip(rec):
            doc = json.loads(json.dumps(rec))
            for r in doc["runs"]:
                r.pop("wall_time_s", None)
            return doc

        assert strip(record) == strip(again)

    @pytest.mark.parametrize("spaces", [(["CNOT", "RY"], ["RY", "CNOT", "RY"]),
                                        (["CNOT", "RX", "RY"], ["RY", "CNOT", "RX", "RY"])],
                             ids=["repeats", "reordered"])
    @pytest.mark.parametrize("algorithm", ["rs", "res", "relm"])
    def test_a_run_sees_its_space_only_through_the_vocab(self, algorithm, spaces):
        # the order and repeats of the configured kinds change no draw; the
        # record keeps the space as it was given
        runs = []
        for space in spaces:
            config = parse_config(dict(FAST, algorithm=algorithm, space=space, seeds=[3],
                                       rs={"budget_evals": 4}), environ={})
            config["relm"] = dict(config["relm"], epochs=2, tournament_size=2, batch_size=2,
                                  population_size=4, embed_dim=4, n_heads=1, n_blocks=1,
                                  ff_dim=8)
            record = run(config)
            assert record["config"]["space"] == space
            for r in record["runs"]:
                assert "error" not in r
                r.pop("wall_time_s")
            runs.append(record["runs"])
        assert runs[0] == runs[1]

    def test_per_seed_errors_do_not_abort(self):
        config = parse_config(FAST, environ={})
        config["seeds"] = [1, 2]
        config["res"] = dict(config["res"], population_size=0)  # invalid
        record = run(config)
        assert all("error" in r for r in record["runs"])
        assert len(record["runs"]) == 2
        for r in record["runs"]:
            assert r["error"].startswith("ValueError: ")
            assert r["traceback"].startswith("Traceback (most recent call last):")
            assert r["traceback"].rstrip().endswith(r["error"])

    def test_relm_record_has_both_traces(self):
        config = parse_config(FAST, environ={})
        config["algorithm"] = "relm"
        config["relm"] = dict(
            config["relm"], epochs=2, tournament_size=2, batch_size=2,
            population_size=4, embed_dim=4, n_heads=1, n_blocks=1, ff_dim=8,
        )
        record = run(config)
        trace = record["runs"][0]["trace"]
        assert "res" in trace and "relm" in trace
        assert "init_best_score" in trace
        for epoch in trace["relm"]:
            assert epoch["n_admissible"] <= epoch["n_scored"] == 2

    def test_random_search_init_keeps_the_constraint(self):
        config = parse_config(FAST, environ={})
        config["algorithm"] = "relm"
        config["seeds"] = [1, 2, 3]
        config["res"] = dict(config["res"], constraint={"quantity": "n_gates", "bound": 2})
        config["relm"] = dict(
            config["relm"], init_mode="random_search", epochs=2, tournament_size=2,
            batch_size=2, population_size=4, embed_dim=4, n_heads=1, n_blocks=1,
            ff_dim=8,
        )
        record = run(config)
        assert [r["seed"] for r in record["runs"]] == [1, 2, 3]
        for r in record["runs"]:
            assert "res" not in r["trace"]
            assert r["metrics"]["n_gates"] <= 2


class TestExport:
    def test_schemas(self, tmp_path):
        record = run(parse_config(FAST, environ={}))
        paths = export_csv(record, str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert names == {"denoising.csv", "relm.csv", "summary.csv"}
        with open(os.path.join(tmp_path, "summary.csv")) as fh:
            header = fh.readline().strip()
        assert header == "task,algorithm,seed,validation_score,n_params,n_layers,n_two_qubit"
        with open(os.path.join(tmp_path, "denoising.csv")) as fh:
            assert fh.readline().strip() == "p,mean_fidelity,std_fidelity,algorithm,seed"
        with open(os.path.join(tmp_path, "relm.csv")) as fh:
            assert fh.readline().strip() == "epoch,smoothed_reward,best_score,algorithm,seed"

    def test_no_matching_records_header_only(self, tmp_path):
        export_csv([], str(tmp_path))
        with open(os.path.join(tmp_path, "denoising.csv")) as fh:
            assert len(fh.readlines()) == 1

    def test_export_deterministic_bytes(self, tmp_path):
        record = run(parse_config(FAST, environ={}))
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        export_csv(record, str(a_dir))
        export_csv(run(parse_config(FAST, environ={})), str(b_dir))
        for name in ("denoising.csv", "relm.csv", "summary.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


class TestGenDataAndEval:
    def test_gen_data_denoise(self, tmp_path):
        cfg = parse_config({"task": {"kind": "denoise"}}, environ={})
        path = gen_data(cfg["task"], 1, str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["kind"] == "denoise"
        assert len(doc["train"]) == 100

    def test_gen_data_is_the_searched_dataset(self, tmp_path):
        cfg = parse_config({"task": {"kind": "unitary_regen"}}, environ={})
        path = gen_data(cfg["task"], 4, str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        amplitudes = build_task(cfg["task"], 4).task.target.evolved
        tenth = gen_hidden_targets(3, "dense", 3, 10, seed=4)[0].evolved
        assert np.array_equal(amplitudes, tenth)
        # one target, stored as a one-column state list
        assert doc["targets"] == [[[[float(v.real), float(v.imag)] for v in amplitudes]]]

    def test_eval_record(self, tmp_path):
        record = run(parse_config(FAST, environ={}))
        rec_path = str(tmp_path / "rec.json")
        write_record(record, rec_path)
        out, difference = eval_record(rec_path, str(tmp_path))
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["results"][0]["seed"] == 1
        assert doc["results"][0]["test"] == record["runs"][0]["test"]
        assert difference is None


class TestStartup:
    def test_default_run_imports_no_optional_modules(self):
        # qcas never needs scipy; a default run needs neither yaml nor the pool
        src = os.path.dirname(os.path.dirname(qcas.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "import qcas.cli, qcas.relm, qcas.res, qcas.tasks\n"
            "qcas.cli.parse_config({'task': {'kind': 'denoise'}}, environ={})\n"
            "print(sorted(m for m in ('scipy', 'yaml', 'concurrent.futures.process')"
            " if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"

    def test_parallel_seeds_match_serial(self):
        config = parse_config(dict(FAST, seeds=[1, 2]), environ={})
        serial = run(config)["runs"]
        parallel = run(dict(config, jobs=2))["runs"]
        for a, b in zip(serial, parallel, strict=True):
            assert (a["seed"], a["theta"], a["validation_score"]) == (
                b["seed"], b["theta"], b["validation_score"])


class TestMain:
    def test_search_and_export_commands(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "task:\n  kind: unitary_regen\n  n_qubits: 2\n  layers: 1\n"
            "algorithm: res\nres:\n  population_size: 4\n  max_phases: 2\n"
            "opt:\n  max_evals: 30\n  restarts: 1\nseeds: [1]\n"
        )
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(cfg_path), "--out", out]) == EXIT_OK
        rec = os.path.join(out, "unitary_regen_res.json")
        assert os.path.exists(rec)
        assert main(["export", "--config", str(cfg_path), "--out", out,
                     "--record", rec]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "summary.csv"))

    @pytest.mark.parametrize("node_ops, edge_ops, task, message", [
        ([[], []], [(0, 1, "CNOT"), (0, 1, "CRX")], None, "repeated edge (0, 1)"),
        ([["FOO"], []], [], None, "unknown gate kind 'FOO'"),
        ([["CNOT"], []], [], None, "CNOT needs 2 targets"),
        ([[]] * 4, [], {"kind": "denoise"}, "columns have 8 rows, but a 4-qubit circuit needs 16"),
    ], ids=["repeated-edge", "unknown-tag", "two-qubit-tag-on-node", "cell-wider-than-task"])
    def test_eval_of_a_tampered_cell_names_the_value(self, tmp_path, capsys,
                                                     node_ops, edge_ops, task, message):
        # a cell that is not one is a config error that names the record and
        # the run; `task`, if given, replaces the record's task: a valid cell
        # whose width is not the task's reaches the simulator on the eval path
        record = run(parse_config(FAST, environ={}))
        if task is not None:
            record["config"]["task"] = parse_config({"task": task}, environ={})["task"]
        record["runs"][0]["best_cell"].update(
            n_qubits=len(node_ops), node_ops=node_ops,
            edge_ops=[{"control": c, "target": t, "ops": [tag]} for c, t, tag in edge_ops])
        cfg_path, rec_path = tmp_path / "cfg.json", str(tmp_path / "rec.json")
        cfg_path.write_text(json.dumps(FAST))
        write_record(record, rec_path)
        code = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--record", rec_path])
        if task is None:
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: record {rec_path!r}: run 0 has a bad 'best_cell': {message}\n")
        else:
            assert code == EXIT_RUNTIME
            assert capsys.readouterr().err == f"runtime error: ValueError: {message}\n"

    MALFORMED = {"no-edge-ops": "a 'best_cell' with no 'edge_ops'",
                 "cell-is-a-string": "a 'best_cell' that is not a mapping",
                 "theta-too-long": "a 'theta' of 2 values, but its cell has 0 parameters",
                 "theta-of-strings": "a 'theta' that is not a list of numbers"}

    @pytest.mark.parametrize("case", MALFORMED)
    def test_eval_of_a_malformed_cell_or_theta_is_a_one_line_config_error(
            self, tmp_path, capsys, case):
        record = run(parse_config(dict(FAST, seeds=[1, 2]), environ={}))
        bad = record["runs"][1]
        bad["best_cell"] = dict(bad["best_cell"], n_qubits=2, node_ops=[[], []], edge_ops=[])
        bad["theta"] = []
        if case == "no-edge-ops":
            del bad["best_cell"]["edge_ops"]
        elif case == "cell-is-a-string":
            bad["best_cell"] = "Cell(2)"
        else:
            bad["theta"] = [0.1, 0.2] if case == "theta-too-long" else ["0.1"]
        cfg_path, rec_path = tmp_path / "cfg.json", str(tmp_path / "rec.json")
        cfg_path.write_text(json.dumps(FAST))
        write_record(record, rec_path)
        assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--record", rec_path]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: record {rec_path!r}: run 1 has {self.MALFORMED[case]}\n")

    def _eval(self, tmp_path, record):
        cfg_path, rec_path = tmp_path / "cfg.json", str(tmp_path / "rec.json")
        cfg_path.write_text(json.dumps(FAST))
        write_record(record, rec_path)
        code = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path),
                     "--record", rec_path])
        with open(tmp_path / "eval_rec.json", encoding="utf-8") as fh:
            return code, json.load(fh)["results"]

    def test_eval_of_a_fresh_record_reproduces_it(self, tmp_path, capsys):
        record = run(parse_config(dict(FAST, seeds=[1, 2]), environ={}))
        code, results = self._eval(tmp_path, record)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert [r["test"] for r in results] == [r["test"] for r in record["runs"]]

    def test_eval_names_the_seed_and_key_that_do_not_reproduce(self, tmp_path, capsys):
        record = run(parse_config(dict(FAST, seeds=[1, 2]), environ={}))
        stored = record["runs"][1]["test"]
        recomputed = stored["loss"]
        stored["loss"] = recomputed + 1e-9
        code, results = self._eval(tmp_path, record)
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            f"seed 2 does not reproduce its record: test['loss'] is {recomputed!r}, "
            f"the record holds {recomputed + 1e-9!r}\n")
        assert results[1]["test"]["loss"] == recomputed  # the eval file is still written

    def test_eval_passes_an_error_run_through(self, tmp_path, capsys):
        record = run(parse_config(FAST, environ={}))
        error = {"seed": 7, "error": "RuntimeError: none found", "traceback": "..."}
        record["runs"].insert(0, error)
        code, results = self._eval(tmp_path, record)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert results[0] == error and results[1]["seed"] == 1

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("content", [None, '{"format": 1, "runs"', "[]", '{"format": 1}'],
                             ids=["missing", "truncated", "list", "no-runs"])
    def test_unreadable_record_is_a_one_line_config_error(self, tmp_path, capsys, content,
                                                          command):
        cfg_path, rec_path = tmp_path / "cfg.json", tmp_path / "rec.json"
        cfg_path.write_text(json.dumps(FAST))
        if content is not None:
            rec_path.write_text(content)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--record", str(rec_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(rec_path) in err
        assert err.count("\n") == 1 and err.endswith("\n")

    GOOD_RUN = {"seed": 1, "algorithm": "rs",
                "metrics": {"n_params": 0, "n_layers": 1, "n_two_qubit": 0},
                "validation_score": 0.5, "test": {}, "trace": None, "best_cell": {}, "theta": []}

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("case", ["config", "task", "kind", "run", *GOOD_RUN,
                                      *(f"metrics.{key}" for key in GOOD_RUN["metrics"])])
    def test_record_missing_a_key_is_a_one_line_config_error(self, tmp_path, capsys, command,
                                                              case):
        # the second run lacks the key; an error run needs none of them
        cfg_path, rec_path = tmp_path / "cfg.json", tmp_path / "rec.json"
        cfg_path.write_text(json.dumps(FAST))
        runs = [{"seed": 0, "error": "RuntimeError: none found"}, copy.deepcopy(self.GOOD_RUN)]
        record = {"format": 1, "config": {"task": {"kind": "denoise"}}, "runs": runs}
        if case == "config":
            del record["config"]
        elif case in ("task", "kind"):
            record["config"] = {"task": {}} if case == "kind" else {}
        elif case == "run":
            runs[1] = ["seed", 1]
        elif case.startswith("metrics."):
            del runs[1]["metrics"][case.removeprefix("metrics.")]
        else:
            del runs[1][case]
        rec_path.write_text(json.dumps(record))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--record", str(rec_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        reason = (" has no 'config.task.kind'" if case in ("config", "task", "kind")
                  else ": run 1 is not a mapping" if case == "run" else f": run 1 has no {case!r}")
        assert err == f"config error: record {str(rec_path)!r}{reason}\n"

    # a task section or a run seed the record's readers would take on trust:
    # (task section, seed of the second run, the reason after the path)
    BAD_RECORD_VALUES = {
        "unknown-kind": ({"kind": "bogus"}, 1,
                         f": task.kind must be one of {tuple(TASK_KINDS)}, got 'bogus'"),
        "unknown-task-key": ({"kind": "denoise", "colour": "red"}, 1,
                             ": unknown config key 'task.colour'"),
        "bad-task-value": ({"kind": "denoise", "noise": "pink"}, 1,
                           ": task.noise must be one of ('bitflip', 'qdc'), got 'pink'"),
        "key-not-read": ({"kind": "denoise", "n_qubits": 5}, 1,
                         ": task.n_qubits is not read by task kind 'denoise'"),
        "string-seed": ({"kind": "denoise"}, "x",
                        ": run 1 has a 'seed' that is not an integer >= 0: 'x'"),
        "negative-seed": ({"kind": "denoise"}, -1,
                          ": run 1 has a 'seed' that is not an integer >= 0: -1"),
    }

    @pytest.mark.parametrize("command", ["eval", "export"])
    @pytest.mark.parametrize("case", BAD_RECORD_VALUES)
    def test_record_with_a_bad_task_or_seed_is_a_one_line_config_error(self, tmp_path, capsys,
                                                                        command, case):
        task, seed, reason = self.BAD_RECORD_VALUES[case]
        cfg_path, rec_path = tmp_path / "cfg.json", tmp_path / "rec.json"
        cfg_path.write_text(json.dumps(FAST))
        good = dict(self.GOOD_RUN, seed=seed, best_cell=cell_to_dict(Cell(3)))
        runs = [{"seed": "none", "error": "RuntimeError: none found"}, good]
        rec_path.write_text(json.dumps({"format": 1, "config": {"task": task}, "runs": runs}))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--record", str(rec_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: record {str(rec_path)!r}{reason}\n"

    def test_record_task_section_is_merged_over_the_defaults(self, tmp_path):
        # a section that holds only its kind stays valid, and reads as the full section
        rec_path = tmp_path / "rec.json"
        good = dict(self.GOOD_RUN, best_cell=cell_to_dict(Cell(3)))
        rec_path.write_text(json.dumps({"format": 1, "config": {"task": {"kind": "denoise"}},
                                        "runs": [good]}))
        assert load_record(str(rec_path))["config"]["task"] == dict(DEFAULT_CONFIG["task"],
                                                                    kind="denoise")

    @pytest.mark.parametrize("case, message", [
        ("missing", "cannot read config '{path}': No such file or directory"),
        ("directory", "cannot read config '{path}': Is a directory"),
        ("not-utf-8", "cannot read config '{path}': 'utf-8' codec can't decode byte 0xff"),
        ("bad-yaml-file", "config '{path}' is not valid YAML at line 3, column 2: "),
        ("bad-yaml-env", "QCAS_RES__POPULATION_SIZE is not valid YAML at line 1, column 6: "),
    ], ids=["missing", "directory", "not-utf-8", "bad-yaml-file", "bad-yaml-env"])
    def test_unreadable_config_is_a_one_line_config_error(self, tmp_path, capsys, monkeypatch,
                                                          case, message):
        path = tmp_path / "cfg.yaml"
        if case == "missing":
            path = tmp_path / "nosuch.yaml"
        elif case == "directory":
            path = tmp_path
        elif case == "not-utf-8":
            path.write_bytes(b"\xfftask: {kind: denoise}\n")
        elif case == "bad-yaml-file":
            path.write_text("task:\n  kind: denoise\n opt: [\n")
        else:
            path.write_text("task:\n  kind: denoise\n")
            monkeypatch.setenv("QCAS_RES__POPULATION_SIZE", "[1, 2")
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(path), "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(path=path))
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name, value, message", ENV_SHAPE_ERRORS, ids=ENV_SHAPE_IDS)
    def test_bad_env_override_is_a_one_line_config_error(self, tmp_path, capsys, monkeypatch,
                                                         name, value, message):
        path = tmp_path / "cfg.yaml"
        path.write_text("task:\n  kind: denoise\n")
        monkeypatch.setenv(name, value)
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(path), "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not os.path.exists(out)

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("task:\n  kind: nonsense\n")
        assert main(["search", "--config", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("section, body, key", [
        ("res", "constraint: {quantity: n_params, bound: 0}", "res.constraint.bound"),
        ("res", "population_size: 0", "res.population_size"),
        ("relm", "epochs: 0", "relm.epochs"),
        ("task", "dataset: digts", "task.dataset"),
        ("task", "cost_mode: locl", "task.cost_mode"),
        ("relm", "reward_mode: unitry", "relm.reward_mode"),
        ("relm", "init_mode: rs", "relm.init_mode"),
        ("relm", "batch_size: 0", "relm.batch_size"),
        ("relm", "n_heads: 3", "relm.n_heads"),
        ("relm", "learning_rate: -1", "relm.learning_rate"),
        ("relm", "alpha: .nan", "relm.alpha"),
        ("relm", "max_seq: 0", "relm.max_seq"),
        ("relm", "max_seq: 1", "relm.layer_budget"),
        ("relm", "layer_budget: 0", "relm.layer_budget"),
        ("relm", "ff_dim: 2.5", "relm.ff_dim"),
        ("res", "layer_budget_per_phase: 0", "res.layer_budget_per_phase"),
        ("res", "layer_budget_per_phase: x", "res.layer_budget_per_phase"),
        ("rs", "budget_evals: 0", "rs.budget_evals"),
        ("rs", "budget_evals: x", "rs.budget_evals"),
        ("rs", "layer_budget: 0", "rs.layer_budget"),
    ])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, section, body, key):
        cfg_path = tmp_path / "bad.yaml"
        task = "task:\n  kind: denoise\n"
        if section == "task":
            cfg_path.write_text(f"{task}  {body}\n")
        else:
            cfg_path.write_text(f"{task}{section}:\n  {body}\n")
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(cfg_path), "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ")
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_unread_task_key_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("task:\n  kind: state_compress\n  n_trash: 3\n")
        assert main(["search", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: task.n_trash is not read by task kind 'state_compress'\n")

    @pytest.mark.parametrize("body, message", [
        ("task:\n  kind: image\n  n_trash: 5\n", "task.n_trash must be in 1..4, got 5"),
        ("task:\n  kind: unitary_regen\n  n_qubits: 11\n",
         "task.n_qubits must be in 1..10, got 11"),
        ("task:\n  kind: unitary_regen\n  layers: 7\n", "task.layers must be in 1..6, got 7"),
        ("task:\n  kind: denoise\nseeds: 3\n",
         "seeds must be a non-empty list of integers >= 0, got 3"),
        ("task:\n  kind: denoise\nspace: [FOO]\n", "space: unknown gate kinds: ['FOO']"),
        ("task:\n  kind: denoise\nspace: RX\n",
         "space must be null or a list of gate kinds, got 'RX'"),
    ])
    def test_bad_run_key_is_a_config_error(self, tmp_path, capsys, body, message):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(body)
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(cfg_path), "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not os.path.exists(out)

    # The denoise-relm benchmark workload under n_two_qubit <= 1 with six RES
    # phases: RES can put six rotations on one qubit, and a RELM parent's
    # rotations must fit max_seq slots (without the check, seed 3 of these
    # failed mid-run with "qubit 1 has 2 rotations, more than max_seq 1").
    MAX_SEQ_CONFIG = {
        "task": {"kind": "denoise", "noise": "bitflip"},
        "algorithm": "relm",
        "res": {"population_size": 6, "constraint": {"quantity": "n_two_qubit", "bound": 1},
                "layer_budget_per_phase": 1, "max_phases": 6},
        "relm": {"epochs": 2, "tournament_size": 5, "batch_size": 8, "population_size": 6,
                 "layer_budget": 1, "max_seq": 1, "init_mode": "res"},
        "opt": {"max_evals": 100, "restarts": 1},
        "seeds": [1, 2, 3, 4],
    }
    N_PARAMS4 = {"res": {"constraint": {"quantity": "n_params", "bound": 4}, "max_phases": 10},
                 "relm": {"max_seq": 4}}

    @pytest.mark.parametrize("changes, need", [
        ({}, 6),
        ({"relm": {"init_mode": "random_search"}}, None),
        ({"algorithm": "res"}, None),
        # every generic rotation has a parameter, so n_params <= 4 caps them at 4
        (dict(N_PARAMS4, space=["RX", "RY", "RZ", "CNOT"]), None),
        (dict(N_PARAMS4, space=["RX", "RY", "RZ", "H", "CNOT"]), 10),
    ], ids=["found", "rsinit", "res", "nparams-generic", "nparams-with-H"])
    def test_relm_max_seq_must_hold_every_res_parent(self, tmp_path, capsys, monkeypatch,
                                                     changes, need):
        doc = json.loads(json.dumps(self.MAX_SEQ_CONFIG))
        for key, value in changes.items():
            doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
        if need is None:
            assert parse_config(doc, environ={})["relm"]["max_seq"] == doc["relm"]["max_seq"]
            return

        def unexpected(*args, **kwargs):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(qcas.cli, "_run_single_seed", unexpected)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(cfg_path), "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: relm.max_seq must be >= {need}, the most rotations RES can put "
            f"on one qubit, got {doc['relm']['max_seq']}\n")
        assert not os.path.exists(out)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(space=st.lists(st.sampled_from(sorted(GATE_KINDS)), min_size=1, max_size=3,
                          unique=True),
           quantity=st.sampled_from(["n_layers", "n_params", "n_two_qubit", "n_gates"]),
           bound=st.integers(1, 6), max_phases=st.integers(1, 4),
           layer_budget_per_phase=st.integers(1, 3))
    def test_relm_max_seq_rule_matches_the_reference(self, space, quantity, bound, max_phases,
                                                     layer_budget_per_phase):
        need = reference.res_rotations_per_qubit(space, quantity, bound, max_phases,
                                                 layer_budget_per_phase)
        for max_seq in range(max(need - 1, 1), need + 2):
            doc = {"task": {"kind": "denoise"}, "algorithm": "relm", "space": space,
                   "res": {"constraint": {"quantity": quantity, "bound": bound},
                           "max_phases": max_phases,
                           "layer_budget_per_phase": layer_budget_per_phase},
                   "relm": {"init_mode": "res", "layer_budget": 1, "max_seq": max_seq}}
            if max_seq >= need:
                assert parse_config(doc, environ={})["relm"]["max_seq"] == max_seq
            else:
                with pytest.raises(ConfigError, match=rf"^relm\.max_seq must be >= {need}, "):
                    parse_config(doc, environ={})

    def test_relm_max_seq_rule_does_not_scale_with_max_phases(self):
        doc = {"task": {"kind": "denoise"}, "algorithm": "relm",
               "res": {"constraint": {"quantity": "n_layers", "bound": 3},
                       "max_phases": 10000},
               "relm": {"init_mode": "res", "max_seq": 3}}
        start = time.perf_counter()
        assert parse_config(doc, environ={})["res"]["max_phases"] == 10000
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ConfigError, match=r"^relm\.max_seq must be >= 3, "):
            parse_config(dict(doc, relm={"init_mode": "res", "max_seq": 2,
                                         "layer_budget": 2}), environ={})

    @pytest.mark.parametrize("flag", ["x", "-3", "0", "2.7", "True", "100000"])
    def test_bad_jobs_flag_is_a_config_error(self, tmp_path, capsys, flag):
        # rejected while parsing: the search, and so any worker, never starts
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("task:\n  kind: denoise\nseeds: [1]\n")
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(cfg_path), "--out", out,
                     "--jobs", flag]) == EXIT_CONFIG
        err = capsys.readouterr().err
        if flag.lstrip("-").isdigit():
            assert err == (f"config error: jobs must be in 1..{os.cpu_count() or 1}, "
                           f"got {flag}\n")
        else:
            assert "--jobs: invalid int value" in err
        assert not os.path.exists(out)

    def test_seed_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "task:\n  kind: unitary_regen\n  n_qubits: 2\n  layers: 1\n"
            "res:\n  population_size: 4\n  max_phases: 1\n"
            "opt:\n  max_evals: 20\n  restarts: 1\nseeds: [1]\n"
        )
        out = str(tmp_path / "out")
        assert main(["search", "--config", str(cfg_path), "--out", out,
                     "--seed", "5", "--seed", "6"]) == EXIT_OK
        record = load_record(os.path.join(out, "unitary_regen_res.json"))
        assert [r["seed"] for r in record["runs"]] == [5, 6]
