"""Experiment driver: config parsing with defaults and env overrides, run
records, CSV export, dataset generation and exit codes."""

import json
import os

import numpy as np
import pytest

from qcas.sim import Circuit

from qcas.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_OK,
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


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config = parse_config({"task": {"kind": "denoise"}}, environ={})
        assert config["res"]["population_size"] == 30
        assert config["relm"]["epochs"] == 30
        assert config["relm"]["embed_dim"] == 32
        assert config["relm"]["ff_dim"] == 64
        assert config["algorithm"] == "res"

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="algoritm"):
            parse_config({"task": {"kind": "denoise"}, "algoritm": "res"},
                         environ={})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="res.populaton"):
            parse_config({"task": {"kind": "denoise"},
                          "res": {"populaton": 5}}, environ={})

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

    def test_yaml_text_source(self):
        config = parse_config("task:\n  kind: image\n  dataset: tetris\n",
                              environ={})
        assert config["task"]["dataset"] == "tetris"

    def test_bad_task_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"task": {"kind": "teleportation"}}, environ={})

    def test_bad_constraint_rejected(self):
        with pytest.raises(ValueError):
            parse_config({"task": {"kind": "denoise"},
                          "res": {"constraint": {"quantity": "n_params",
                                                 "bound": 0}}}, environ={})


class TestBuildTask:
    def test_unitary_regen(self):
        built = build_task(parse_config(FAST, environ={})["task"], seed=1)
        assert built.task.n_qubits == 2
        out = built.evaluate(Circuit(2), np.zeros(0))
        assert set(out) == {"loss", "fidelity"}

    def test_state_compress(self):
        cfg = parse_config({"task": {"kind": "state_compress"}}, environ={})
        built = build_task(cfg["task"], seed=0)
        assert built.task.n_qubits == 4


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
            assert fh.readline().strip() == "epoch,smoothed_reward,best_score"

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

    def test_eval_record(self, tmp_path):
        record = run(parse_config(FAST, environ={}))
        rec_path = str(tmp_path / "rec.json")
        write_record(record, rec_path)
        out = eval_record(rec_path, str(tmp_path))
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["results"][0]["seed"] == 1
        assert "test" in doc["results"][0]


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

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("task:\n  kind: nonsense\n")
        assert main(["search", "--config", str(cfg_path)]) == EXIT_CONFIG

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
