"""Tests for config parsing, the argparse surface, and the run pipeline."""
import csv
import os
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from windqnn import __version__, cli, qnn
from windqnn.cli import ConfigError, load_config, main, run_experiment
from windqnn.data import load_csv
from windqnn.optimizer import OptimizerOptions
from windqnn.report import METHOD_ORDER


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL_RUN = """
data: {n_rows: 80, seed: 42}
optimizer: {max_iterations: 2}
selection: [QNN-1, dt, ols]
output: {directory: "%s", run_id: "fixed"}
parallelism: 1
"""


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def masked_results(path):
    """results.csv rows with the wall-clock column blanked for comparison."""
    rows = read_rows(path)
    for row in rows:
        row["wall_time_s"] = ""
    return rows


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert cfg.data_source == "synthetic"
        assert cfg.n_rows == 4464
        assert cfg.split_fraction == 0.8
        assert cfg.optimizer.max_iterations == 25
        assert cfg.selection == METHOD_ORDER
        assert cfg.parallelism is None

    def test_empty_section_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "data:\nqnn:\noptimizer:\n"))
        assert cfg == cli.ExperimentConfig()

    def test_values_are_read(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
prng: pcg64
data: {source: synthetic, n_rows: 128, seed: 3}
split: {fraction: 0.75, mode: chronological, seed: 9}
qnn: {feature_map_reps: 1, ansatz_reps: 2, zz_entanglement: linear,
      init_seed: 5, gradient_mode: parameter_shift}
optimizer: {max_iterations: 7, memory: 4, wolfe_c2: 0.5}
baselines: {knn_k: 3, cart_max_depth: 6, cart_min_samples_split: 4}
selection: [QNN-2, knn]
output: {directory: out, run_id: abc}
parallelism: 2
"""))
        assert cfg.n_rows == 128 and cfg.data_seed == 3
        assert cfg.split_fraction == 0.75 and cfg.split_mode == "chronological"
        assert cfg.feature_map_reps == 1 and cfg.ansatz_reps == 2
        assert cfg.zz_entanglement == "linear"
        assert cfg.gradient_mode == "parameter_shift"
        assert cfg.optimizer.max_iterations == 7
        assert cfg.optimizer.memory == 4
        assert cfg.optimizer.wolfe_c2 == 0.5
        assert cfg.knn_k == 3 and cfg.cart_max_depth == 6
        assert cfg.selection == ("QNN-2", "knn")
        assert cfg.output_directory == "out" and cfg.run_id == "abc"
        assert cfg.parallelism == 2

    def test_fraction_out_of_range_names_key(self, tmp_path):
        path = write_config(tmp_path, "split: {fraction: 1.2}")
        with pytest.raises(ConfigError, match="split.fraction"):
            load_config(path)

    def test_bad_mode_names_key(self, tmp_path):
        path = write_config(tmp_path, "split: {mode: sorted}")
        with pytest.raises(ConfigError, match="split.mode"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="splits"):
            load_config(write_config(tmp_path, "splits: {fraction: 0.8}"))

    def test_unknown_section_key(self, tmp_path):
        with pytest.raises(ConfigError, match="qnn.reps"):
            load_config(write_config(tmp_path, "qnn: {reps: 2}"))

    def test_unknown_selection_entry(self, tmp_path):
        path = write_config(tmp_path, "selection: [QNN-1, QNN-99]")
        with pytest.raises(ConfigError, match="QNN-99"):
            load_config(path)

    def test_duplicate_selection_entry(self, tmp_path):
        path = write_config(tmp_path, "selection: [ols, ols, dt]")
        with pytest.raises(ConfigError, match="'ols' more than once"):
            load_config(path)

    def test_key_table_matches_the_config_dataclass(self):
        keys_per_field = Counter(name for name, *_ in cli.CONFIG_KEYS.values())
        assert set(keys_per_field) <= {f.name for f in fields(cli.ExperimentConfig)}
        for f in fields(cli.ExperimentConfig):
            if f.name not in ("optimizer", "selection"):
                assert keys_per_field[f.name] == 1, f.name
        for f in fields(OptimizerOptions):
            assert cli.CONFIG_KEYS[f"optimizer.{f.name}"][0] == "optimizer"

    def test_unsupported_prng(self, tmp_path):
        with pytest.raises(ConfigError, match="pcg64"):
            load_config(write_config(tmp_path, "prng: mt19937"))

    def test_csv_source_requires_path(self, tmp_path):
        path = write_config(tmp_path, "data: {source: csv}")
        with pytest.raises(ConfigError, match="data.csv_path"):
            load_config(path)

    def test_bad_optimizer_value_names_section(self, tmp_path):
        path = write_config(tmp_path, "optimizer: {wolfe_c2: 1.5}")
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(path)

    def test_bad_gradient_mode(self, tmp_path):
        path = write_config(tmp_path, "qnn: {gradient_mode: analytic}")
        with pytest.raises(ConfigError, match="qnn.gradient_mode"):
            load_config(path)

    @pytest.mark.parametrize("text, message", [
        ("qnn: {finite_difference_step: 1.0e-6}", "unknown key qnn.finite_difference_step"),
        ("qnn: {gradient_mode: finite_difference}", "qnn.gradient_mode"),
    ])
    def test_removed_finite_difference_mode_exits_2(self, tmp_path, capsys, text, message):
        # parameter-shift is the only gradient; an old config that asks for
        # finite differences is refused before any method trains
        path = write_config(tmp_path, f"selection: [ols]\n{text}")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and message in err

    def test_parallelism_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError, match="parallelism"):
            load_config(write_config(tmp_path, "parallelism: 0"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no_such"):
            load_config("/tmp/no_such_config.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="YAML"):
            load_config(write_config(tmp_path, "data: [unclosed"))

    @pytest.mark.parametrize("text, key", [
        ("data: {n_rows: many}", "data.n_rows"),
        ("data: {n_rows: 2.5}", "data.n_rows"),
        ("data: {seed: [1]}", "data.seed"),
        ("parallelism: two", "parallelism"),
        ("split: {fraction: half}", "split.fraction"),
        ("qnn: {ansatz_reps: {a: 1}}", "qnn.ansatz_reps"),
        ("optimizer: {max_iterations: many}", "optimizer.max_iterations"),
        ("optimizer: {max_iterations: 2.5}", "optimizer.max_iterations"),
        ("baselines: {knn_k: five}", "baselines.knn_k"),
        ("data: {source: csv, csv_path: 5}", "data.csv_path"),
        ("data: {columns: [a, b]}", "data.columns"),
        ("data: {columns: {power: [PWR]}}", "data.columns.power"),
        ("data: {columns: {speed: WS}}", "data.columns.speed"),
        ("output: {directory: [1]}", "output.directory"),
        ("output: {run_id: {a: 1}}", "output.run_id"),
        ("data: {n_rows: yes}", "data.n_rows"),
        ("parallelism: on", "parallelism"),
        ("optimizer: {max_iterations: true}", "optimizer.max_iterations"),
        ("split: {fraction: .inf}", "split.fraction"),
        ("optimizer: {gradient_tolerance: .nan}", "optimizer.gradient_tolerance"),
        ("data: []", "data"),
        ("qnn: false", "qnn"),
        ("data: {n_rows: 1000000000000000000000000000000}", "data.n_rows"),
    ])
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, text, key):
        # rejected while the config loads, before any method trains
        path = write_config(tmp_path, f"selection: [ols]\n{text}")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and key in err

    @pytest.mark.parametrize("text, key", [
        ("data: {seed: -1}", "data.seed"),
        ("split: {seed: -1}", "split.seed"),
        ("qnn: {init_seed: -1}", "qnn.init_seed"),
    ])
    def test_negative_seed_exits_2(self, tmp_path, capsys, text, key):
        # PCG64 refuses a negative seed; the config names the key instead
        path = write_config(tmp_path, f"selection: [ols, QNN-1]\n{text}")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and key in err and ">= 0" in err

    def test_zero_seeds_load(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, "data: {seed: 0}\nsplit: {seed: 0}\nqnn: {init_seed: 0}"))
        assert (cfg.data_seed, cfg.split_seed, cfg.init_seed) == (0, 0, 0)


class TestArgparseSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name in ("run", "gen-data", "inspect-circuit", "report"):
            assert name in out

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        assert main(["gen-data", "--rows", "50", "--seed", "7", "--out", out]) == 0
        dataset, dropped = load_csv(out)
        assert len(dataset) == 50 and dropped == 0
        assert out in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["gen-data", "--rows", "30", "--seed", "5", "--out", a])
        main(["gen-data", "--rows", "30", "--seed", "5", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_zero_rows_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        assert main(["gen-data", "--rows", "0", "--out", out]) == 2
        assert "--rows" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_rows_beyond_the_largest_array_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        rows = "1000000000000000000000000000000"
        assert main(["gen-data", "--rows", rows, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and "--rows" in err and rows in err
        assert not os.path.exists(out)

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        assert main(["gen-data", "--rows", "5", "--seed", "-1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and "--seed" in err
        assert not os.path.exists(out)

    def test_unwritable_path_is_data_error(self, capsys):
        assert main(["gen-data", "--rows", "5", "--out", "/no_dir/data.csv"]) == 3
        assert "data:" in capsys.readouterr().err

    def test_rows_beyond_numpy_indexing_is_data_error(self, tmp_path, capsys):
        # passes the --rows check; the byte count is refused before any draw
        out = str(tmp_path / "data.csv")
        assert main(["gen-data", "--rows", str(sys.maxsize), "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data:") and "n_rows" in err
        assert not os.path.exists(out)

    def test_allocation_failure_is_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("windqnn.data.ideal_power_curve", _out_of_memory)
        out = str(tmp_path / "data.csv")
        assert main(["gen-data", "--rows", "50", "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data:") and "n_rows 50" in err
        assert not os.path.exists(out)


class TestInspectCircuit:
    def test_prints_gate_listing(self, capsys):
        assert main(["inspect-circuit", "QNN-1"]) == 0
        out = capsys.readouterr().out
        assert "H q0" in out and "P(2*x0) q0" in out
        assert "RY(t0) q0" in out and "CX q0,q1" in out
        # Z feature map has no entanglers: every CX belongs to the ansatz.
        assert out.index("CX") > out.index("RY(t0)")
        assert "parameters: 16" in out and "feature slots: 4" in out

    def test_zz_listing_has_pair_phases(self, capsys):
        assert main(["inspect-circuit", "QNN-8"]) == 0
        assert "P(2*(pi-x0)*(pi-x1)) q1" in capsys.readouterr().out

    def test_unknown_id_lists_valid_ones(self, capsys):
        assert main(["inspect-circuit", "QNN-13"]) == 2
        err = capsys.readouterr().err
        assert "QNN-13" in err and "QNN-12" in err


class TestRun:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "split: {fraction: 1.2}")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and "split.fraction" in err

    def test_no_line_search_steps_exits_2(self, tmp_path, capsys):
        # zero steps would stop every QNN at its initial parameters
        path = write_config(tmp_path, "selection: [QNN-1]\noptimizer: {max_line_search_steps: 0}")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config: optimizer:") and "max_line_search_steps" in err

    def test_missing_csv_exits_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "data: {source: csv, csv_path: /tmp/absent.csv}"
        )
        assert main(["run", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("data:")

    def test_one_row_csv_exits_3(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text(
            "wind_speed,wind_direction,pressure,temperature,power\n"
            "8.0,180.0,1013.0,12.0,500.0\n", encoding="utf-8")
        path = write_config(tmp_path, f"data: {{source: csv, csv_path: {csv_path}}}")
        assert main(["run", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data:") and "empty side" in err

    @pytest.mark.parametrize("bad_row, reason", [
        (b"8.0,180.0,1013.0,12.0,5\xff0.0\n", "not UTF-8"),
        (b"8.0,180.0,1013.0,12.0,\"" + b"9" * 131073 + b"\"\n", "field larger"),
    ], ids=["undecodable_byte", "oversized_field"])
    def test_unreadable_csv_exits_3(self, tmp_path, capsys, bad_row, reason):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(b"wind_speed,wind_direction,pressure,temperature,power\n"
                             b"8.0,180.0,1013.0,12.0,500.0\n" + bad_row)
        path = write_config(tmp_path, f"data: {{source: csv, csv_path: {csv_path}}}")
        assert main(["run", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data: {csv_path}, line 3: ") and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("huge", [False, True])
    def test_unallocatable_synthetic_rows_exit_3(self, tmp_path, capsys, monkeypatch, huge):
        if huge:  # refused by its byte count before any draw
            path = write_config(tmp_path, f"data: {{n_rows: {sys.maxsize}}}")
        else:
            monkeypatch.setattr("windqnn.data.ideal_power_curve", _out_of_memory)
            path = write_config(tmp_path, SMALL_RUN % (tmp_path / "runs"))
        assert main(["run", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data:") and "n_rows" in err

    def test_program_error_is_not_reported_as_data_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("windqnn.cli.fit_scaler", broken)
        path = write_config(tmp_path, SMALL_RUN % (tmp_path / "runs"))
        with pytest.raises(ValueError, match="broadcast"):
            main(["run", "--config", path])

    def test_small_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, SMALL_RUN % out_dir)
        assert main(["run", "--config", path]) == 0
        run_dir = out_dir / "fixed"
        for name in ("results.csv", "results.md", "traces_z.svg"):
            assert (run_dir / name).exists()
        assert (run_dir / "QNN-1" / "trace.csv").exists()
        assert (run_dir / "dt" / "predictions.csv").exists()
        rows = read_rows(run_dir / "results.csv")
        assert [r["config_id"] for r in rows] == ["QNN-1", "dt", "ols"]
        out = capsys.readouterr().out
        assert "QNN-1" in out and "decision_tree" in out
        assert str(run_dir) in out

    def test_repeat_run_matches_except_wall_time(self, tmp_path):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, SMALL_RUN % out_dir)
        assert main(["run", "--config", path]) == 0
        first = masked_results(out_dir / "fixed" / "results.csv")
        assert main(["run", "--config", path]) == 0
        assert masked_results(out_dir / "fixed" / "results.csv") == first

    def test_parallel_degree_does_not_change_results(self, tmp_path):
        reports = {}
        for degree in (1, 3):
            cfg = load_config(write_config(tmp_path, f"""
data: {{n_rows: 80, seed: 42}}
optimizer: {{max_iterations: 2}}
selection: [QNN-1, QNN-7, knn]
parallelism: {degree}
""", name=f"p{degree}.yaml"))
            report = run_experiment(cfg)
            assert report.failures == []
            reports[degree] = report
        for one, many in zip(reports[1].ordered(), reports[3].ordered()):
            assert one.method_id == many.method_id
            assert one.r2 == many.r2 and one.mae == many.mae
            assert np.array_equal(one.predicted, many.predicted)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_each_feature_map_is_encoded_once_per_run(self, tmp_path, monkeypatch, degree):
        encoded = []
        encode = cli.encode

        def counting_encode(template, features):
            encoded.append(features.shape[0])
            return encode(template, features)

        monkeypatch.setattr(cli, "encode", counting_encode)
        cfg = load_config(write_config(tmp_path, f"""
data: {{n_rows: 60, seed: 42}}
optimizer: {{max_iterations: 1}}
selection: [QNN-1, QNN-7, QNN-2, dt, QNN-8, QNN-3]
parallelism: {degree}
"""))
        report = run_experiment(cfg)
        assert report.failures == [] and len(report.methods) == 6
        # one train-row and one test-row encoding per feature map (Z, ZZ)
        assert sorted(encoded) == [12, 12, 48, 48]

    def test_each_model_builds_its_dense_suffix_once(self, tmp_path, monkeypatch):
        built = []
        dense_suffix = qnn._DenseSuffix

        def counting_suffix(template):
            built.append(template)
            return dense_suffix(template)

        monkeypatch.setattr(qnn, "_DenseSuffix", counting_suffix)
        cfg = load_config(write_config(tmp_path, """
data: {n_rows: 60, seed: 42}
optimizer: {max_iterations: 1}
selection: [QNN-1, QNN-7, QNN-2]
parallelism: 1
"""))
        report = run_experiment(cfg)
        assert report.failures == [] and len(report.methods) == 3
        # one build per model, shared by its training and its test predictions
        assert len(built) == 3

    @pytest.mark.parametrize("degree", [1, 2])
    def test_failures_keep_selection_order_and_spare_the_group(
            self, tmp_path, capsys, monkeypatch, degree):
        # train sees only the model, so remember which config each one is
        failing = {"QNN-2", "QNN-8"}
        build_model, train = cli.build_model, cli.train
        built = {}
        outcomes = []

        def recording_build_model(method_id, **kwargs):
            model = build_model(method_id, **kwargs)
            built[id(model)] = method_id
            return model

        def exploding_train(model, *args, **kwargs):
            if built[id(model)] in failing:
                raise RuntimeError(f"{built[id(model)]} diverged")
            return train(model, *args, **kwargs)

        def recording_run_experiment(cfg):
            outcomes.append(run_experiment(cfg))
            return outcomes[-1]

        monkeypatch.setattr(cli, "build_model", recording_build_model)
        monkeypatch.setattr(cli, "train", exploding_train)
        monkeypatch.setattr(cli, "run_experiment", recording_run_experiment)
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, f"""
data: {{n_rows: 60, seed: 42}}
optimizer: {{max_iterations: 1}}
selection: [QNN-7, QNN-1, QNN-2, QNN-3, QNN-8]
output: {{directory: "{out_dir}", run_id: mixed}}
parallelism: {degree}
""")
        assert main(["run", "--config", path]) == 4
        report = outcomes[0]
        assert [f.method_id for f in report.failures] == ["QNN-2", "QNN-8"]
        assert [m.method_id for m in report.methods] == ["QNN-7", "QNN-1", "QNN-3"]
        err = capsys.readouterr().err
        assert err.index("training: QNN-2 failed") < err.index("training: QNN-8 failed")
        for method_id in ("QNN-7", "QNN-1", "QNN-2", "QNN-3", "QNN-8"):
            error = out_dir / "mixed" / method_id / "error.txt"
            assert error.exists() == (method_id in failing), method_id

    def test_dropped_csv_rows_are_reported_on_stderr(self, tmp_path, capsys):
        csv_path = str(tmp_path / "data.csv")
        assert main(["gen-data", "--rows", "40", "--seed", "3", "--out", csv_path]) == 0
        with open(csv_path, "a", encoding="utf-8") as handle:
            handle.write("8.0,180.0,not-a-number,12.0,500.0\n")
        capsys.readouterr()
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, f"""
data: {{source: csv, csv_path: "{csv_path}"}}
selection: [ols]
output: {{directory: "{out_dir}", run_id: dirty}}
""")
        assert main(["run", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"data: dropped 1 of 41 rows from {csv_path} (missing, unparseable or "
            f"non-finite cells, or negative power)\n"
        )
        assert "dropped 1" not in captured.out
        assert captured.out.splitlines()[0].startswith("method ")

    def test_results_record_optimizer_status(self, tmp_path):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, SMALL_RUN % out_dir)
        assert main(["run", "--config", path]) == 0
        rows = read_rows(out_dir / "fixed" / "results.csv")
        assert [r["status"] for r in rows] == ["max_iterations", "", ""]
        markdown = (out_dir / "fixed" / "results.md").read_text(encoding="utf-8")
        assert "| Status |" in markdown and "| max_iterations |" in markdown

    def test_method_failure_exits_4_but_keeps_others(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, f"""
data: {{n_rows: 20, seed: 42}}
baselines: {{knn_k: 100}}
selection: [dt, knn, ols]
output: {{directory: "{out_dir}", run_id: partial}}
""")
        assert main(["run", "--config", path]) == 4
        captured = capsys.readouterr()
        assert "training: knn failed" in captured.err
        rows = read_rows(out_dir / "partial" / "results.csv")
        assert [r["config_id"] for r in rows] == ["dt", "ols"]

    def test_failed_method_keeps_its_traceback(self, tmp_path, capsys, monkeypatch):
        def exploding_fit_ols(*args, **kwargs):
            raise RuntimeError("singular design")

        monkeypatch.setattr(cli, "fit_ols", exploding_fit_ols)
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, f"""
data: {{n_rows: 20, seed: 42}}
selection: [dt, ols]
output: {{directory: "{out_dir}", run_id: broken}}
""")
        assert main(["run", "--config", path]) == 4
        assert "training: ols failed: RuntimeError: singular design" in capsys.readouterr().err
        error = (out_dir / "broken" / "ols" / "error.txt").read_text(encoding="utf-8")
        assert error.startswith("Traceback")
        assert "exploding_fit_ols" in error and "_train_method" in error
        assert not (out_dir / "broken" / "dt" / "error.txt").exists()

    def test_rerun_leaves_none_of_the_previous_runs_files(self, tmp_path):
        def files(run_dir):
            return {str(p.relative_to(run_dir)) for p in run_dir.rglob("*")}

        out_dir = tmp_path / "runs"
        run = f"""
data: {{n_rows: 20, seed: 42}}
optimizer: {{max_iterations: 1}}
output: {{directory: "{out_dir}", run_id: %s}}
parallelism: 1
"""
        # knn fails on 16 training rows with k = 100
        first = write_config(tmp_path, run % "again" + """
baselines: {knn_k: 100}
selection: [QNN-1, QNN-7, dt, knn, ols]
""", name="first.yaml")
        assert main(["run", "--config", first]) == 4
        run_dir = out_dir / "again"
        assert (run_dir / "knn" / "error.txt").exists()
        assert (run_dir / "QNN-7" / "trace.csv").exists() and (run_dir / "traces_zz.svg").exists()
        (run_dir / "notes.txt").write_text("kept", encoding="utf-8")
        (run_dir / "dt" / "notes.txt").write_text("kept", encoding="utf-8")

        selection = "selection: [QNN-1, dt, knn, ols]\n"
        second = write_config(tmp_path, run % "again" + selection, name="second.yaml")
        fresh = write_config(tmp_path, run % "fresh" + selection, name="fresh.yaml")
        assert main(["run", "--config", second]) == 0
        assert main(["run", "--config", fresh]) == 0
        assert not (run_dir / "knn" / "error.txt").exists()
        assert not (run_dir / "QNN-7").exists() and not (run_dir / "traces_zz.svg").exists()
        foreign = {"notes.txt", os.path.join("dt", "notes.txt")}
        assert files(run_dir) == files(out_dir / "fresh") | foreign


class TestReportCommand:
    def test_rerenders_deleted_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, SMALL_RUN % out_dir)
        main(["run", "--config", path])
        run_dir = out_dir / "fixed"
        markdown = (run_dir / "results.md").read_bytes()
        (run_dir / "results.md").unlink()
        (run_dir / "traces_z.svg").unlink()
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "results.md").read_bytes() == markdown
        assert (run_dir / "traces_z.svg").exists()
        assert "results.md" in capsys.readouterr().out

    def test_missing_run_dir_exits_3(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path / "nope")]) == 3
        assert capsys.readouterr().err.startswith("report:")

    def _run_dir(self, tmp_path):
        path = write_config(tmp_path, SMALL_RUN % (tmp_path / "runs"))
        assert main(["run", "--config", path]) == 0
        return tmp_path / "runs" / "fixed"

    def test_results_without_a_column_exits_3(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path)
        results = run_dir / "results.csv"
        rows = read_rows(results)
        with open(results, "w", newline="", encoding="utf-8") as handle:
            names = [n for n in rows[0] if n != "feature_map"]
            writer = csv.DictWriter(handle, names, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("report:") and "results.csv" in err and "feature_map" in err

    @pytest.mark.parametrize("name, column, cell", [
        ("results.csv", "r2", "nan"),
        (os.path.join("QNN-1", "trace.csv"), "objective", "inf"),
        (os.path.join("dt", "predictions.csv"), "predicted_kW", "-inf"),
    ])
    def test_non_finite_cell_exits_3(self, tmp_path, capsys, name, column, cell):
        run_dir = self._run_dir(tmp_path)
        rows = read_rows(run_dir / name)
        rows[1][column] = cell
        with open(run_dir / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("report:") and f"{name} line 3" in err and cell in err

    def test_unknown_method_id_exits_3(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path)
        results = run_dir / "results.csv"
        results.write_text(results.read_text(encoding="utf-8").replace("ols,", "lasso,"),
                           encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("report:") and "results.csv" in err and "lasso" in err

    def test_duplicated_method_row_exits_3(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path)
        results = run_dir / "results.csv"
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        results.write_text("".join(lines + lines[1:2]), encoding="utf-8")
        before = (run_dir / "results.md").read_bytes()
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 3
        err = capsys.readouterr().err
        method = lines[1].split(",")[0]
        assert err.startswith("report:") and f"results.csv line {len(lines) + 1}" in err
        assert f"method {method} is listed twice" in err
        assert (run_dir / "results.md").read_bytes() == before

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path)
        (run_dir / "results.md").unlink()
        (run_dir / "results.md").mkdir()
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("report:") and "results.md" in err
