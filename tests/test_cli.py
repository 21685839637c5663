"""Tests for config parsing, the argparse surface, and the run pipeline."""
import csv
import os
import re
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from windqnn import __version__, cli, qnn, statevector
from windqnn.circuit import CircuitTemplate, feature_prefix_length
from windqnn.cli import ConfigError, load_config, main, run_experiment
from windqnn.data import (
    fit_scaler,
    invert_target,
    load_csv,
    scale_features,
    scale_target,
    split,
)
from windqnn.optimizer import OptimizerOptions
from windqnn.report import METHOD_ORDER, REFERENCE_RESULTS

from oracles import dense_suffix_observable, dense_template_matrix


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


# the faults that windqnn run and windqnn report print alike, after their own prefix
CSV_FAULTS = ("undecodable_byte", "oversized_field", "missing_column")


def faulty_csv(fault, header, row):
    """(a CSV file's bytes: header, row and then the fault, the text the
    fault message holds after the file's path)."""
    if fault == "missing_column":
        first = header.split(b",", 1)[0].decode()
        return header.split(b",", 1)[1] + row, f": missing column {first!r}"
    if fault == "undecodable_byte":
        return header + row + b"8.0,\xff\n", " line 3: not UTF-8 (invalid start byte)"
    return (header + row + b'"' + b"9" * 131073 + b'"\n',
            " line 3: field larger than field limit (131072)")


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

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"data: {n_rows: 80}\n# caf\xe9\n")
        with pytest.raises(ConfigError, match="is not UTF-8") as info:
            load_config(str(path))
        assert str(info.value).startswith(f"config {path} is not UTF-8 (")

    def test_shipped_config_is_the_builtin_default(self):
        shipped = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert load_config(str(shipped)) == cli.ExperimentConfig()

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
        ('data: {n_rows: "60"}', "data.n_rows"),
        ('split: {fraction: "0.8"}', "split.fraction"),
        ('optimizer: {max_iterations: "1_000"}', "optimizer.max_iterations"),
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

    @pytest.mark.parametrize("run_id", ["", ".", "..", "../up", "a/b", "/abs", "a" + os.sep])
    def test_a_run_id_that_is_not_one_directory_name_exits_2(self, tmp_path, capsys, run_id):
        # ".." would write results.md and results.csv beside runs/, not in it
        out_dir = tmp_path / "nest" / "runs"
        path = write_config(tmp_path, f'selection: [ols]\n'
                                      f'output: {{directory: "{out_dir}", run_id: "{run_id}"}}')
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and "output.run_id" in err
        assert not (tmp_path / "nest").exists()

    @pytest.mark.parametrize("section, key", [
        ('output: {directory: ""}', "output.directory"),
        ('output: {directory: "runs\\0"}', "output.directory"),
        ('output: {directory: runs, run_id: "a\\0b"}', "output.run_id"),
        ('data: {source: csv, csv_path: "rows\\0.csv"}', "data.csv_path"),
    ], ids=["empty-directory", "nul-directory", "nul-run-id", "nul-csv-path"])
    def test_a_path_key_no_path_can_hold_exits_2(self, tmp_path, monkeypatch, capsys,
                                                 section, key):
        # refused before training: no file or directory can be opened at
        # such a path, so the run would fail only after every method trained
        path = write_config(tmp_path, f"selection: [ols]\n{section}")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and key in err
        assert os.listdir(work) == [] and sorted(os.listdir(tmp_path)) == ["config.yaml", "work"]

    def test_the_working_directory_is_an_output_directory(self, tmp_path):
        cfg = load_config(write_config(tmp_path, 'output: {directory: "."}'))
        assert cfg.output_directory == "."

    @pytest.mark.parametrize("run_id", ["r000", "run-20250101-120000-2", "..a", ".hidden", "a b"])
    def test_a_single_directory_name_is_a_run_id(self, tmp_path, run_id):
        cfg = load_config(write_config(tmp_path, f'output: {{run_id: "{run_id}"}}'))
        assert cfg.run_id == run_id

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

    @pytest.mark.parametrize("chronological", [False, True])
    def test_constant_power_test_split_exits_3(self, tmp_path, capsys, monkeypatch,
                                               chronological):
        def no_training(*args, **kwargs):
            raise AssertionError("a method trained on an undefined metric")

        for name in ("build_model", "fit_cart", "fit_knn", "fit_ols"):
            monkeypatch.setattr(cli, name, no_training)
        out_dir = tmp_path / "runs"
        if chronological:  # the last 10 of 50 rows read 0 kW
            csv_path = tmp_path / "idle.csv"
            assert main(["gen-data", "--rows", "40", "--seed", "3", "--out", str(csv_path)]) == 0
            with open(csv_path, "a", encoding="utf-8") as handle:
                handle.writelines(f"{1.0 + 0.1 * i},{10.0 * i},1010.0,{5.0 + i},0.0\n"
                                  for i in range(10))
            data = (f"data: {{source: csv, csv_path: {csv_path}}}\n"
                    f"split: {{mode: chronological}}\n")
            reading = "0.0 kW (test rows: 10)"
        else:  # one test row
            data = "data: {n_rows: 10}\nsplit: {fraction: 0.9}\n"
            reading = "kW (test rows: 1)"
        path = write_config(tmp_path, data + f"output: {{directory: {out_dir}}}\n")
        capsys.readouterr()
        assert main(["run", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data: every test row reads ") and reading in err
        assert "so R^2 is undefined" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", ["directory_is_a_file", "directory_under_a_file",
                                      "run_id_is_a_file"])
    def test_an_output_that_cannot_be_a_directory_exits_3_before_training(
            self, tmp_path, capsys, monkeypatch, case):
        def no_training(*args, **kwargs):
            raise AssertionError("a method trained for a run that cannot be written")

        for name in ("build_model", "fit_cart", "fit_knn", "fit_ols"):
            monkeypatch.setattr(cli, name, no_training)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n", encoding="utf-8")
        output = {"directory_is_a_file": f"{{directory: {blocker}}}",
                  "directory_under_a_file": f"{{directory: {blocker / 'runs'}, run_id: x}}",
                  "run_id_is_a_file": f"{{directory: {tmp_path}, run_id: blocker}}"}[case]
        path = write_config(tmp_path, f"data: {{n_rows: 60}}\noutput: {output}\n")
        assert main(["run", "--config", path]) == 3
        assert capsys.readouterr().err == f"report: {blocker} is not a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["blocker", "config.yaml"]
        assert blocker.read_text(encoding="utf-8") == "a regular file\n"

    @pytest.mark.parametrize("fault", CSV_FAULTS)
    def test_unreadable_csv_exits_3(self, tmp_path, capsys, fault):
        csv_path = tmp_path / "bad.csv"
        body, text = faulty_csv(fault, b"wind_speed,wind_direction,pressure,temperature,power\n",
                                b"8.0,180.0,1013.0,12.0,500.0\n")
        csv_path.write_bytes(body)
        path = write_config(tmp_path, f"data: {{source: csv, csv_path: {csv_path}}}")
        assert main(["run", "--config", path]) == 3
        assert capsys.readouterr().err == f"data: {csv_path}{text}\n"

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
        lines = out.splitlines()
        header = ("method   feature_map  ansatz               "
                  "      r2     mae_kW  wall_ms     dR2      dMAE")
        assert lines[:2] == [header, "-" * len(header)]
        # the header's column widths, one space between; text flush left,
        # numbers flush right
        layout = re.compile(r"(.{8}) (.{12}) (.{20}) (.{8}) (.{10}) (.{8}) (.{7}) (.{9})")
        for line, row in zip(lines[2:5], rows, strict=True):
            cells = layout.fullmatch(line).groups()
            assert all(c == c.strip().ljust(len(c)) for c in cells[:3])
            assert all(c == c.strip().rjust(len(c)) for c in cells[3:])
            method, family, ansatz, r2, mae, wall, dr2, dmae = (c.strip() for c in cells)
            assert [method, family, ansatz] == [row["config_id"], row["feature_map"],
                                                row["ansatz"]]
            assert r2 == f"{float(row['r2']):.4f}" and mae == f"{float(row['mae']):.2f}"
            assert wall == f"{float(row['wall_time_s']) * 1e3:.1f}"
            ref_r2, ref_mae = REFERENCE_RESULTS[method]
            assert dr2[0] in "+-" and dmae[0] in "+-"
            assert abs(float(dr2) - (float(row["r2"]) - ref_r2)) <= 0.005
            assert abs(float(dmae) - (float(row["mae"]) - ref_mae)) <= 0.005
        assert lines[5:] == ["", f"artifacts: {run_dir}"]

    def test_default_run_id_is_the_utc_clock(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, f"""
data: {{n_rows: 80, seed: 42}}
selection: [ols]
output: {{directory: "{out_dir}"}}
""")
        # five hours ahead of UTC, so a local-time id would differ
        monkeypatch.setenv("TZ", "XYZ-5")
        time.tzset()
        try:
            before = time.strftime("run-%Y%m%d-%H%M%S", time.gmtime())
            assert main(["run", "--config", path]) == 0
            after = time.strftime("run-%Y%m%d-%H%M%S", time.gmtime())
        finally:
            monkeypatch.undo()
            time.tzset()
        (run_id,) = os.listdir(out_dir)
        assert re.fullmatch(r"run-\d{8}-\d{6}", run_id)
        assert before <= run_id <= after

    def test_runs_in_the_same_second_get_their_own_directories(self, tmp_path, monkeypatch,
                                                                capsys):
        # the later run silently replaced the earlier one's artifacts
        out_dir = tmp_path / "runs"
        paths = [write_config(tmp_path, f"""
data: {{n_rows: 80, seed: 42}}
selection: [{method}]
output: {{directory: "{out_dir}"}}
""", name=f"{method}.yaml") for method in ("ols", "knn", "dt")]
        frozen = time.gmtime(1767225600)  # 2026-01-01 00:00:00 UTC
        monkeypatch.setattr(time, "gmtime", lambda *seconds: frozen)
        for path in paths:
            assert main(["run", "--config", path]) == 0
        run_ids = ["run-20260101-000000", "run-20260101-000000-2", "run-20260101-000000-3"]
        assert sorted(os.listdir(out_dir)) == run_ids
        for run_id, method in zip(run_ids, ("ols", "knn", "dt")):
            rows = read_rows(out_dir / run_id / "results.csv")
            assert [row["config_id"] for row in rows] == [method]
            assert os.path.isfile(out_dir / run_id / method / "predictions.csv")
        printed = re.findall(r"artifacts: (\S+)", capsys.readouterr().out)
        assert printed == [str(out_dir / run_id) for run_id in run_ids]

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

    def test_each_map_encodes_after_its_first_model_is_built(self, tmp_path, monkeypatch):
        calls = []
        build_model, encode = cli.build_model, cli.encode

        def recording_build_model(method_id, **kwargs):
            calls.append(method_id)
            return build_model(method_id, **kwargs)

        def recording_encode(template, features):
            calls.append(f"encode {features.shape[0]}")
            return encode(template, features)

        monkeypatch.setattr(cli, "build_model", recording_build_model)
        monkeypatch.setattr(cli, "encode", recording_encode)
        cfg = load_config(write_config(tmp_path, """
data: {n_rows: 60, seed: 42}
optimizer: {max_iterations: 1}
selection: [QNN-1, QNN-2, QNN-7, dt]
parallelism: 1
"""))
        assert run_experiment(cfg).failures == []
        # train rows, then test rows, once per map and after its first build
        assert calls == ["QNN-1", "encode 48", "encode 12", "QNN-2",
                         "QNN-7", "encode 48", "encode 12"]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_failed_encoding_fails_every_qnn_of_its_map(self, tmp_path, capsys, monkeypatch,
                                                         degree):
        build_model, encode = cli.build_model, cli.encode
        families = {}

        def recording_build_model(method_id, **kwargs):
            model = build_model(method_id, **kwargs)
            families[id(model.template)] = qnn.CONFIG_TABLE[method_id][0]
            return model

        def exploding_encode(template, features):
            if families[id(template)] == "zz":
                raise RuntimeError("ZZ prefix diverged")
            return encode(template, features)

        monkeypatch.setattr(cli, "build_model", recording_build_model)
        monkeypatch.setattr(cli, "encode", exploding_encode)
        out_dir = tmp_path / "runs"
        path = write_config(tmp_path, f"""
data: {{n_rows: 60, seed: 42}}
optimizer: {{max_iterations: 1}}
selection: [QNN-7, QNN-1, dt, QNN-8, ols]
output: {{directory: "{out_dir}", run_id: unencoded}}
parallelism: {degree}
""")
        assert main(["run", "--config", path]) == 4
        err = capsys.readouterr().err
        for method_id in ("QNN-7", "QNN-8"):
            assert f"training: {method_id} failed: RuntimeError: ZZ prefix diverged" in err
            error = (out_dir / "unencoded" / method_id / "error.txt").read_text(encoding="utf-8")
            assert error.startswith("Traceback") and "exploding_encode" in error
        rows = read_rows(out_dir / "unencoded" / "results.csv")
        assert [r["config_id"] for r in rows] == ["QNN-1", "dt", "ols"]

    @pytest.mark.parametrize("degree", [1, 2])
    def test_a_failed_build_fails_only_its_qnn(self, tmp_path, monkeypatch, degree):
        build_model = cli.build_model

        def exploding_build_model(method_id, **kwargs):
            if method_id == "QNN-7":
                raise RuntimeError("QNN-7 cannot be built")
            return build_model(method_id, **kwargs)

        reports = {}
        for failing in (False, True):
            if failing:
                monkeypatch.setattr(cli, "build_model", exploding_build_model)
            cfg = load_config(write_config(tmp_path, f"""
data: {{n_rows: 60, seed: 42}}
optimizer: {{max_iterations: 1}}
selection: [{"QNN-7, " if failing else ""}QNN-1, QNN-8, QNN-9, dt]
parallelism: {degree}
"""))
            reports[failing] = run_experiment(cfg)
        report = reports[True]
        assert [(f.method_id, f.message) for f in report.failures] == [
            ("QNN-7", "RuntimeError: QNN-7 cannot be built")]
        # the ZZ map is encoded from QNN-8, the first of its QNNs that built
        assert reports[False].failures == []
        for alone, after in zip(reports[False].ordered(), report.ordered(), strict=True):
            assert alone.method_id == after.method_id and alone.r2 == after.r2
            assert np.array_equal(alone.predicted, after.predicted)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_a_failed_test_row_encoding_fails_only_its_qnn(self, tmp_path, monkeypatch,
                                                           degree):
        encoded = []
        encode = cli.encode

        def flaky_encode(template, features):
            encoded.append(features.shape[0])
            if len(encoded) == 2:  # QNN-1's test rows, after its Gram form was made
                raise RuntimeError("test rows diverged")
            return encode(template, features)

        monkeypatch.setattr(cli, "encode", flaky_encode)
        cfg = load_config(write_config(tmp_path, f"""
data: {{n_rows: 60, seed: 42}}
optimizer: {{max_iterations: 1}}
selection: [QNN-1, QNN-2, dt, QNN-3]
parallelism: {degree}
"""))
        report = run_experiment(cfg)
        assert [(f.method_id, f.message) for f in report.failures] == [
            ("QNN-1", "RuntimeError: test rows diverged")]
        assert [m.method_id for m in report.methods] == ["QNN-2", "dt", "QNN-3"]
        # QNN-2 encodes the map afresh, training rows first, and QNN-3 keeps that
        assert encoded == [48, 12, 48, 12]

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


class TestTrainingReuse:
    """A QNN whose blocks, slots and initial parameters match an earlier
    QNN of its group takes that QNN's training: QNN-5 of QNN-2, QNN-11 of
    QNN-8."""

    CONFIG = """
data: {{n_rows: 60, seed: 42}}
optimizer: {{max_iterations: 2}}
selection: [{selection}]
parallelism: {degree}
"""

    @staticmethod
    def _spy(monkeypatch, failing=()):
        """The config id of each model that trains, in order, and each
        model's fitted parameters by config id; a model whose id is in
        failing raises instead of training."""
        build_model, train, with_parameters = cli.build_model, cli.train, cli.with_parameters
        built, trained, fitted = {}, [], {}

        def recording_build_model(method_id, **kwargs):
            model = build_model(method_id, **kwargs)
            built[id(model)] = method_id
            return model

        def recording_train(model, *args, **kwargs):
            trained.append(built[id(model)])
            if trained[-1] in failing:
                raise RuntimeError(f"{trained[-1]} diverged")
            return train(model, *args, **kwargs)

        def recording_with_parameters(model, parameters):
            fitted[built[id(model)]] = parameters
            return with_parameters(model, parameters)

        monkeypatch.setattr(cli, "build_model", recording_build_model)
        monkeypatch.setattr(cli, "train", recording_train)
        monkeypatch.setattr(cli, "with_parameters", recording_with_parameters)
        return trained, fitted

    @staticmethod
    def _direct(cfg, method_id):
        """(best point, trace, status, kW predictions) of method_id trained
        on its own, outside the group runner."""
        dataset, _ = cli._load_dataset(cfg)
        train_set, test_set = split(dataset, cfg.split_fraction,
                                    mode=cfg.split_mode, seed=cfg.split_seed)
        scaling = fit_scaler(train_set)
        model = qnn.build_model(method_id, init_seed=cfg.init_seed)
        gram = qnn.gram_form(qnn.encode(model.template, scale_features(scaling, train_set.features)),
                             scale_target(scaling, train_set.power))
        result = qnn.train(model, gram, cfg.optimizer)
        fitted = qnn.with_parameters(model, result.best_point)
        predicted = invert_target(scaling, qnn.predict_scaled(
            fitted, scale_features(scaling, test_set.features)))
        return result.best_point, result.trace, result.status, predicted

    @pytest.mark.parametrize("degree", [1, 2])
    def test_the_twelve_configs_train_ten_times(self, tmp_path, monkeypatch, degree):
        trained, _ = self._spy(monkeypatch)
        cfg = load_config(write_config(tmp_path, self.CONFIG.format(
            selection=", ".join(qnn.CONFIG_IDS), degree=degree)))
        report = run_experiment(cfg)
        assert report.failures == [] and len(report.methods) == 12
        assert sorted(trained) == sorted(set(qnn.CONFIG_IDS) - {"QNN-5", "QNN-11"})

    def test_a_reused_training_matches_its_own_bit_for_bit(self, tmp_path, monkeypatch):
        trained, fitted = self._spy(monkeypatch)
        cfg = load_config(write_config(tmp_path, self.CONFIG.format(
            selection="QNN-2, QNN-5, QNN-8, QNN-11", degree=1)))
        report = run_experiment(cfg)
        assert trained == ["QNN-2", "QNN-8"]
        assert [m.method_id for m in report.methods] == ["QNN-2", "QNN-5", "QNN-8", "QNN-11"]
        for method in report.methods[1::2]:
            best_point, trace, status, predicted = self._direct(cfg, method.method_id)
            assert np.array_equal(fitted[method.method_id], best_point)
            assert method.trace == trace and method.status == status
            assert np.array_equal(method.predicted, predicted)

    def test_a_training_that_raised_is_not_reused(self, tmp_path, monkeypatch):
        trained, fitted = self._spy(monkeypatch, failing={"QNN-2"})
        cfg = load_config(write_config(tmp_path, self.CONFIG.format(
            selection="QNN-2, QNN-5", degree=1)))
        report = run_experiment(cfg)
        assert trained == ["QNN-2", "QNN-5"]
        assert [f.method_id for f in report.failures] == ["QNN-2"]
        (method,) = report.methods
        best_point, trace, status, predicted = self._direct(cfg, "QNN-5")
        assert np.array_equal(fitted["QNN-5"], best_point)
        assert method.method_id == "QNN-5" and method.trace == trace
        assert method.status == status and np.array_equal(method.predicted, predicted)


class TestWholeRun:
    """All 15 methods on the cached fast path, against the run's own variants
    and the dense oracles: the module caches (``_run_matrix``,
    ``_compile_prefix``, ``_triangle``, ``_parity_signs``), the read-only
    arrays the pool's threads share and ``same_training``'s reuse."""

    CFG = cli.ExperimentConfig(n_rows=200, optimizer=OptimizerOptions(max_iterations=3),
                               parallelism=1)
    CACHES = (qnn._run_matrix, qnn._compile_prefix, qnn._triangle, statevector._parity_signs)
    # the largest deviations from the dense oracles, measured over data seeds
    # 0-9 of this config, were 3.3e-16 (training loss) and 3.6e-12 kW (test
    # predictions); the bounds leave about ten times that
    LOSS_TOLERANCE, KW_TOLERANCE = 4e-15, 4e-11

    @staticmethod
    def _spy(monkeypatch):
        """run(cfg) -> (r2, mae, status, trace and prediction bytes of each
        method, the (model, parameters) each QNN predicts with, the results
        that trained, the run's scaled data)."""
        train, with_parameters, run_group = cli.train, cli.with_parameters, cli._run_group
        results, fitted, bundles = [], {}, []
        templates = {qnn.build_model(c).template: c for c in qnn.CONFIG_IDS}

        def recording_train(*args):
            results.append(train(*args))
            return results[-1]

        def recording_with_parameters(model, parameters):
            fitted[templates[model.template]] = model, parameters
            return with_parameters(model, parameters)

        def recording_run_group(method_ids, cfg, bundle):
            bundles.append(bundle)
            return run_group(method_ids, cfg, bundle)

        monkeypatch.setattr(cli, "train", recording_train)
        monkeypatch.setattr(cli, "with_parameters", recording_with_parameters)
        monkeypatch.setattr(cli, "_run_group", recording_run_group)

        def run(cfg):
            results.clear(), fitted.clear(), bundles.clear()
            report = run_experiment(cfg)
            assert report.failures == [] and len(report.methods) == len(cfg.selection)
            facts = {m.method_id: (m.r2, m.mae, m.status, m.trace, m.predicted.tobytes())
                     for m in report.methods}
            return facts, dict(fitted), list(results), bundles[0]
        return run

    def _clear_caches(self):
        for cache in self.CACHES:
            cache.cache_clear()

    def test_every_variant_matches_and_every_qnn_meets_the_dense_oracles(self, monkeypatch):
        run = self._spy(monkeypatch)
        facts, fitted, results, bundle = run(self.CFG)
        # QNN-5 and QNN-11 take the results of QNN-2 and QNN-8
        assert len(results) == 10 and fitted["QNN-5"][1] is fitted["QNN-2"][1]

        assert run(replace(self.CFG, parallelism=2))[0] == facts
        self._clear_caches()
        assert run(self.CFG)[0] == facts
        self._clear_caches()
        run_experiment(replace(self.CFG, selection=qnn.CONFIG_IDS[6:]))  # the ZZ map first
        assert run(self.CFG)[0] == facts
        reverse = replace(self.CFG, selection=qnn.CONFIG_IDS[::-1] + ("dt", "knn", "ols"))
        reverse_facts, reverse_fitted, reverse_results, _ = run(reverse)
        assert reverse_facts == facts and len(reverse_results) == 10
        assert reverse_fitted["QNN-2"][1] is reverse_fitted["QNN-5"][1]

        scaling, x_train, y_train, _, x_test, _ = bundle
        states = {}  # prefix -> dense states of the training and test rows
        for method_id in qnn.CONFIG_IDS:
            model, point = fitted[method_id]
            (result,) = [r for r in results if r.best_point is point]
            split_at = feature_prefix_length(model.template)
            prefix = CircuitTemplate(4, model.template.gates[:split_at], n_feature_slots=4)
            suffix = CircuitTemplate(4, model.template.gates[split_at:],
                                     n_parameter_slots=model.template.n_parameter_slots)
            if prefix not in states:
                states[prefix] = [np.array([dense_template_matrix(prefix, x, np.zeros(0))[:, 0]
                                            for x in rows]) for rows in (x_train, x_test)]
            observable = dense_suffix_observable(suffix, point)
            train_readout, test_readout = (np.einsum("si,ij,sj->s", psi.conj(), observable,
                                                     psi).real for psi in states[prefix])
            loss = np.mean((train_readout - y_train) ** 2)
            assert abs(result.best_value - loss) <= self.LOSS_TOLERANCE, method_id
            predicted = np.frombuffer(facts[method_id][4])
            np.testing.assert_allclose(predicted, invert_target(scaling, test_readout),
                                       rtol=0, atol=self.KW_TOLERANCE, err_msg=method_id)


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

    def test_reads_a_results_csv_that_starts_with_a_byte_order_mark(self, tmp_path):
        # as Excel's "CSV UTF-8" export writes it
        run_dir = self._run_dir(tmp_path)
        markdown = (run_dir / "results.md").read_bytes()
        results = run_dir / "results.csv"
        results.write_bytes(b"\xef\xbb\xbf" + results.read_bytes())
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "results.md").read_bytes() == markdown

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

    @pytest.mark.parametrize("name", [
        "results.csv", os.path.join("QNN-1", "trace.csv"), os.path.join("dt", "predictions.csv"),
    ])
    @pytest.mark.parametrize("fault", CSV_FAULTS)
    def test_unreadable_csv_exits_3(self, tmp_path, capsys, name, fault):
        run_dir = self._run_dir(tmp_path)
        header, row = (run_dir / name).read_bytes().splitlines(keepends=True)[:2]
        body, text = faulty_csv(fault, header, row)
        (run_dir / name).write_bytes(body)
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 3
        assert capsys.readouterr().err == f"report: {run_dir / name}{text}\n"

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


def test_importing_the_cli_loads_no_yaml():
    # only load_config needs PyYAML; report, gen-data and inspect-circuit never do
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, windqnn.cli; print('yaml' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


_THREAD_PROBE = """
import os
import windqnn.cli
import numpy as np
np.ones((136, 4000)) @ np.ones((4000, 136))
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
class TestThreads:
    """The method pool is the only source of parallel threads: BLAS runs on one."""

    @staticmethod
    def _probe(openblas_threads=None):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        threads, value = done.stdout.split()
        return int(threads), value

    def test_a_blas_product_starts_no_thread(self):
        # a product this large runs threaded in OpenBLAS when it may
        assert self._probe() == (1, "1")

    def test_the_users_setting_is_kept(self):
        assert self._probe("2")[1] == "2"

    def test_the_suite_process_runs_one_thread(self):
        # tests/conftest.py imports windqnn before any test module loads numpy
        np.ones((136, 4000)) @ np.ones((4000, 136))
        assert len(os.listdir("/proc/self/task")) == 1
