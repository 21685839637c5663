"""Artifact tests: CSV schemas, markdown table, SVG structure, round trips."""
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from windqnn.data import DataError
from windqnn.qnn import CONFIG_IDS, CONFIG_TABLE
from windqnn.report import (
    BASELINE_IDS,
    REFERENCE_RESULTS,
    ExperimentReport,
    MethodFailure,
    MethodResult,
    emit_scatter_svg,
    emit_trace_svg,
    read_predictions_csv,
    read_results_csv,
    read_trace_csv,
    render_from_artifacts,
    write_predictions_csv,
    write_results_csv,
    write_results_markdown,
    write_run_artifact,
    write_trace_csv,
)

BASELINE_SLUGS = {"dt": "decision_tree", "knn": "k_nearest_neighbors", "ols": "linear_regression"}


def _full_report(n_points=8):
    rng = np.random.default_rng(201)
    methods = []
    for i, config_id in enumerate(CONFIG_IDS):
        family, entanglement = CONFIG_TABLE[config_id]
        actual = rng.uniform(0, 2031, size=n_points)
        methods.append(
            MethodResult(
                method_id=config_id,
                feature_map=family.upper(),
                ansatz=entanglement,
                r2=0.9 - 0.01 * i,
                mae=100.0 + i,
                wall_time_s=1.5 + i,
                seed=42,
                status="max_iterations" if i % 2 else "converged",
                trace=[(0, 1.0 + i), (1, 0.5 + i), (2, 0.25 + i)],
                actual=actual,
                predicted=actual + rng.normal(0, 50, size=n_points),
            )
        )
    for j, method_id in enumerate(BASELINE_IDS):
        actual = rng.uniform(0, 2031, size=n_points)
        methods.append(
            MethodResult(
                method_id=method_id,
                feature_map="",
                ansatz=BASELINE_SLUGS[method_id],
                r2=0.85 - 0.01 * j,
                mae=70.0 + j,
                wall_time_s=0.1,
                seed=42,
                actual=actual,
                predicted=actual,
            )
        )
    return ExperimentReport(methods=methods)


# --- results.csv -------------------------------------------------------------

def test_results_csv_has_fifteen_rows(tmp_path):
    path = str(tmp_path / "results.csv")
    write_results_csv(_full_report(), path)
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 16  # header + 15 methods
    assert lines[0] == "config_id,feature_map,ansatz,r2,mae,wall_time_s,seed,status"


def test_results_csv_qnn5_row(tmp_path):
    path = str(tmp_path / "results.csv")
    write_results_csv(_full_report(), path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    row = [l for l in lines if l.startswith("QNN-5,")][0]
    assert row.split(",")[1] == "Z"
    assert row.split(",")[2] == "reverse_linear"


def test_results_csv_byte_identical_rewrites(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_results_csv(_full_report(), a)
    write_results_csv(_full_report(), b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_results_csv_round_trips_exact_floats(tmp_path):
    report = _full_report()
    path = str(tmp_path / "results.csv")
    write_results_csv(report, path)
    loaded = read_results_csv(path)
    want = {m.method_id: m for m in report.methods}
    assert len(loaded.methods) == 15
    for m in loaded.methods:
        assert m.r2 == want[m.method_id].r2
        assert m.mae == want[m.method_id].mae
        assert m.wall_time_s == want[m.method_id].wall_time_s
        assert m.status == want[m.method_id].status


def test_results_csv_without_status_column_still_reads(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(
        "config_id,feature_map,ansatz,r2,mae,wall_time_s,seed\n"
        "QNN-1,Z,linear,0.5,200.0,1.25,42\n"
        "dt,,decision_tree,0.9,70.0,0.1,42\n",
        encoding="utf-8",
    )
    loaded = read_results_csv(str(path))
    assert [(m.method_id, m.status) for m in loaded.methods] == [("QNN-1", ""), ("dt", "")]
    assert loaded.methods[0].wall_time_s == 1.25


def test_method_result_validates_config_pairing():
    with pytest.raises(ValueError, match="QNN-5"):
        MethodResult(
            method_id="QNN-5", feature_map="ZZ", ansatz="reverse_linear",
            r2=0.9, mae=100.0, wall_time_s=1.0, seed=42,
        )
    with pytest.raises(ValueError, match="unknown method"):
        MethodResult(
            method_id="svm", feature_map="", ansatz="svm",
            r2=0.9, mae=100.0, wall_time_s=1.0, seed=42,
        )


# --- results.md --------------------------------------------------------------

def test_markdown_groups_quantum_before_classical(tmp_path):
    path = str(tmp_path / "results.md")
    write_results_markdown(_full_report(), path)
    text = Path(path).read_text(encoding="utf-8")
    assert text.index("Quantum") < text.index("Classical")
    assert text.index("QNN-12") < text.index("Decision Tree")
    assert "| 0.90 |" in text  # two-decimal display
    assert "Ref R^2" in text and "dMAE" in text


def test_markdown_reference_deltas(tmp_path):
    path = str(tmp_path / "results.md")
    write_results_markdown(_full_report(), path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    line = [l for l in lines if "QNN-1 " in l or "| QNN-1 |" in l][0]
    cells = [c.strip() for c in line.split("|")]
    ref_r2, ref_mae = REFERENCE_RESULTS["QNN-1"]
    assert cells[5] == f"{ref_r2:.2f}"
    assert cells[6] == f"{ref_mae:.2f}"
    assert cells[7] == f"{0.9 - ref_r2:+.2f}"


# --- per-method CSVs ----------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    trace = [(0, 0.75), (1, 0.5), (2, 0.1234567890123456)]
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    assert read_trace_csv(path) == trace


def test_predictions_csv_round_trip(tmp_path):
    rng = np.random.default_rng(203)
    actual = rng.uniform(0, 2031, size=20)
    predicted = rng.uniform(0, 2031, size=20)
    path = str(tmp_path / "predictions.csv")
    write_predictions_csv(actual, predicted, path)
    got_actual, got_predicted = read_predictions_csv(path)
    np.testing.assert_array_equal(got_actual, actual)
    np.testing.assert_array_equal(got_predicted, predicted)


# --- SVG ----------------------------------------------------------------------

def test_scatter_svg_perfect_predictor_on_reference_line(tmp_path):
    actual = np.linspace(100, 2000, 9)
    path = str(tmp_path / "scatter.svg")
    emit_scatter_svg(actual, actual, path)
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    lines = [e for e in root.iter(f"{ns}line") if e.get("stroke-dasharray")]
    assert len(lines) == 1
    x1, y1 = float(lines[0].get("x1")), float(lines[0].get("y1"))
    x2, y2 = float(lines[0].get("x2")), float(lines[0].get("y2"))
    slope = (y2 - y1) / (x2 - x1)
    for c in root.iter(f"{ns}circle"):
        cx, cy = float(c.get("cx")), float(c.get("cy"))
        assert cy == pytest.approx(y1 + slope * (cx - x1), abs=0.05)


def test_trace_svg_polylines_and_legend(tmp_path):
    traces = {
        f"QNN-{i}": [(0, 1.0 / i), (1, 0.5 / i), (2, 0.25 / i)] for i in range(1, 7)
    }
    path = str(tmp_path / "traces.svg")
    emit_trace_svg(traces, path, title="objective per iteration")
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = list(root.iter(f"{ns}polyline"))
    assert len(polylines) == 6
    labels = {e.text for e in root.iter(f"{ns}text")}
    for i in range(1, 7):
        assert f"QNN-{i}" in labels


def test_svg_emitters_reject_empty_series(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        emit_scatter_svg([], [], str(tmp_path / "x.svg"))
    with pytest.raises(ValueError, match="non-empty"):
        emit_trace_svg({}, str(tmp_path / "y.svg"))
    with pytest.raises(ValueError, match="non-empty"):
        emit_trace_svg({"QNN-1": []}, str(tmp_path / "z.svg"))


def test_svgs_are_well_formed_xml(tmp_path):
    rng = np.random.default_rng(207)
    scatter = str(tmp_path / "s.svg")
    emit_scatter_svg(rng.uniform(0, 10, 5), rng.uniform(0, 10, 5), scatter, title="t")
    ET.parse(scatter)
    trace = str(tmp_path / "t.svg")
    emit_trace_svg({"QNN-1": [(0, 1.0), (1, 0.5)]}, trace, title="t")
    ET.parse(trace)


# --- run directory -------------------------------------------------------------

def test_write_run_artifact_layout(tmp_path):
    run_dir = str(tmp_path / "run-1")
    written = write_run_artifact(_full_report(), run_dir)
    for name in ("results.csv", "results.md", "traces_z.svg", "traces_zz.svg"):
        assert os.path.exists(os.path.join(run_dir, name))
    for method_id in ("QNN-1", "QNN-12"):
        for name in ("trace.csv", "predictions.csv", "scatter.svg"):
            assert os.path.exists(os.path.join(run_dir, method_id, name))
    assert os.path.exists(os.path.join(run_dir, "dt", "predictions.csv"))
    assert not os.path.exists(os.path.join(run_dir, "dt", "trace.csv"))
    assert all(os.path.exists(p) for p in written)


def test_write_run_artifact_writes_failure_traceback(tmp_path):
    methods = [m for m in _full_report().methods if m.method_id != "knn"]
    failure = MethodFailure("knn", "ValueError: k = 100 exceeds 16 training rows",
                            "Traceback (most recent call last):\nValueError: k = 100\n")
    run_dir = tmp_path / "run-3"
    written = write_run_artifact(ExperimentReport(methods, [failure]), str(run_dir))
    error = run_dir / "knn" / "error.txt"
    assert error.read_text(encoding="utf-8") == failure.traceback
    assert str(error) in written
    assert sorted(p.name for p in (run_dir / "knn").iterdir()) == ["error.txt"]


def test_render_from_artifacts_rebuilds_outputs(tmp_path):
    run_dir = str(tmp_path / "run-2")
    write_run_artifact(_full_report(), run_dir)
    rendered = ["results.md", "traces_z.svg", "traces_zz.svg"] + [
        os.path.join(m.method_id, "scatter.svg") for m in _full_report().methods
    ]
    originals = {}
    for name in rendered:
        path = os.path.join(run_dir, name)
        originals[name] = Path(path).read_bytes()
        os.remove(path)
    render_from_artifacts(run_dir)
    for name in rendered:
        assert Path(run_dir, name).read_bytes() == originals[name], name


def test_bad_artifact_cell_names_file_and_line(tmp_path):
    path = tmp_path / "predictions.csv"
    path.write_text("actual_kW,predicted_kW\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"predictions\.csv line 3: .*'oops'"):
        read_predictions_csv(str(path))


def test_render_from_artifacts_requires_results(tmp_path):
    with pytest.raises(FileNotFoundError, match="results.csv"):
        render_from_artifacts(str(tmp_path))
