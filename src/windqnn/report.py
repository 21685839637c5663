"""Run artifacts: results CSV, markdown comparison table, SVG plots.

Every artifact is deterministic text.  CSVs carry full-precision floats
(shortest round-trip representation); the markdown table rounds to two
decimals for display and includes per-method deltas against the embedded
reference results of the original wind-turbine benchmark.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .data import DataError
from .qnn import CONFIG_IDS, CONFIG_TABLE

BASELINE_IDS = ("dt", "knn", "ols")
METHOD_ORDER = CONFIG_IDS + BASELINE_IDS

BASELINE_NAMES = {
    "dt": "Decision Tree",
    "knn": "k-Nearest Neighbors",
    "ols": "Linear Regression",
}

# Published results of the original wind-turbine benchmark, used for the
# delta columns of results.md: method id -> (r2, mae_kw).
REFERENCE_RESULTS = {
    "QNN-1": (0.92, 136.50),
    "QNN-2": (0.93, 123.81),
    "QNN-3": (0.93, 119.71),
    "QNN-4": (0.92, 134.59),
    "QNN-5": (0.93, 119.05),
    "QNN-6": (0.92, 134.45),
    "QNN-7": (0.35, 446.02),
    "QNN-8": (0.34, 462.55),
    "QNN-9": (0.29, 478.16),
    "QNN-10": (0.33, 443.65),
    "QNN-11": (0.34, 462.29),
    "QNN-12": (0.34, 440.12),
    "dt": (0.91, 66.38),
    "knn": (0.92, 103.30),
    "ols": (0.88, 162.76),
}

RESULTS_COLUMNS = ("config_id", "feature_map", "ansatz", "r2", "mae", "wall_time_s",
                   "seed", "status")
TRACE_COLUMNS = ("iteration", "objective")
PREDICTION_COLUMNS = ("actual_kW", "predicted_kW")

# every file name of a run directory: at the top, and in a method's subdirectory
RUN_FILES = ("results.csv", "results.md", "traces_z.svg", "traces_zz.svg")
METHOD_FILES = ("trace.csv", "predictions.csv", "scatter.svg", "error.txt")

SVG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
)


@dataclass
class MethodResult:
    """One trained method's outcome plus everything needed to rebuild plots."""

    method_id: str
    feature_map: str  # "Z", "ZZ", or "" for classical baselines
    ansatz: str  # entanglement name, or the baseline slug
    r2: float
    mae: float
    wall_time_s: float
    seed: int
    status: str = ""  # the optimizer's stop status; empty for baselines
    trace: List[Tuple[int, float]] = field(default_factory=list)
    actual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    predicted: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.method_id in CONFIG_TABLE:
            family, entanglement = CONFIG_TABLE[self.method_id]
            if self.feature_map != family.upper() or self.ansatz != entanglement:
                raise ValueError(
                    f"{self.method_id} must carry feature_map {family.upper()!r} "
                    f"and ansatz {entanglement!r}, got "
                    f"{self.feature_map!r}/{self.ansatz!r}"
                )
        elif self.method_id not in BASELINE_IDS:
            raise ValueError(f"unknown method id {self.method_id!r}")

    @property
    def display_name(self) -> str:
        return BASELINE_NAMES.get(self.method_id, self.method_id)


class MethodFailure(NamedTuple):
    """A method that raised: the one-line ``Type: message`` for stderr and
    the full traceback for ``<run>/<method>/error.txt``."""

    method_id: str
    message: str
    traceback: str


@dataclass
class ExperimentReport:
    methods: List[MethodResult]
    failures: List[MethodFailure] = field(default_factory=list)

    def ordered(self) -> List[MethodResult]:
        return sorted(self.methods, key=lambda m: METHOD_ORDER.index(m.method_id))


def _fmt(value: float) -> str:
    # shortest representation that round-trips the exact float
    return repr(float(value))


def _finite(cell: str) -> float:
    # every float the program writes is finite, so any other is damage
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def _write_csv(path: str, columns: Sequence[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def write_results_csv(report: ExperimentReport, path: str) -> None:
    _write_csv(path, RESULTS_COLUMNS, (
        [m.method_id, m.feature_map, m.ansatz,
         _fmt(m.r2), _fmt(m.mae), _fmt(m.wall_time_s), str(m.seed), m.status]
        for m in report.ordered()
    ))


def _read_csv(path: str, columns: Sequence[str], parse) -> list:
    """parse(row) for every data row of a CSV artifact.

    A missing column, or a row that parse rejects (a bad or non-finite
    number, an unknown or repeated method id), raises DataError naming the
    file, and the line for a row.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}: missing column {missing[0]!r}")
        parsed = []
        for row in reader:
            try:
                parsed.append(parse(row))
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    return parsed


def read_results_csv(path: str) -> ExperimentReport:
    """Parse a results.csv back into a report (without traces/predictions).

    Files written before the status column existed read with empty status.
    """
    seen = set()

    def parse(row):
        if row["config_id"] in seen:
            raise ValueError(f"method {row['config_id']} is listed twice")
        seen.add(row["config_id"])
        return MethodResult(
            method_id=row["config_id"],
            feature_map=row["feature_map"],
            ansatz=row["ansatz"],
            r2=_finite(row["r2"]),
            mae=_finite(row["mae"]),
            wall_time_s=_finite(row["wall_time_s"]),
            seed=int(row["seed"]),
            status=row.get("status", ""),
        )

    return ExperimentReport(methods=_read_csv(
        path, [c for c in RESULTS_COLUMNS if c != "status"], parse))


def write_results_markdown(report: ExperimentReport, path: str) -> None:
    """Comparison table, quantum methods before classical, 2-decimal display."""
    lines = [
        "# Benchmark results",
        "",
        "| Group | Method | R^2 | MAE (kW) | Ref R^2 | Ref MAE | dR^2 | dMAE | Status |",
        "|---|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    for m in report.ordered():
        group = "Quantum" if m.method_id in CONFIG_TABLE else "Classical"
        ref_r2, ref_mae = REFERENCE_RESULTS[m.method_id]
        lines.append(
            f"| {group} | {m.display_name} | {m.r2:.2f} | {m.mae:.2f} "
            f"| {ref_r2:.2f} | {ref_mae:.2f} "
            f"| {m.r2 - ref_r2:+.2f} | {m.mae - ref_mae:+.2f} | {m.status} |"
        )
    lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def write_trace_csv(trace: Sequence[Tuple[int, float]], path: str) -> None:
    _write_csv(path, TRACE_COLUMNS, ([str(i), _fmt(v)] for i, v in trace))


def read_trace_csv(path: str) -> List[Tuple[int, float]]:
    return _read_csv(path, TRACE_COLUMNS,
                     lambda row: (int(row["iteration"]), _finite(row["objective"])))


def write_predictions_csv(actual, predicted, path: str) -> None:
    _write_csv(path, PREDICTION_COLUMNS, ([_fmt(a), _fmt(p)] for a, p in zip(actual, predicted)))


def read_predictions_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    pairs = _read_csv(path, PREDICTION_COLUMNS,
                      lambda row: (_finite(row["actual_kW"]), _finite(row["predicted_kW"])))
    return np.array([a for a, _ in pairs]), np.array([p for _, p in pairs])


# --- SVG rendering -----------------------------------------------------------

_W, _H = 640, 480
_MARGIN = 64


def _axis(lo: float, hi: float) -> Tuple[float, float]:
    if hi <= lo:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, lo + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _x_pix(v: float, lo: float, hi: float) -> float:
    return _MARGIN + (v - lo) / (hi - lo) * (_W - 2 * _MARGIN)


def _y_pix(v: float, lo: float, hi: float) -> float:
    return _H - _MARGIN - (v - lo) / (hi - lo) * (_H - 2 * _MARGIN)


def _write_svg(path: str, title: str, x_label: str, y_label: str, x_range, y_range,
               marks: Sequence[str]) -> None:
    """Write one plot: a titled white canvas, both axes with five labeled
    ticks over x_range and y_range, then marks, SVG elements in pixels."""
    x0, y0 = _MARGIN, _H - _MARGIN
    x1, y1 = _W - _MARGIN, _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{x_label}</text>',
        f'<text x="18" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(y0 + y1) // 2})">'
        f"{y_label}</text>",
    ]
    for i in range(5):
        fx = x_range[0] + (x_range[1] - x_range[0]) * i / 4
        fy = y_range[0] + (y_range[1] - y_range[0]) * i / 4
        px = _x_pix(fx, *x_range)
        py = _y_pix(fy, *y_range)
        parts += [
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>',
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" font-size="10" '
            f'font-family="sans-serif">{fx:.0f}</text>',
            f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>',
            f'<text x="{x0 - 8}" y="{py + 3:.2f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{fy:.0f}</text>',
        ]
    parts += marks
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))


def emit_scatter_svg(actual, predicted, path: str, title: str = "") -> None:
    """Actual-vs-predicted scatter with a y=x reference line, axes in kW."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.size == 0 or actual.shape != predicted.shape:
        raise ValueError("scatter needs equal-length non-empty series")
    lo = float(min(actual.min(), predicted.min()))
    hi = float(max(actual.max(), predicted.max()))
    x_range = y_range = _axis(lo, hi)
    rx0, ry0 = _x_pix(lo, *x_range), _y_pix(lo, *y_range)
    rx1, ry1 = _x_pix(hi, *x_range), _y_pix(hi, *y_range)
    marks = [
        f'<line x1="{rx0:.2f}" y1="{ry0:.2f}" x2="{rx1:.2f}" y2="{ry1:.2f}" '
        f'stroke="#888888" stroke-dasharray="4 3"/>'
    ]
    for a, p in zip(actual, predicted):
        marks.append(
            f'<circle cx="{_x_pix(a, *x_range):.2f}" cy="{_y_pix(p, *y_range):.2f}" '
            f'r="2" fill="#1f77b4" fill-opacity="0.6"/>'
        )
    _write_svg(path, title, "Actual power (kW)", "Predicted power (kW)", x_range, y_range,
               marks)


def emit_trace_svg(traces: Dict[str, Sequence[Tuple[int, float]]], path: str,
                   title: str = "") -> None:
    """Objective-vs-iteration polylines, one per labeled trace, with a legend."""
    if not traces or any(len(t) == 0 for t in traces.values()):
        raise ValueError("trace plot needs at least one non-empty trace")
    max_iter = max(it for t in traces.values() for it, _ in t)
    values = [v for t in traces.values() for _, v in t]
    x_range = _axis(0.0, float(max(max_iter, 1)))
    y_range = _axis(float(min(values)), float(max(values)))
    marks = []
    for i, (label, trace) in enumerate(traces.items()):
        color = SVG_PALETTE[i % len(SVG_PALETTE)]
        points = " ".join(
            f"{_x_pix(float(it), *x_range):.2f},{_y_pix(v, *y_range):.2f}"
            for it, v in trace
        )
        ly = _MARGIN + 14 * i
        marks += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>',
            f'<line x1="{_W - 150}" y1="{ly}" x2="{_W - 130}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{_W - 124}" y="{ly + 4}" font-size="11" '
            f'font-family="sans-serif">{label}</text>',
        ]
    _write_svg(path, title, "Iteration", "Objective", x_range, y_range, marks)


# --- run directory -----------------------------------------------------------

def _render(report: ExperimentReport, directory: str) -> List[str]:
    """Write results.md, the per-family trace plots and every method's
    scatter.svg from an in-memory report; returns the written paths."""
    path = os.path.join(directory, "results.md")
    write_results_markdown(report, path)
    written = [path]
    for family, suffix in (("Z", "traces_z.svg"), ("ZZ", "traces_zz.svg")):
        traces = {
            m.method_id: m.trace
            for m in report.ordered()
            if m.feature_map == family and m.trace
        }
        if traces:
            path = os.path.join(directory, suffix)
            emit_trace_svg(
                traces, path, title=f"{family} feature map: objective per iteration"
            )
            written.append(path)
    for m in report.ordered():
        if m.actual.size:
            path = os.path.join(directory, m.method_id, "scatter.svg")
            emit_scatter_svg(
                m.actual, m.predicted, path,
                title=f"{m.display_name}: actual vs predicted",
            )
            written.append(path)
    return written


def _clear(directory: str) -> None:
    """Delete each RUN_FILES and METHOD_FILES name an earlier run left in
    directory, then each method directory that is left empty."""
    method_dirs = [os.path.join(directory, m) for m in METHOD_ORDER]
    for path in [os.path.join(directory, n) for n in RUN_FILES] + [
            os.path.join(d, n) for d in method_dirs for n in METHOD_FILES]:
        if os.path.lexists(path):
            os.remove(path)
    for method_dir in method_dirs:
        if os.path.isdir(method_dir) and not os.listdir(method_dir):
            os.rmdir(method_dir)


def write_run_artifact(report: ExperimentReport, directory: str) -> List[str]:
    """Write the full artifact set; returns the written paths.

    Layout: results.csv and results.md at the top, traces_z.svg/traces_zz.svg
    for whichever feature-map families ran, then per method a subdirectory
    with trace.csv (iterative methods only), predictions.csv and scatter.svg,
    or error.txt with the traceback of each of report.failures.  Files an
    earlier run left under these names are deleted first; others stay.
    """
    os.makedirs(directory, exist_ok=True)
    try:
        _clear(directory)
        path = os.path.join(directory, "results.csv")
        write_results_csv(report, path)
        written = [path]
        for m in report.ordered():
            method_dir = os.path.join(directory, m.method_id)
            os.makedirs(method_dir, exist_ok=True)
            if m.trace:
                path = os.path.join(method_dir, "trace.csv")
                write_trace_csv(m.trace, path)
                written.append(path)
            if m.actual.size:
                path = os.path.join(method_dir, "predictions.csv")
                write_predictions_csv(m.actual, m.predicted, path)
                written.append(path)
        for failure in report.failures:
            path = os.path.join(directory, failure.method_id, "error.txt")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(failure.traceback)
            written.append(path)
        return written + _render(report, directory)
    except OSError as exc:
        raise OSError(f"failed writing run artifact under {directory}: {exc}") from exc


def render_from_artifacts(directory: str) -> List[str]:
    """Rebuild results.md and all SVGs from the CSV artifacts in a run directory.

    A malformed CSV raises DataError naming the file.
    """
    results_path = os.path.join(directory, "results.csv")
    if not os.path.exists(results_path):
        raise FileNotFoundError(f"no results.csv under {directory}")
    report = read_results_csv(results_path)
    for m in report.methods:
        method_dir = os.path.join(directory, m.method_id)
        trace_path = os.path.join(method_dir, "trace.csv")
        if os.path.exists(trace_path):
            m.trace = read_trace_csv(trace_path)
        pred_path = os.path.join(method_dir, "predictions.csv")
        if os.path.exists(pred_path):
            m.actual, m.predicted = read_predictions_csv(pred_path)
    return _render(report, directory)
