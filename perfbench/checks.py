"""Output checks for one repeat of a workload.

A method passes when
* it is listed in results.csv and has its predictions.csv (and, for a QNN,
  a trace.csv that is finite and never increases);
* the r2 and mae in results.csv match those recomputed from predictions.csv;
* r2 and mae lie within REFERENCE_TOLERANCE of the values recorded at the
  seed commit, when reference.json holds this workload and seed.
The results.csv of every repeat must equal the first repeat's byte for byte
once the live wall_time_s column is masked (acceptance criterion 9's rule);
a repeat that differs fails all its methods.
"""
from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Optional

import numpy as np

# Loose enough for reassociated float sums carried through a few L-BFGS
# iterations, tight enough to catch a wrong gradient or a changed split.
REFERENCE_TOLERANCE = {"r2_abs": 1e-6, "mae_rel": 1e-6}
_CONSISTENCY_REL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload: str, seed: int) -> Optional[Dict[str, List[float]]]:
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get("workloads", {}).get(workload, {}).get(str(seed))


def read_results(run_dir: str) -> List[dict]:
    with open(os.path.join(run_dir, "results.csv"), newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def masked_results(run_dir: str) -> bytes:
    """results.csv with the wall_time_s column blanked."""
    with open(os.path.join(run_dir, "results.csv"), newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    column = rows[0].index("wall_time_s")
    for row in rows[1:]:
        row[column] = ""
    return "\n".join(",".join(row) for row in rows).encode()


def _close(a: float, b: float, rel: float, floor: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def _r2_mae(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    actual, predicted = data[:, 0], data[:, 1]
    residual = actual - predicted
    total = float(np.sum((actual - actual.mean()) ** 2))
    return 1.0 - float(np.sum(residual**2)) / total, float(np.mean(np.abs(residual)))


def _trace_ok(path: str) -> bool:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    objective = data[:, 1]
    return bool(np.all(np.isfinite(objective)) and np.all(np.diff(objective) <= 0.0))


def check_method(run_dir: str, row: Optional[dict], method: str,
                 reference: Optional[Dict[str, List[float]]]) -> Optional[str]:
    """Return None when the method passes, else the reason it fails."""
    if row is None:
        return "missing from results.csv"
    method_dir = os.path.join(run_dir, method)
    predictions = os.path.join(method_dir, "predictions.csv")
    if not os.path.exists(predictions):
        return "predictions.csv missing"
    if method.startswith("QNN-"):
        trace = os.path.join(method_dir, "trace.csv")
        if not os.path.exists(trace) or not _trace_ok(trace):
            return "trace.csv missing, non-finite or increasing"
    r2, mae = float(row["r2"]), float(row["mae"])
    if not (math.isfinite(r2) and math.isfinite(mae)):
        return "non-finite r2 or mae"
    r2_file, mae_file = _r2_mae(predictions)
    if not (_close(r2, r2_file, _CONSISTENCY_REL, 1.0)
            and _close(mae, mae_file, _CONSISTENCY_REL)):
        return "results.csv disagrees with predictions.csv"
    if reference is not None:
        ref_r2, ref_mae = reference[method]
        if abs(r2 - ref_r2) > REFERENCE_TOLERANCE["r2_abs"]:
            return f"r2 {r2!r} differs from reference {ref_r2!r}"
        if not _close(mae, ref_mae, REFERENCE_TOLERANCE["mae_rel"]):
            return f"mae {mae!r} differs from reference {ref_mae!r}"
    return None


def check_repeat(run_dir: str, methods, reference, first_masked: Optional[bytes]) -> Dict[str, str]:
    """Check one repeat's run directory; returns {method: reason} for failures."""
    if not os.path.exists(os.path.join(run_dir, "results.csv")):
        return {m: "results.csv missing" for m in methods}
    rows = {row["config_id"]: row for row in read_results(run_dir)}
    failures = {}
    for method in methods:
        reason = check_method(run_dir, rows.get(method), method, reference)
        if reason is not None:
            failures[method] = reason
    if first_masked is not None and masked_results(run_dir) != first_masked:
        for method in methods:
            failures.setdefault(method, "results.csv differs from the first repeat")
    return failures
