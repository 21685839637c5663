"""Acceptance gate: nine library-level criteria, one pass/fail line each.

Criteria 6, 7, 8 and 9 share two full-scale benchmark runs (4,464 synthetic
rows, all 15 methods, 25 optimizer iterations) executed once per session
through the real CLI entry point.
"""
import csv
import os
import time

import numpy as np
import pytest

from oracles import dense_template_matrix
from windqnn.baselines import (
    fit_cart,
    fit_knn,
    fit_ols,
    predict_cart,
    predict_knn,
)
from windqnn.circuit import (
    CircuitTemplate,
    ConstAngle,
    GateSpec,
    build_z_feature_map,
    evaluate,
    simulate,
)
from windqnn.cli import main
from windqnn.evaluate import mae, r2
from windqnn.optimizer import OptimizerOptions, minimize
from windqnn.qnn import (
    CONFIG_IDS,
    build_model,
    gradient_parameter_shift,
    loss_mse,
    predict_scaled,
    with_parameters,
)
from windqnn.report import read_trace_csv

Z_CONFIGS = CONFIG_IDS[:6]
ZZ_CONFIGS = CONFIG_IDS[6:]


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def random_circuit(rng: np.random.Generator) -> CircuitTemplate:
    n_qubits = int(rng.integers(1, 5))
    kinds = ["H", "P", "RY"] + (["CX"] if n_qubits >= 2 else [])
    gates = []
    for _ in range(int(rng.integers(1, 61))):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "CX":
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(GateSpec("CX", (int(control), int(target))))
        else:
            qubit = int(rng.integers(n_qubits))
            angle = None
            if kind in ("P", "RY"):
                angle = ConstAngle(float(rng.uniform(-2 * np.pi, 2 * np.pi)))
            gates.append(GateSpec(kind, (qubit,), angle))
    return CircuitTemplate(n_qubits=n_qubits, gates=tuple(gates))


def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(1)
    empty = np.zeros(0)
    started = time.perf_counter()
    max_amp_err = 0.0
    max_norm_err = 0.0
    for _ in range(500):
        template = random_circuit(rng)
        state = simulate(template, empty, empty)
        matrix = dense_template_matrix(template, empty, empty)
        expected = matrix[:, 0]
        max_amp_err = max(max_amp_err, float(np.abs(state - expected).max()))
        max_norm_err = max(max_norm_err, abs(np.linalg.norm(state) - 1.0))
    elapsed = time.perf_counter() - started
    ok = max_amp_err <= 1e-12 and max_norm_err <= 1e-10 and elapsed < 10.0
    verdict(1, "kernel oracle equivalence", ok,
            f"500 circuits, amp err {max_amp_err:.2e}, norm err {max_norm_err:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(2)
    step = 1e-6
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        config_id = CONFIG_IDS[int(rng.integers(len(CONFIG_IDS)))]
        model = build_model(config_id)
        params = rng.uniform(-np.pi, np.pi, model.template.n_parameter_slots)
        model = with_parameters(model, params)
        features = rng.uniform(0.0, np.pi, (8, 4))
        targets = rng.uniform(-1.0, 1.0, 8)
        analytic = gradient_parameter_shift(model, features, targets)
        central = np.zeros_like(params)
        for k in range(params.size):
            plus = params.copy()
            plus[k] += step
            minus = params.copy()
            minus[k] -= step
            central[k] = (
                loss_mse(with_parameters(model, plus), features, targets)
                - loss_mse(with_parameters(model, minus), features, targets)
            ) / (2 * step)
        worst = max(worst, float(np.abs(analytic - central).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    verdict(2, "gradient check", ok,
            f"100 draws, max infinity-norm gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_optimizer_benchmarks():
    # A three-iteration bound is only attainable for well-conditioned
    # quadratics; anisotropic ones are covered by the full-memory d+1
    # property in the optimizer unit suite.
    rng = np.random.default_rng(3)
    solution = rng.normal(size=6)

    def quad(x):
        return float((x - solution) @ (x - solution))

    def quad_grad(x):
        return 2.0 * (x - solution)

    result = minimize(quad, quad_grad, np.zeros(6))
    quad_ok = (
        len(result.trace) - 1 <= 3
        and float(np.abs(result.best_point - solution).max()) <= 1e-8
    )

    def rosenbrock(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def rosenbrock_grad(x):
        return np.array([
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ])

    start = np.array([-1.2, 1.0])
    long_run = minimize(
        rosenbrock, rosenbrock_grad, start,
        OptimizerOptions(max_iterations=200, gradient_tolerance=1e-10),
    )
    rosen_ok = float(np.linalg.norm(long_run.best_point - 1.0)) < 1e-6

    capped = minimize(rosenbrock, rosenbrock_grad, start)
    values = [value for _, value in capped.trace]
    cap_ok = len(capped.trace) <= 26 and all(
        later <= earlier for earlier, later in zip(values, values[1:])
    )

    verdict(3, "optimizer benchmarks", quad_ok and rosen_ok and cap_ok,
            f"quadratic iters {len(result.trace) - 1}, rosenbrock gap "
            f"{np.linalg.norm(long_run.best_point - 1.0):.1e}, "
            f"capped trace {len(capped.trace)}")


def test_criterion_4_baseline_sanity():
    rng = np.random.default_rng(4)
    features = rng.uniform(size=(40, 4))
    coefficients = np.array([3.0, -1.5, 0.25, 2.0])
    linear_targets = features @ coefficients + 0.75
    ols = fit_ols(features, linear_targets)
    ols_ok = (
        float(np.abs(ols.coefficients - coefficients).max()) <= 1e-10
        and abs(ols.intercept - 0.75) <= 1e-10
    )

    distinct = rng.permutation(40).astype(float).reshape(-1, 1)
    tree_targets = rng.normal(size=40)
    tree = fit_cart(distinct, tree_targets)
    tree_ok = r2(tree_targets, predict_cart(tree, distinct)) == 1.0

    knn = fit_knn(features, linear_targets, k=1)
    knn_ok = mae(linear_targets, predict_knn(knn, features)) == 0.0

    verdict(4, "baseline sanity", ols_ok and tree_ok and knn_ok,
            "OLS exact, CART train R2=1, kNN k=1 train MAE=0")


def test_criterion_5_closed_form_circuit_values():
    model = build_model("QNN-1")
    zeroed = with_parameters(model, np.zeros(16))
    at_origin = float(predict_scaled(zeroed, np.zeros(4)))
    origin_ok = abs(at_origin - 1.0) <= 1e-12

    template = build_z_feature_map(1, 1)
    rng = np.random.default_rng(5)
    worst = max(
        abs(evaluate(template, np.array([x]), np.zeros(0)))
        for x in rng.uniform(0.0, np.pi, 20)
    )
    single_ok = worst <= 1e-12

    verdict(5, "closed-form circuit values", origin_ok and single_ok,
            f"origin prediction {at_origin:+.1e}, single-qubit residual {worst:.1e}")


CONFIG_TEMPLATE = """
data: {{source: synthetic, n_rows: 4464, seed: 42}}
split: {{fraction: 0.8, mode: shuffled, seed: 42}}
optimizer: {{max_iterations: 25}}
output: {{directory: "{directory}", run_id: "{run_id}"}}
parallelism: {parallelism}
"""


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Two consecutive full-scale CLI runs: degree 4 then degree 1."""
    root = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for run_id, degree in (("a", 4), ("b", 1)):
        config_path = root / f"{run_id}.yaml"
        config_path.write_text(
            CONFIG_TEMPLATE.format(directory=root / "runs", run_id=run_id,
                                   parallelism=degree),
            encoding="utf-8",
        )
        started = time.perf_counter()
        exit_code = main(["run", "--config", str(config_path)])
        runs[run_id] = {
            "dir": root / "runs" / run_id,
            "exit": exit_code,
            "elapsed": time.perf_counter() - started,
        }
    return runs


def read_results(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.slow
def test_criterion_6_end_to_end_desk_scale(full_runs):
    run = full_runs["a"]
    run_dir = run["dir"]
    artifacts_ok = all(
        (run_dir / name).exists()
        for name in ("results.csv", "results.md", "traces_z.svg", "traces_zz.svg")
    )
    rows = read_results(run_dir / "results.csv")
    methods_ok = len(rows) == 15
    for row in rows:
        method_dir = run_dir / row["config_id"]
        artifacts_ok &= (method_dir / "predictions.csv").exists()
        artifacts_ok &= (method_dir / "scatter.svg").exists()
        if row["config_id"].startswith("QNN"):
            artifacts_ok &= (method_dir / "trace.csv").exists()

    monotone_ok = True
    for config_id in Z_CONFIGS:
        values = [value for _, value in read_trace_csv(run_dir / config_id / "trace.csv")]
        monotone_ok &= all(b <= a for a, b in zip(values, values[1:]))

    ok = (
        run["exit"] == 0
        and run["elapsed"] < 1800.0
        and methods_ok
        and artifacts_ok
        and monotone_ok
    )
    verdict(6, "end-to-end desk-scale run", ok,
            f"exit {run['exit']}, {run['elapsed']:.0f}s, {len(rows)} methods, "
            f"Z traces non-increasing: {monotone_ok}")


def _family_r2(rows):
    z_values = [float(r["r2"]) for r in rows if r["config_id"] in Z_CONFIGS]
    zz_values = [float(r["r2"]) for r in rows if r["config_id"] in ZZ_CONFIGS]
    return min(z_values), max(zz_values)


@pytest.mark.slow
def test_criterion_7_qualitative_trend(full_runs, tmp_path):
    rows = read_results(full_runs["a"]["dir"] / "results.csv")
    min_z, max_zz = _family_r2(rows)
    retried = False
    if min_z <= max_zz:
        # Dataset-dependent criterion: one retry on a fresh seed is allowed.
        retried = True
        config_path = tmp_path / "retry.yaml"
        config_path.write_text(
            CONFIG_TEMPLATE.format(directory=tmp_path, run_id="retry", parallelism=1)
            + "qnn: {init_seed: 43}\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config_path)]) == 0
        min_z, max_zz = _family_r2(read_results(tmp_path / "retry" / "results.csv"))
    ok = min_z > max_zz
    verdict(7, "qualitative trend reproduction", ok,
            f"min Z-map R2 {min_z:.3f} > max ZZ-map R2 {max_zz:.3f}, "
            f"retried: {retried}")


@pytest.mark.slow
def test_criterion_8_reference_delta_reporting(full_runs):
    markdown = (full_runs["a"]["dir"] / "results.md").read_text(encoding="utf-8")
    delta_ok = "Ref R^2" in markdown and "dMAE" in markdown
    signed_ok = "+" in markdown and "-" in markdown

    measured_csv = os.environ.get("WINDQNN_MEASURED_CSV")
    branch = "synthetic deltas only; set WINDQNN_MEASURED_CSV to compare a real dataset"
    if measured_csv:
        branch = f"measured dataset {measured_csv}"
        config = (
            f"data: {{source: csv, csv_path: \"{measured_csv}\"}}\n"
            f"output: {{directory: \"{full_runs['a']['dir']}\", run_id: measured}}\n"
        )
        config_path = full_runs["a"]["dir"] / "measured.yaml"
        config_path.write_text(config, encoding="utf-8")
        delta_ok &= main(["run", "--config", str(config_path)]) == 0

    verdict(8, "reference delta reporting", delta_ok and signed_ok, branch)


@pytest.mark.slow
def test_criterion_9_determinism(full_runs):
    def masked(path):
        rows = read_results(path)
        for row in rows:
            row["wall_time_s"] = ""  # wall clock is the one intentionally live column
        return rows

    first = masked(full_runs["a"]["dir"] / "results.csv")
    second = masked(full_runs["b"]["dir"] / "results.csv")
    rows_ok = first == second

    predictions_ok = True
    for row in first:
        left = (full_runs["a"]["dir"] / row["config_id"] / "predictions.csv").read_bytes()
        right = (full_runs["b"]["dir"] / row["config_id"] / "predictions.csv").read_bytes()
        predictions_ok &= left == right

    verdict(9, "determinism across runs and parallelism", rows_ok and predictions_ok,
            "degree 4 vs degree 1, results.csv (wall time masked) and "
            "predictions byte-identical")
