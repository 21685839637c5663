"""
A reduced benchmark across quantum configs and classical baselines
==================================================================

Runs the same orchestration the CLI uses, scaled down (fewer rows, fewer
optimizer iterations, a subset of methods) so it finishes in seconds, and
writes the full artifact tree: results.csv, results.md, per-method traces,
predictions, and SVG charts.
"""
from windqnn.cli import ExperimentConfig, run_experiment
from windqnn.optimizer import OptimizerOptions
from windqnn.report import write_run_artifact

config = ExperimentConfig(
    n_rows=400,
    optimizer=OptimizerOptions(max_iterations=10),
    selection=("QNN-1", "QNN-4", "QNN-7", "QNN-10", "dt", "knn", "ols"),
    parallelism=1,
)

report, failures = run_experiment(config)
for failure in failures:
    print(f"{failure.method_id} failed: {failure.message}")

# The Z-map configs (QNN-1, QNN-4) should clearly beat the ZZ-map ones
# (QNN-7, QNN-10) even at this reduced scale.
print(f"{'method':<8} {'feature map':<12} {'entanglement':<22} "
      f"{'R2':>8} {'MAE kW':>9}")
for m in report.ordered():
    print(f"{m.method_id:<8} {m.feature_map:<12} {m.ansatz:<22} "
          f"{m.r2:>8.4f} {m.mae:>9.2f}")

written = write_run_artifact(report, "small_benchmark_run")
print(f"\n{len(written)} artifacts under small_benchmark_run/")
