"""Per-layer metrics from the spans of one traced run.

Times of layers that every workload calls (cli, data, report) are seconds.
Layers that only some workloads call (qnn, optimizer, circuit, statevector,
baselines) are given as counts and as shares of the time spent in them, so
that a workload that never calls a layer reports 0 calls instead of a
constant 0 s; their seconds per call come from micro.py at the workload's
row count.  Self time is a span's duration minus that of its children,
which run on the same thread.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

KERNELS = ("ry", "cx", "phase", "h", "expect")
BASELINE_CALLS = tuple(f"{step}_{model}" for model in ("cart", "knn", "ols")
                       for step in ("fit", "predict"))


def span_metrics(spans: List[list], workers: int) -> Dict[str, float]:
    duration = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += duration[i]
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(list)
    for i, s in enumerate(spans):
        name = s[0]
        total[name] += duration[i]
        own[name] += duration[i] - children[i]
        calls[name] += 1
        if s[6] is not None:
            extra[name].append(s[6])

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    m: Dict[str, float] = {
        "cli.load_config_s": total["cli.load_config"],
        "cli.run_experiment_s": total["cli.run_experiment"],
        "data.input_s": total["data.generate_synthetic"] + total["data.load_csv"],
        "data.load_csv_rows_per_s": ratio(sum(extra["data.load_csv"]), total["data.load_csv"]),
        "data.split_s": total["data.split"],
        "data.fit_scaler_s": total["data.fit_scaler"],
        "data.scale_s": total["data.scale"],
        "report.write_run_artifact_s": total["report.write_run_artifact"],
        "report.files_written": sum(e[0] for e in extra["report.write_run_artifact"]),
        "report.bytes_written": sum(e[1] for e in extra["report.write_run_artifact"]),
    }

    # QNN layers: shares of the time spent training and predicting QNNs
    qnn_s = total["qnn.train"] + total["qnn.predict_scaled"]
    encode_s = sum(duration[i] for i, s in enumerate(spans)
                   if s[0] == "circuit.run_gates" and s[3] >= 0
                   and spans[s[3]][0] == "qnn.train")
    iterations = sum(e[0] for e in extra["optimizer.minimize"])
    m.update({
        "qnn.objective_calls": calls["qnn.objective"],
        "qnn.gradient_calls": calls["qnn.gradient"],
        "qnn.gradient_share": ratio(total["qnn.gradient"], qnn_s),
        "qnn.objective_share": ratio(total["qnn.objective"], qnn_s),
        "qnn.encode_share": ratio(encode_s, qnn_s),
        "circuit.evaluate_batch_share": ratio(total["circuit.evaluate_batch"], qnn_s),
        "optimizer.iterations": iterations,
        "optimizer.stopped_max_iterations": sum(int(e[1]) for e in extra["optimizer.minimize"]),
        "optimizer.grads_per_iteration": ratio(calls["qnn.gradient"], iterations),
        "optimizer.self_share": ratio(own["optimizer.minimize"], qnn_s),
        "circuit.run_gates_calls": calls["circuit.run_gates"],
        "circuit.run_gates_self_share": ratio(own["circuit.run_gates"], qnn_s),
        "statevector.gate_calls": sum(calls[f"statevector.{k}"] for k in KERNELS if k != "expect"),
        "statevector.bytes_computed": sum(sum(extra[f"statevector.{k}"]) for k in KERNELS),
    })
    for k in KERNELS:
        m[f"statevector.{k}_share"] = ratio(own[f"statevector.{k}"], qnn_s)

    # baselines: thread-seconds per second of cli.run_experiment
    for call in BASELINE_CALLS:
        step, model = call.split("_")
        name = f"baselines.{step}_{model}"
        m[f"{name}_share"] = ratio(total[name], total["cli.run_experiment"])
    m["baselines.cart_nodes"] = sum(extra["baselines.fit_cart"])
    m["baselines.knn_distance_evals"] = sum(extra["baselines.predict_knn"])

    # pool efficiency: summed method wall over workers x training-phase wall
    bounds: Dict[str, list] = {}
    for s in spans:
        if s[5]:
            b = bounds.setdefault(s[5], [s[1], s[2]])
            b[0], b[1] = min(b[0], s[1]), max(b[1], s[2])
    if bounds:
        phase = max(b[1] for b in bounds.values()) - min(b[0] for b in bounds.values())
        busy = sum(b[1] - b[0] for b in bounds.values())
        m["cli.pool_efficiency"] = ratio(busy, workers * phase)
    else:
        m["cli.pool_efficiency"] = 0.0
    return m


def render_metrics(spans: List[list]) -> Dict[str, float]:
    """Metrics of a traced ``windqnn report`` process."""
    total = sum(s[2] - s[1] for s in spans if s[0] == "report.render_from_artifacts")
    return {"report.render_from_artifacts_s": total}
