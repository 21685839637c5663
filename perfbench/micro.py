"""Kernel microbenchmarks at one training row count.

    python perfbench/micro.py --rows N --seed S

Times the statevector kernels on an (N, 16) batch and the QNN prediction,
feature-encoding prefix and parameter-shift gradient on QNN-5 (Z map) and
QNN-8 (ZZ map), after a warm-up, and prints one JSON object: per kernel the
median and quartiles of one call in seconds, plus the computed bytes and
amplitude updates of one call (a model of the traffic, not a measurement).
It also checks the gradient against central differences of the loss.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from windqnn import circuit, qnn, statevector  # noqa: E402
from windqnn.data import fit_scaler, generate_synthetic, scale_features, scale_target  # noqa: E402

N_QUBITS = 4
DIM = 2**N_QUBITS
GRADIENT_CHECK_ROWS = 256
GRADIENT_CHECK_STEP = 1e-5


def _timed(fn, budget_s: float, warmup: int = 2, least: int = 5, most: int = 400) -> list:
    for _ in range(warmup):
        fn()
    samples = []
    started = time.perf_counter()
    while len(samples) < most and (len(samples) < least
                                   or time.perf_counter() - started < budget_s):
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return samples


def _record(out: dict, name: str, samples: list, **counts) -> None:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    out[f"{name}_s_per_call"] = median
    out[f"{name}_q1_s"] = q1
    out[f"{name}_q3_s"] = q3
    for key, value in counts.items():
        out[f"{name}_{key}"] = value


def kernels(rows: int, out: dict) -> None:
    rng = np.random.default_rng(0)
    amps = rng.normal(size=(rows, DIM)) + 1j * rng.normal(size=(rows, DIM))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    angles = rng.uniform(0.0, np.pi, size=rows)
    nbytes = amps.nbytes
    cases = {
        # name: (call, bytes read + rewritten, amplitudes updated)
        "ry": (lambda: statevector.apply_ry_array(amps, 0.3, 1, N_QUBITS), 2 * nbytes, rows * DIM),
        "cx": (lambda: statevector.apply_cx_array(amps, 0, 1, N_QUBITS), nbytes, rows * DIM // 2),
        "phase": (lambda: statevector.apply_phase_array(amps, angles, 2, N_QUBITS),
                  nbytes, rows * DIM // 2),
        "h": (lambda: statevector.apply_1q_array(amps, statevector.HADAMARD, 3, N_QUBITS),
              2 * nbytes, rows * DIM),
        "expect": (lambda: statevector.expect_z_all_array(amps), nbytes, rows * DIM),
    }
    for name, (call, computed, updates) in cases.items():
        _record(out, f"statevector.{name}", _timed(call, 0.25),
                bytes_computed=computed, amplitude_updates=updates)


def _gradient_error(model, x, y) -> float:
    """Largest |parameter-shift - central difference| over the parameters."""
    exact = qnn.gradient_parameter_shift(model, x, y)
    theta = model.parameters
    worst = 0.0
    for k in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[k] = GRADIENT_CHECK_STEP
        up = qnn.loss_mse(qnn.with_parameters(model, theta + step), x, y)
        down = qnn.loss_mse(qnn.with_parameters(model, theta - step), x, y)
        worst = max(worst, abs(exact[k] - (up - down) / (2 * GRADIENT_CHECK_STEP)))
    return worst


def models(rows: int, seed: int, out: dict) -> bool:
    dataset = generate_synthetic(rows, seed)
    scaling = fit_scaler(dataset)
    x = scale_features(scaling, dataset.features)
    y = scale_target(scaling, dataset.power)
    ok = True
    for config_id, label in (("QNN-5", "qnn5"), ("QNN-8", "qnn8")):
        model = qnn.build_model(config_id, init_seed=seed)
        gates = model.template.gates
        prefix = circuit.feature_prefix_length(model.template)
        params = model.parameters.shape[0]

        def encode():
            amps = np.zeros((rows, DIM), dtype=complex)
            amps[:, 0] = 1.0
            circuit.run_gates(amps, gates[:prefix], N_QUBITS, x, np.zeros(0))

        suffix_calls = len(gates) - prefix + 1  # gates plus the readout
        _record(out, f"qnn.encode_{label}", _timed(encode, 0.3, warmup=1, least=3),
                gate_calls=prefix)
        _record(out, f"qnn.predict_{label}",
                _timed(lambda: qnn.predict_scaled(model, x), 0.3, warmup=1, least=3),
                gate_calls=len(gates) + 1)
        _record(out, f"qnn.gradient_{label}",
                _timed(lambda: qnn.gradient_parameter_shift(model, x, y), 1.0,
                       warmup=1, least=3, most=20),
                gate_calls=prefix + (2 * params + 1) * suffix_calls)
        error = _gradient_error(model, x[:GRADIENT_CHECK_ROWS], y[:GRADIENT_CHECK_ROWS])
        out[f"qnn.gradient_{label}_check_error"] = float(error)
        ok = ok and bool(error <= 1e-8)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    out: dict = {}
    kernels(args.rows, out)
    out["micro.gradient_check_ok"] = models(args.rows, args.seed, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
