"""Workload generator: turns (workload name, seed) into the program's inputs.

Every input the program sees is a file written here: a YAML config per
repeat and, for the CSV workloads, a dataset written with
``windqnn.data.write_csv``.  The data, split and init seeds all derive from
the workload seed, so the same seed gives the same inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import yaml

QNN_IDS = tuple(f"QNN-{i}" for i in range(1, 13))
BASELINE_IDS = ("dt", "knn", "ols")


@dataclass(frozen=True)
class Workload:
    name: str
    methods: Tuple[str, ...]
    rows: int  # dataset rows, synthetic or CSV
    source: str  # "synthetic" or "csv"
    max_iterations: int
    parallelism: Optional[int]  # None: one worker per CPU
    train_fraction: float = 0.8

    @property
    def train_rows(self) -> int:
        return int(np.floor(self.train_fraction * self.rows))


# The shipped configs/default.yaml runs 25 L-BFGS iterations on 4464 rows,
# about 165 s on a 2-core machine; `desk` keeps every other setting of that
# file and cuts the iteration budget so that several runs fit a measurement.
WORKLOADS = {
    w.name: w
    for w in (
        # what users run: gradient-bound, bandwidth-bound kernels, 2-thread pool
        Workload(
            name="desk",
            methods=QNN_IDS + BASELINE_IDS,
            rows=4464,
            source="synthetic",
            max_iterations=1,
            parallelism=None,
        ),
        # few rows, one thread: the fixed cost of each call dominates
        Workload(
            name="small_serial",
            methods=QNN_IDS,
            rows=300,
            source="csv",
            max_iterations=4,
            parallelism=1,
        ),
        # no QNN at all: a QNN-side change should not move it
        Workload(
            name="classical_csv",
            methods=BASELINE_IDS,
            rows=16000,
            source="csv",
            max_iterations=25,
            parallelism=None,
        ),
    )
}


@dataclass
class Inputs:
    """Generated inputs of one workload in one work directory."""

    workload: Workload
    directory: str
    data_seed: int
    split_seed: int
    init_seed: int
    csv_path: Optional[str] = None

    def config_for_repeat(self, repeat: int) -> Tuple[str, str]:
        """Write the config of one repeat; returns (config path, run directory).

        Every repeat gets its own output.run_id: the default id is a UTC
        timestamp with one-second resolution, so short runs would collide.
        """
        w = self.workload
        run_id = f"r{repeat:03d}"
        data = {"source": w.source, "n_rows": w.rows, "seed": self.data_seed}
        if w.source == "csv":
            data = {"source": "csv", "csv_path": self.csv_path}
        config = {
            "prng": "pcg64",
            "data": data,
            "split": {"fraction": w.train_fraction, "mode": "shuffled",
                      "seed": self.split_seed},
            "qnn": {"feature_map_reps": 2, "ansatz_reps": 3, "zz_entanglement": "full",
                    "init_seed": self.init_seed, "gradient_mode": "parameter_shift"},
            "optimizer": {"max_iterations": w.max_iterations},
            "baselines": {"knn_k": 5, "cart_max_depth": None, "cart_min_samples_split": 2},
            "selection": list(w.methods),
            "output": {"directory": os.path.join(self.directory, "runs"),
                       "run_id": run_id},
            "parallelism": w.parallelism,
        }
        path = os.path.join(self.directory, f"config-{run_id}.yaml")
        with open(path, "w", encoding="utf-8") as handle:
            yaml.safe_dump(config, handle, sort_keys=False)
        return path, os.path.join(self.directory, "runs", run_id)


def generate(name: str, seed: int, directory: str) -> Inputs:
    """Derive the seeds and write the shared inputs (the CSV) of a workload."""
    from windqnn.data import generate_synthetic, write_csv

    workload = WORKLOADS[name]
    data_seed, split_seed, init_seed = (
        int(v) for v in np.random.SeedSequence(seed).generate_state(3)
    )
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs(workload, directory, data_seed, split_seed, init_seed)
    if workload.source == "csv":
        inputs.csv_path = os.path.join(directory, "data.csv")
        write_csv(inputs.csv_path, generate_synthetic(workload.rows, data_seed))
    return inputs
