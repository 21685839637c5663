"""Record the reference r2/mae of every method for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0-31 [--workload NAME ...]

Runs each workload once per seed, untimed, and merges the results into
perfbench/reference.json, which checks.py compares every repeat against.
Run it only at a commit whose outputs are known to be right; the table in
the repository was recorded at the seed commit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()

    table = {"tolerance": checks.REFERENCE_TOLERANCE, "workloads": {}}
    if os.path.exists(checks.REFERENCE_PATH):
        with open(checks.REFERENCE_PATH, encoding="utf-8") as handle:
            table = json.load(handle)
    for name in args.workload:
        for seed in args.seeds:
            directory = os.path.join(run.WORK, f"reference-{name}-{seed}")
            try:
                inputs = workloads.generate(name, seed, directory)
                repeat = run.run_repeat(inputs, 0, traced=False)
                if repeat.run.code != 0:
                    raise SystemExit(f"{name} seed {seed}: exit {repeat.run.code}\n"
                                     f"{repeat.run.stderr}")
                rows = checks.read_results(repeat.run_dir)
                table["workloads"].setdefault(name, {})[str(seed)] = {
                    row["config_id"]: [float(row["r2"]), float(row["mae"])] for row in rows}
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            print(f"{name} seed {seed}: {len(rows)} methods", flush=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
