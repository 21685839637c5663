"""Run the benchmark once per seed and summarise each metric across seeds.

    python3 perfbench/sweep.py --workload desk --seeds 1-10 --seconds 25 [--trace 1] [--out F]

For every metric prints the median, the quartiles and the spread (distance
between the quartiles as a share of the median) of its per-run values,
as ``statistics.quantiles(values, n=4)`` gives them; with ``--out`` also
writes them, with every run's values and the machine facts, as JSON.
Use it to compare a parent and a change: same seeds, same seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs, facts = [], None
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        facts = facts or json.loads(lines[0].partition(" ")[2])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, item in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"unit": item["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
        spread = summary[name]["spread"]
        print(f"{name:<40} median {median:12.6g} {item['unit']:<6} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread "
              + ("n/a" if spread is None else f"{spread:.4f}"))
    correct = all(r["correct"] for r in runs)
    print(f"all correct: {correct}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "facts": facts, "all_correct": correct,
                       "summary": summary, "runs": runs}, handle, indent=1)
            handle.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
