"""windqnn benchmark runner.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then runs the program in a
fresh process per repeat, one at a time (closed loop, one client), until
``--seconds`` have passed, checks every repeat's outputs and prints the
metrics.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repeats, runs the kernel microbenchmarks
and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
See perfbench/README.md for the metrics and how to name a claim.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
MICRO = os.path.join(HERE, "micro.py")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_REPEATS = 2

END_TO_END_UNITS = {
    "run_wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "methods_wall_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_per_call"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(("_share", "_efficiency", "_per_iteration")):
        return "ratio"
    if name.endswith("_check_error"):
        return "1"
    return "count"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Process:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    marks: dict
    spans: Optional[list]
    stderr: str


def spawn(argv: List[str], scratch: str, spans: bool) -> Process:
    """Run launch.py with argv in a fresh process and wait for it to end."""
    marks_path = os.path.join(scratch, "marks.json")
    spans_path = os.path.join(scratch, "spans.json")
    err_path = os.path.join(scratch, "stderr.txt")
    for path in (marks_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, LAUNCH, "--marks", marks_path]
    if spans:
        cmd += ["--spans", spans_path]
    with open(err_path, "w", encoding="utf-8") as err:
        started = _now()
        proc = subprocess.Popen(cmd + ["--"] + argv, stdout=subprocess.DEVNULL,
                                stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        ended = _now()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    marks = {}
    if os.path.exists(marks_path):
        with open(marks_path, encoding="utf-8") as handle:
            marks = {k: v - started for k, v in json.load(handle).items()}
    loaded = None
    if spans and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            loaded = json.load(handle)
    with open(err_path, encoding="utf-8") as handle:
        stderr = handle.read()
    return Process(code, ended - started, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, marks, loaded, stderr)


@dataclass
class Repeat:
    run: Process
    report: Optional[Process]  # the re-render, run when the run succeeded
    run_dir: str
    traced: bool
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def exited_ok(self) -> bool:
        return self.run.code == 0 and self.report is not None and self.report.code == 0

    @property
    def stderr(self) -> str:
        return self.run.stderr + (self.report.stderr if self.report else "")


def run_repeat(inputs, index: int, traced: bool) -> Repeat:
    config, run_dir = inputs.config_for_repeat(index)
    run = spawn(["run", "--config", config], inputs.directory, traced)
    report = None
    if run.code == 0:
        report = spawn(["report", "--run-dir", run_dir], inputs.directory, traced)
    return Repeat(run, report, run_dir, traced)


def machine_facts(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy builds without the dict form
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
        "note": "cores are shared with other work; no system-wide tracing or CPU pinning",
    }


def _median(values) -> float:
    return statistics.median(values)


def _results(repeat: Repeat) -> List[dict]:
    return checks.read_results(repeat.run_dir)


def end_to_end(repeats: List[Repeat]) -> Dict[str, float]:
    """Medians over the untraced repeats."""
    return {
        "run_wall_s": _median(r.run.wall_s for r in repeats),
        "setup_s": _median(r.run.marks["first_fit"] for r in repeats),
        "cpu_s": _median(r.run.cpu_s for r in repeats),
        "peak_rss_mb": _median(r.run.peak_rss_mb for r in repeats),
        "methods_wall_s": _median(
            sum(float(row["wall_time_s"]) for row in _results(r)) for r in repeats),
    }


def workload_facts(repeats: List[Repeat]) -> Dict[str, float]:
    """Figures of a workload's own methods, printed but not in the JSON."""
    qnn_walls, baselines = [], []
    for r in repeats:
        rows = _results(r)
        qnn_walls += [float(x["wall_time_s"]) for x in rows if x["config_id"].startswith("QNN-")]
        baselines.append(sum(float(x["wall_time_s"]) for x in rows
                             if not x["config_id"].startswith("QNN-")))
    rows = _results(repeats[0])
    r2s = [float(x["r2"]) for x in rows if x["config_id"].startswith("QNN-")]
    facts = {"samples_per_repeat": len(rows), "repeats": len(repeats),
             "report_wall_s": _median(r.report.wall_s for r in repeats),
             "test_mae_kw_mean": statistics.fmean(float(x["mae"]) for x in rows)}
    if qnn_walls:
        facts["qnn_train_s_p50"] = _median(qnn_walls)
        if len(qnn_walls) >= 100:  # at least ten samples beyond the p90
            facts["qnn_train_s_p90"] = statistics.quantiles(qnn_walls, n=10)[-1]
        facts["qnn_test_r2_mean"] = statistics.fmean(r2s)
    if any(baselines):
        facts["baselines_s"] = _median(baselines)
    return facts


def run_micro(rows: int, seed: int) -> dict:
    done = subprocess.run([sys.executable, MICRO, "--rows", str(rows), "--seed", str(seed)],
                          capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"micro.py failed: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_layer(traced: List[Repeat], untraced: List[Repeat], workers: int, micro: dict):
    per_repeat = []
    for r in traced:
        m = layers.span_metrics(r.run.spans, workers)
        m.update(layers.render_metrics(r.report.spans))
        per_repeat.append(m)
    metrics = {k: _median(m[k] for m in per_repeat) for k in per_repeat[0]}
    # up to the end of the command, before the spans are written out
    metrics["trace.overhead_s"] = (_median(r.run.marks["exit"] for r in traced)
                                   - _median(r.run.marks["exit"] for r in untraced))
    metrics.update({k: v for k, v in micro.items() if not k.startswith("micro.")})
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (correct, attempted, failed, metrics, facts)."""
    workload = workloads.WORKLOADS[name]
    directory = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    try:
        inputs = workloads.generate(name, seed, directory)
        reference = checks.load_reference(name, seed)
        micro = None
        started = _now()
        if trace:
            micro = run_micro(workload.train_rows, seed)
        # closed loop: the next repeat starts when the previous one has ended;
        # in a traced run each cycle is one untraced and one traced repeat
        repeats: List[Repeat] = []
        cycles, loop_started = 0, _now()
        while True:
            repeats.append(run_repeat(inputs, len(repeats), traced=False))
            if trace:
                repeats.append(run_repeat(inputs, len(repeats), traced=True))
            cycles += 1
            now = _now()
            if (len(repeats) >= MIN_REPEATS
                    and now - started + (now - loop_started) / cycles > seconds):
                break

        first_masked = None
        for r in repeats:
            if not r.exited_ok:
                codes = [r.run.code, r.report.code if r.report else None]
                reason = f"exit codes {codes}: {r.stderr[-300:]}"
                r.failures = {m: reason for m in workload.methods}
                continue
            r.failures = checks.check_repeat(r.run_dir, workload.methods, reference, first_masked)
            if first_masked is None:
                first_masked = checks.masked_results(r.run_dir)
        attempted = len(workload.methods) * len(repeats)
        failed = sum(len(r.failures) for r in repeats)
        correct = failed == 0 and (micro is None or micro["micro.gradient_check_ok"])
        if micro is not None and not micro["micro.gradient_check_ok"]:
            print(f"FAIL {name}: parameter-shift gradient disagrees with central "
                  f"differences", file=sys.stderr)
        facts = {"reference_checked": reference is not None,
                 "methods_failed_ratio": failed / attempted}
        for r in repeats:
            for method, reason in sorted(r.failures.items()):
                print(f"FAIL {name} {os.path.basename(r.run_dir)} {method}: {reason}",
                      file=sys.stderr)
        if not all(r.exited_ok for r in repeats):
            return False, attempted, failed, {}, facts
        untraced = [r for r in repeats if not r.traced]
        facts.update(workload_facts(untraced))
        if trace:
            workers = workload.parallelism or os.cpu_count() or 1
            traced = [r for r in repeats if r.traced]
            metrics = per_layer(traced, untraced, workers, micro)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            metrics = end_to_end(untraced)
            units = END_TO_END_UNITS
        return correct, attempted, failed, {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, facts
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds, so that spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "windqnn", "cli.py")):
        print(f"error: no windqnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            print(f"error: unknown workload {name!r}; valid: all, "
                  f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2

    print("facts " + json.dumps(machine_facts(args.seed), sort_keys=True))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, found, facts = measure(name, args.seed, args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        print(f"workload {name}: correct={ok} attempted={tried} failed={bad} "
              + json.dumps(facts, sort_keys=True))
        for key, item in found.items():
            print(f"  {key:<40} {item['value']:>16.6g} {item['unit']}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = item
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
