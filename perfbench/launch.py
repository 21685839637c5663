"""Run one ``windqnn`` CLI command in this process, with or without spans.

    python perfbench/launch.py --marks MARKS.json [--spans SPANS.json] -- run --config C.yaml

This is ``python -m windqnn <args>`` plus two things the benchmark needs
from inside the process, both installed by rebinding names that the
program's modules imported (the program's own files are not touched):

* always: the CLOCK_MONOTONIC time of the first method's fit or train (the
  end of set-up), written to ``--marks``;
* with ``--spans``: a span around each public call into each module, kept
  in memory and written out when the command ends.

A span is ``[name, start, end, parent, thread, method, extra]``: ``parent``
is the index of the enclosing span on the same thread (-1 at the top),
``method`` is the method id the span works for ("" outside a method) and
``extra`` is a count the call produced (bytes, rows, nodes) or null.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time

_here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_here), "src"))

import windqnn.circuit as circuit  # noqa: E402
import windqnn.cli as cli  # noqa: E402
import windqnn.qnn as qnn  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn, method=None, extra=None):
        """Span around fn.  ``method`` (args -> id) sets the thread's method
        id from this call on; ``extra`` (args, result) -> int records a count."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:  # first span on this thread
                stack = local.stack = []
                local.method = ""
            if method is not None:
                local.method = method(args)
            span = [name, _now(), 0.0, stack[-1] if stack else None,
                    threading.get_ident(), local.method, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _now()
            if extra is not None:
                span[6] = extra(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s[0], s[1], s[2], -1 if s[3] is None else index[id(s[3])], s[4], s[5], s[6]]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, separators=(",", ":"))


def _install_first_fit_mark(marks: dict) -> None:
    for name in ("build_model", "fit_cart", "fit_knn", "fit_ols"):
        original = getattr(cli, name)

        def marked(*args, _original=original, **kwargs):
            marks.setdefault("first_fit", _now())
            return _original(*args, **kwargs)

        setattr(cli, name, marked)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _count_nodes(model) -> int:
    count, stack = 0, [model.root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return count


def _install_spans(tracer: Tracer) -> None:
    wrap = tracer.wrap
    top = lambda args: ""  # noqa: E731  calls outside any method

    def rebind(module, attr, name, **kwargs):
        setattr(module, attr, wrap(name, getattr(module, attr), **kwargs))

    rebind(cli, "load_config", "cli.load_config", method=top)
    rebind(cli, "run_experiment", "cli.run_experiment", method=top)
    rebind(cli, "generate_synthetic", "data.generate_synthetic")
    rebind(cli, "load_csv", "data.load_csv", extra=lambda a, r: len(r[0]))
    rebind(cli, "split", "data.split")
    rebind(cli, "fit_scaler", "data.fit_scaler")
    rebind(cli, "scale_features", "data.scale")
    rebind(cli, "scale_target", "data.scale")
    rebind(cli, "invert_target", "data.invert_target")
    rebind(cli, "build_model", "qnn.build_model", method=lambda a: a[0])
    rebind(cli, "train", "qnn.train")
    rebind(cli, "predict_scaled", "qnn.predict_scaled")
    rebind(cli, "fit_cart", "baselines.fit_cart", method=lambda a: "dt",
           extra=lambda a, r: _count_nodes(r))
    rebind(cli, "predict_cart", "baselines.predict_cart")
    rebind(cli, "fit_knn", "baselines.fit_knn", method=lambda a: "knn")
    rebind(cli, "predict_knn", "baselines.predict_knn",
           extra=lambda a, r: len(a[1]) * len(a[0].targets))
    rebind(cli, "fit_ols", "baselines.fit_ols", method=lambda a: "ols")
    rebind(cli, "predict_ols", "baselines.predict_ols")
    rebind(cli, "write_run_artifact", "report.write_run_artifact", method=top,
           extra=lambda a, r: [len(r), _file_bytes(r)])
    rebind(cli, "render_from_artifacts", "report.render_from_artifacts", method=top,
           extra=lambda a, r: [len(r), _file_bytes(r)])

    # qnn.train hands its objective and gradient closures to minimize
    minimize = qnn.minimize

    def traced_minimize(objective, gradient, x0, options=None):
        return minimize(wrap("qnn.objective", objective),
                        wrap("qnn.gradient", gradient), x0, options)

    qnn.minimize = wrap(
        "optimizer.minimize", traced_minimize,
        extra=lambda a, r: [len(r.trace) - 1, r.status == "max_iterations"],
    )
    qnn.evaluate_batch = wrap("circuit.evaluate_batch", qnn.evaluate_batch)
    run_gates = wrap("circuit.run_gates", circuit.run_gates)
    qnn.run_gates = circuit.run_gates = run_gates

    # computed bytes: amplitudes read plus amplitudes rewritten, per call
    whole = lambda a, r: 2 * a[0].nbytes  # noqa: E731
    half = lambda a, r: a[0].nbytes  # noqa: E731
    rebind(circuit, "apply_ry_array", "statevector.ry", extra=whole)
    rebind(circuit, "apply_1q_array", "statevector.h", extra=whole)
    rebind(circuit, "apply_phase_array", "statevector.phase", extra=half)
    rebind(circuit, "apply_cx_array", "statevector.cx", extra=half)
    rebind(circuit, "expect_z_all_array", "statevector.expect", extra=half)
    rebind(qnn, "expect_z_all_array", "statevector.expect", extra=half)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--marks", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    marks: dict = {}
    tracer = Tracer()
    if args.spans:
        _install_spans(tracer)
    _install_first_fit_mark(marks)
    code = cli.main(argv)
    marks["exit"] = _now()
    if args.spans:
        tracer.dump(args.spans)
    with open(args.marks, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
