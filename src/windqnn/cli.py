"""Command-line harness: config parsing and experiment orchestration.

Subcommands: run (full benchmark over selected methods), gen-data (synthetic
CSV), inspect-circuit (gate listing per config id), report (re-render
markdown/SVG from existing CSV artifacts).

Exit codes: 0 success, 2 config or usage error, 3 data error (for report: a
missing, malformed or unwritable run directory), 4 at least one method
failed to train (partial artifacts are still written).
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from . import __version__
from .baselines import (
    fit_cart,
    fit_knn,
    fit_ols,
    predict_cart,
    predict_knn,
    predict_ols,
)
from .circuit import ENTANGLEMENTS, render
from .data import (
    FEATURE_COLUMNS,
    TARGET_COLUMN,
    DataError,
    Dataset,
    fit_scaler,
    generate_synthetic,
    invert_target,
    load_csv,
    scale_features,
    scale_target,
    split,
    write_csv,
)
from .evaluate import mae, r2
from .optimizer import OptimizerOptions
from .qnn import (
    CONFIG_IDS,
    CONFIG_TABLE,
    build_model,
    encode,
    gram_form,
    predict_scaled,
    same_training,
    train,
    with_parameters,
)
from .report import (
    METHOD_ORDER,
    REFERENCE_RESULTS,
    ExperimentReport,
    MethodFailure,
    MethodResult,
    render_from_artifacts,
    write_run_artifact,
)

class ConfigError(Exception):
    """Invalid or unreadable experiment configuration; message names the key."""


@dataclass
class ExperimentConfig:
    data_source: str = "synthetic"
    csv_path: Optional[str] = None
    columns: Optional[dict] = None
    n_rows: int = 4464
    data_seed: int = 42
    split_fraction: float = 0.8
    split_mode: str = "shuffled"
    split_seed: int = 42
    feature_map_reps: int = 2
    ansatz_reps: int = 3
    zz_entanglement: str = "full"
    init_seed: int = 42
    gradient_mode: str = "parameter_shift"
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    knn_k: int = 5
    cart_max_depth: Optional[int] = None
    cart_min_samples_split: int = 2
    selection: Tuple[str, ...] = METHOD_ORDER
    output_directory: str = "runs"
    run_id: Optional[str] = None
    parallelism: Optional[int] = None


def _one_of(choices) -> tuple:
    """(rule text, rule) for a key whose value must be one of choices."""
    return " or ".join(repr(c) for c in choices), lambda v: v in choices


# (rule text, rule) for a row count: sys.maxsize is numpy's largest array dimension
_ROW_COUNT = (f"in [1, {sys.maxsize}]", lambda v: 1 <= v <= sys.maxsize)
# (rule text, rule) for a seed: PCG64 takes any non-negative integer
_SEED = (">= 0", lambda v: v >= 0)

# yaml key -> (ExperimentConfig field, type, rule text, rule).  The only list
# of config keys: a key missing here is unknown.  Defaults live in
# ExperimentConfig; the optimizer.* keys feed OptimizerOptions, which checks
# its own values.
CONFIG_KEYS = {
    "data.source": ("data_source", str, *_one_of(("synthetic", "csv"))),
    "data.csv_path": ("csv_path", str, "a path without a NUL byte", lambda v: "\0" not in v),
    "data.columns": ("columns", dict, "", None),
    "data.n_rows": ("n_rows", int, *_ROW_COUNT),
    "data.seed": ("data_seed", int, *_SEED),
    "split.fraction": ("split_fraction", float, "in (0, 1)", lambda v: 0.0 < v < 1.0),
    "split.mode": ("split_mode", str, *_one_of(("shuffled", "chronological"))),
    "split.seed": ("split_seed", int, *_SEED),
    "qnn.feature_map_reps": ("feature_map_reps", int, ">= 1", lambda v: v >= 1),
    "qnn.ansatz_reps": ("ansatz_reps", int, ">= 1", lambda v: v >= 1),
    "qnn.zz_entanglement": ("zz_entanglement", str, f"one of {ENTANGLEMENTS}",
                            lambda v: v in ENTANGLEMENTS),
    "qnn.init_seed": ("init_seed", int, *_SEED),
    "qnn.gradient_mode": ("gradient_mode", str, *_one_of(("parameter_shift",))),
    **{f"optimizer.{f.name}": ("optimizer", type(f.default), "", None)
       for f in fields(OptimizerOptions)},
    "baselines.knn_k": ("knn_k", int, ">= 1", lambda v: v >= 1),
    "baselines.cart_max_depth": ("cart_max_depth", int, ">= 1 or null", lambda v: v >= 1),
    "baselines.cart_min_samples_split": ("cart_min_samples_split", int, ">= 2",
                                         lambda v: v >= 2),
    "output.directory": ("output_directory", str, "a non-empty path without a NUL byte "
                         "('.' names the working directory)", lambda v: v != "" and "\0" not in v),
    "output.run_id": ("run_id", str, "one directory name, not '', '.' or '..' and without a "
                      "path separator or a NUL byte", lambda v: v not in ("", ".", "..")
                      and not set(v) & {"/", os.sep, os.altsep, "\0"}),
    "parallelism": ("parallelism", int, ">= 1", lambda v: v >= 1),
}
_SECTIONS = {key.partition(".")[0] for key in CONFIG_KEYS if "." in key}
_NOUNS = {int: "an integer", float: "a number", str: "a string", dict: "a mapping"}


def _typed(value, kind, key: str):
    """value as kind, or a ConfigError naming the key when YAML gave a value
    of the wrong type: a string (quoted digits too), a list or a mapping
    where a number belongs, a boolean, an infinity or a NaN where a number
    belongs, or a fraction where a count belongs."""
    if kind in (str, dict):
        if isinstance(value, kind):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = kind(value)
        except (ValueError, OverflowError):  # int() of a NaN or an infinity
            number = None
        if kind is float and number is not None and math.isfinite(number):
            return number
        if kind is int and number is not None and not (
                isinstance(value, float) and number != value):
            return number
    raise ConfigError(f"{key} must be {_NOUNS[kind]}, got {value!r}")


def _entries(raw: dict):
    """(yaml key, value) for every config entry but prng and selection."""
    for top, value in raw.items():
        if top in ("prng", "selection"):
            continue
        if top not in _SECTIONS:
            yield top, value
            continue
        if value is None:  # an empty section keeps every default
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{top} must be a mapping")
        for key, item in value.items():
            yield f"{top}.{key}", item


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    import yaml  # here only: report, gen-data and inspect-circuit read no config

    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 ({exc.reason})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    prng = raw.get("prng", "pcg64")
    if prng != "pcg64":
        raise ConfigError(f"prng must be 'pcg64', got {prng!r}")

    defaults = ExperimentConfig()
    values, options = {}, {}
    for key, value in _entries(raw):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key}")
        name, kind, text, rule = CONFIG_KEYS[key]
        # null keeps the default: the optimizer's own, or None where that is
        # the default; elsewhere it is a value of the wrong type
        if value is None and (name == "optimizer" or getattr(defaults, name) is None):
            continue
        value = _typed(value, kind, key)
        if rule is not None and not rule(value):
            raise ConfigError(f"{key} must be {text}, got {value!r}")
        if name == "optimizer":
            options[key.partition(".")[2]] = value
        else:
            values[name] = value

    for canonical, header in values.get("columns", {}).items():
        if canonical not in FEATURE_COLUMNS + (TARGET_COLUMN,):
            raise ConfigError(f"unknown key data.columns.{canonical}")
        if not isinstance(header, str):
            raise ConfigError(f"data.columns.{canonical} must be a string, got {header!r}")
    if values.get("data_source") == "csv" and not values.get("csv_path"):
        raise ConfigError("data.csv_path is required when data.source is 'csv'")

    selection = raw.get("selection")
    if selection is not None:
        if not isinstance(selection, list) or not selection:
            raise ConfigError("selection must be a non-empty list")
        for i, method in enumerate(selection):
            if method not in METHOD_ORDER:
                raise ConfigError(f"selection contains unknown method {method!r}; valid: "
                                  f"{', '.join(METHOD_ORDER)}")
            if method in selection[:i]:
                raise ConfigError(f"selection lists {method!r} more than once")
        values["selection"] = tuple(selection)

    try:
        values["optimizer"] = OptimizerOptions(**options)
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    return ExperimentConfig(**values)


def _load_dataset(cfg: ExperimentConfig) -> Tuple[Dataset, int]:
    if cfg.data_source == "csv":
        return load_csv(cfg.csv_path, column_names=cfg.columns)
    return generate_synthetic(cfg.n_rows, cfg.data_seed), 0


def _train_method(method_id: str, cfg: ExperimentConfig, bundle):
    """Fit one baseline and predict the test rows in kW."""
    _, x_train, _, train_power, x_test, _ = bundle
    if method_id == "dt":
        model = fit_cart(x_train, train_power, max_depth=cfg.cart_max_depth,
                         min_samples_split=cfg.cart_min_samples_split)
        return predict_cart(model, x_test)
    if method_id == "knn":
        model = fit_knn(x_train, train_power, k=cfg.knn_k)
        return predict_knn(model, x_test)
    model = fit_ols(x_train, train_power, column_names=list(FEATURE_COLUMNS))
    return predict_ols(model, x_test)


def _run_group(method_ids, cfg: ExperimentConfig, bundle) -> list:
    """Train one group's methods in order: one MethodResult or MethodFailure
    per method; a failure does not stop the methods after it.  In a QNN group
    (the selected QNNs of one feature map) each QNN builds its model, and the
    first that builds encodes the map for all: the Gram form of the training
    rows and the test-row states.  If a build or the encoding raises, only
    that QNN fails and the next one tries again.  A QNN that trains like an
    earlier one (``same_training``) takes its result; a training that raised
    is never taken.  Each method's wall time runs from the end of the one
    before, so the first QNN's includes the encoding."""
    scaling, x_train, y_train_scaled, _, x_test, test_power = bundle
    started = time.perf_counter()
    outcomes, trained, encoding = [], [], None  # trained: (model, result) of each QNN that trained
    for method_id in method_ids:
        try:
            if method_id in CONFIG_TABLE:
                model = build_model(method_id, feature_map_reps=cfg.feature_map_reps,
                                    ansatz_reps=cfg.ansatz_reps,
                                    zz_entanglement=cfg.zz_entanglement, init_seed=cfg.init_seed)
                if encoding is None:  # one pair, so a half-made encoding is never kept
                    encoding = (gram_form(encode(model.template, x_train), y_train_scaled),
                                encode(model.template, x_test))
                gram, test_states = encoding
                result = next((r for m, r in trained if same_training(m, model)), None)
                if result is None:
                    result = train(model, gram, cfg.optimizer)
                    trained.append((model, result))
                fitted = with_parameters(model, result.best_point)
                predictions = invert_target(scaling, predict_scaled(fitted, x_test, test_states))
                trace, status, seed = result.trace, result.status, cfg.init_seed
            else:
                predictions = _train_method(method_id, cfg, bundle)
                trace, status, seed = [], "", cfg.split_seed
            outcomes.append(MethodResult(
                method_id=method_id,
                wall_time_s=time.perf_counter() - started,
                r2=r2(test_power, predictions),
                mae=mae(test_power, predictions),
                seed=seed,
                status=status,
                trace=trace,
                actual=test_power,
                predicted=predictions,
            ))
        except Exception as exc:  # recorded, surfaced as exit 4 at the end
            outcomes.append(MethodFailure(method_id, f"{type(exc).__name__}: {exc}",
                                          traceback.format_exc()))
        started = time.perf_counter()
    return outcomes


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Load, split, scale, train every selected method, compute test metrics.

    Returns the report, whose ``failures`` hold a MethodFailure per method
    that raised, in selection order.  A group (the selected QNNs of one
    feature map, or one baseline) runs on one thread; one failure does not
    abort the others.  A test split whose power readings are all equal
    raises DataError before any method trains: R^2 is undefined on it.
    """
    dataset, dropped = _load_dataset(cfg)
    if dropped:
        print(f"data: dropped {dropped} of {len(dataset) + dropped} rows from "
              f"{cfg.csv_path} (missing, unparseable or non-finite cells, or "
              f"negative power)", file=sys.stderr)
    train_set, test_set = split(dataset, cfg.split_fraction,
                                mode=cfg.split_mode, seed=cfg.split_seed)
    if test_set.power.min() == test_set.power.max():
        raise DataError(
            f"every test row reads {float(test_set.power[0])} kW (test rows: {len(test_set)}), "
            f"so R^2 is undefined; change split.fraction, split.mode or split.seed")
    scaling = fit_scaler(train_set)
    bundle = (
        scaling,
        scale_features(scaling, train_set.features),
        scale_target(scaling, train_set.power),
        train_set.power,
        scale_features(scaling, test_set.features),
        test_set.power,
    )
    groups = {}
    for method_id in cfg.selection:
        key = CONFIG_TABLE[method_id][0] if method_id in CONFIG_TABLE else method_id
        groups.setdefault(key, []).append(method_id)

    workers = cfg.parallelism or os.cpu_count() or 1
    if workers == 1:  # a one-worker pool measured slower and larger on small_serial
        outcomes = [o for group in groups.values() for o in _run_group(group, cfg, bundle)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_group, group, cfg, bundle) for group in groups.values()]
            outcomes = [o for future in futures for o in future.result()]
    outcomes.sort(key=lambda o: cfg.selection.index(o.method_id))
    methods = [o for o in outcomes if isinstance(o, MethodResult)]
    failures = [o for o in outcomes if isinstance(o, MethodFailure)]
    return ExperimentReport(methods=methods, failures=failures)


def _summary_table(report: ExperimentReport) -> str:
    header = (
        f"{'method':<8} {'feature_map':<12} {'ansatz':<20} "
        f"{'r2':>8} {'mae_kW':>10} {'wall_ms':>8} {'dR2':>7} {'dMAE':>9}"
    )
    lines = [header, "-" * len(header)]
    for m in report.ordered():
        ref_r2, ref_mae = REFERENCE_RESULTS[m.method_id]
        lines.append(
            f"{m.method_id:<8} {m.feature_map:<12} {m.ansatz:<20} "
            f"{m.r2:>8.4f} {m.mae:>10.2f} {m.wall_time_s * 1e3:>8.1f} "
            f"{m.r2 - ref_r2:>+7.2f} {m.mae - ref_mae:>+9.2f}"
        )
    return "\n".join(lines)


def _new_run_dir(directory: str, run_id: str) -> str:
    """Create directory/run_id, or run_id-2, run_id-3, ... if it exists; returns its path.

    ``os.mkdir`` fails on an existing directory, so two runs started in the
    same second never share one.
    """
    os.makedirs(directory, exist_ok=True)
    for n in itertools.count(1):
        path = os.path.join(directory, run_id if n == 1 else f"{run_id}-{n}")
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            pass


def cmd_run(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    existing = os.path.abspath(os.path.join(cfg.output_directory, cfg.run_id or ""))
    while not os.path.lexists(existing):  # the run directory's nearest existing path
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):  # the write would fail only after every method trained
        print(f"report: {existing} is not a directory", file=sys.stderr)
        return 3
    try:
        report = run_experiment(cfg)
    except DataError as exc:
        print(f"data: {exc}", file=sys.stderr)
        return 3

    try:
        if cfg.run_id:  # a rerun replaces the artifacts
            run_dir = os.path.join(cfg.output_directory, cfg.run_id)
        else:
            run_dir = _new_run_dir(cfg.output_directory,
                                   time.strftime("run-%Y%m%d-%H%M%S", time.gmtime()))
        write_run_artifact(report, run_dir)
    except OSError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 3
    print(_summary_table(report))
    print(f"\nartifacts: {run_dir}")
    for failure in report.failures:
        print(f"training: {failure.method_id} failed: {failure.message}", file=sys.stderr)
    return 4 if report.failures else 0


def cmd_gen_data(rows: int, seed: int, out_path: str) -> int:
    for flag, value, (text, rule) in (("--rows", rows, _ROW_COUNT), ("--seed", seed, _SEED)):
        if not rule(value):
            print(f"config: {flag} must be {text}, got {value}", file=sys.stderr)
            return 2
    try:
        write_csv(out_path, generate_synthetic(rows, seed))
    except DataError as exc:
        print(f"data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {rows} rows to {out_path}")
    return 0


def cmd_inspect_circuit(config_id: str) -> int:
    if config_id not in CONFIG_TABLE:
        print(
            f"config: unknown config id {config_id!r}; valid: {', '.join(CONFIG_IDS)}",
            file=sys.stderr,
        )
        return 2
    template = build_model(config_id).template
    print(render(template))
    print()
    print(f"gates: {len(template.gates)}")
    print(f"parameters: {template.n_parameter_slots}")
    print(f"feature slots: {template.n_feature_slots}")
    return 0


def cmd_report(run_dir: str) -> int:
    try:
        written = render_from_artifacts(run_dir)
    except (OSError, DataError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(f"rendered {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windqnn",
        description="Quantum neural network benchmark for wind-turbine power regression",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the benchmark described by a config file")
    p_run.add_argument("--config", required=True, help="path to a YAML experiment config")

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--out", required=True)

    p_inspect = sub.add_parser("inspect-circuit", help="print a config's gate listing")
    p_inspect.add_argument("config_id")

    p_report = sub.add_parser("report", help="re-render markdown/SVG from run artifacts")
    p_report.add_argument("--run-dir", required=True)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "gen-data":
        return cmd_gen_data(args.rows, args.seed, args.out)
    if args.command == "inspect-circuit":
        return cmd_inspect_circuit(args.config_id)
    return cmd_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
