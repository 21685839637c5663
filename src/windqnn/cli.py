"""Command-line harness: config parsing and experiment orchestration.

Subcommands: run (full benchmark over selected methods), gen-data (synthetic
CSV), inspect-circuit (gate listing per config id), report (re-render
markdown/SVG from existing CSV artifacts).

Exit codes: 0 success, 2 config or usage error, 3 data error, 4 at least one
method failed to train (partial artifacts are still written).
"""
from __future__ import annotations

import argparse
import os
import sys
import threading
import time
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import List, NamedTuple, Optional, Tuple

import yaml

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
    train,
    with_parameters,
)
from .report import (
    METHOD_ORDER,
    REFERENCE_RESULTS,
    ExperimentReport,
    MethodResult,
    render_from_artifacts,
    write_run_artifact,
)

BASELINE_SLUGS = {
    "dt": "decision_tree",
    "knn": "k_nearest_neighbors",
    "ols": "linear_regression",
}


class ConfigError(Exception):
    """Invalid or unreadable experiment configuration; message names the key."""


class MethodFailure(NamedTuple):
    """A method that raised: the one-line ``Type: message`` for stderr and
    the full traceback for ``<run>/<method>/error.txt``."""

    method_id: str
    message: str
    traceback: str


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
    finite_difference_step: float = 1e-8
    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    knn_k: int = 5
    cart_max_depth: Optional[int] = None
    cart_min_samples_split: int = 2
    selection: Tuple[str, ...] = METHOD_ORDER
    output_directory: str = "runs"
    run_id: Optional[str] = None
    parallelism: Optional[int] = None


def _section(raw: dict, name: str, allowed: set) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key {name}.{key}")
    return value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _number(value, kind, key: str):
    """kind(value), or a ConfigError naming the key when YAML gave a value
    of the wrong type: a word, a list or a mapping where a number belongs,
    or a fraction where a count belongs."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    return number


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    known_top = {"prng", "data", "split", "qnn", "optimizer", "baselines",
                 "selection", "output", "parallelism"}
    for key in raw:
        _require(key in known_top, f"unknown key {key}")

    prng = raw.get("prng", "pcg64")
    _require(prng == "pcg64", f"prng must be 'pcg64', got {prng!r}")

    cfg = ExperimentConfig()

    data = _section(raw, "data", {"source", "csv_path", "columns", "n_rows", "seed"})
    cfg.data_source = data.get("source", cfg.data_source)
    _require(cfg.data_source in ("synthetic", "csv"),
             f"data.source must be 'synthetic' or 'csv', got {cfg.data_source!r}")
    cfg.csv_path = data.get("csv_path", cfg.csv_path)
    _require(cfg.data_source != "csv" or bool(cfg.csv_path),
             "data.csv_path is required when data.source is 'csv'")
    _require(cfg.csv_path is None or isinstance(cfg.csv_path, str),
             f"data.csv_path must be a string, got {cfg.csv_path!r}")
    cfg.columns = data.get("columns", cfg.columns)
    _require(cfg.columns is None or isinstance(cfg.columns, dict),
             f"data.columns must be a mapping, got {cfg.columns!r}")
    for canonical, header in (cfg.columns or {}).items():
        _require(canonical in FEATURE_COLUMNS + (TARGET_COLUMN,),
                 f"unknown key data.columns.{canonical}")
        _require(isinstance(header, str),
                 f"data.columns.{canonical} must be a string, got {header!r}")
    cfg.n_rows = _number(data.get("n_rows", cfg.n_rows), int, "data.n_rows")
    _require(cfg.n_rows >= 1, f"data.n_rows must be >= 1, got {cfg.n_rows}")
    cfg.data_seed = _number(data.get("seed", cfg.data_seed), int, "data.seed")

    sp = _section(raw, "split", {"fraction", "mode", "seed"})
    cfg.split_fraction = _number(sp.get("fraction", cfg.split_fraction), float,
                                 "split.fraction")
    _require(0.0 < cfg.split_fraction < 1.0,
             f"split.fraction must be in (0, 1), got {cfg.split_fraction}")
    cfg.split_mode = sp.get("mode", cfg.split_mode)
    _require(cfg.split_mode in ("shuffled", "chronological"),
             f"split.mode must be 'shuffled' or 'chronological', got {cfg.split_mode!r}")
    cfg.split_seed = _number(sp.get("seed", cfg.split_seed), int, "split.seed")

    q = _section(raw, "qnn", {"feature_map_reps", "ansatz_reps", "zz_entanglement",
                              "init_seed", "gradient_mode", "finite_difference_step"})
    cfg.feature_map_reps = _number(q.get("feature_map_reps", cfg.feature_map_reps), int,
                                   "qnn.feature_map_reps")
    _require(cfg.feature_map_reps >= 1,
             f"qnn.feature_map_reps must be >= 1, got {cfg.feature_map_reps}")
    cfg.ansatz_reps = _number(q.get("ansatz_reps", cfg.ansatz_reps), int, "qnn.ansatz_reps")
    _require(cfg.ansatz_reps >= 1, f"qnn.ansatz_reps must be >= 1, got {cfg.ansatz_reps}")
    cfg.zz_entanglement = q.get("zz_entanglement", cfg.zz_entanglement)
    _require(cfg.zz_entanglement in ENTANGLEMENTS,
             f"qnn.zz_entanglement must be one of {ENTANGLEMENTS}, "
             f"got {cfg.zz_entanglement!r}")
    cfg.init_seed = _number(q.get("init_seed", cfg.init_seed), int, "qnn.init_seed")
    cfg.gradient_mode = q.get("gradient_mode", cfg.gradient_mode)
    _require(cfg.gradient_mode in ("parameter_shift", "finite_difference"),
             f"qnn.gradient_mode must be 'parameter_shift' or 'finite_difference', "
             f"got {cfg.gradient_mode!r}")
    cfg.finite_difference_step = _number(
        q.get("finite_difference_step", cfg.finite_difference_step), float,
        "qnn.finite_difference_step"
    )
    _require(cfg.finite_difference_step > 0,
             f"qnn.finite_difference_step must be > 0, got {cfg.finite_difference_step}")

    opt = _section(raw, "optimizer", {"max_iterations", "memory", "gradient_tolerance",
                                      "relative_f_tolerance", "wolfe_c1", "wolfe_c2",
                                      "max_line_search_steps"})
    counts = {"max_iterations", "memory", "max_line_search_steps"}
    kwargs = {k: _number(v, int if k in counts else float, f"optimizer.{k}")
              for k, v in opt.items() if v is not None}
    try:
        cfg.optimizer = OptimizerOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer: {exc}") from exc

    base = _section(raw, "baselines", {"knn_k", "cart_max_depth", "cart_min_samples_split"})
    cfg.knn_k = _number(base.get("knn_k", cfg.knn_k), int, "baselines.knn_k")
    _require(cfg.knn_k >= 1, f"baselines.knn_k must be >= 1, got {cfg.knn_k}")
    depth = base.get("cart_max_depth", cfg.cart_max_depth)
    cfg.cart_max_depth = None if depth is None else _number(depth, int,
                                                            "baselines.cart_max_depth")
    _require(cfg.cart_max_depth is None or cfg.cart_max_depth >= 1,
             f"baselines.cart_max_depth must be >= 1 or null, got {cfg.cart_max_depth}")
    cfg.cart_min_samples_split = _number(
        base.get("cart_min_samples_split", cfg.cart_min_samples_split), int,
        "baselines.cart_min_samples_split"
    )
    _require(cfg.cart_min_samples_split >= 2,
             f"baselines.cart_min_samples_split must be >= 2, "
             f"got {cfg.cart_min_samples_split}")

    selection = raw.get("selection")
    if selection is not None:
        _require(isinstance(selection, list) and selection,
                 "selection must be a non-empty list")
        for method in selection:
            _require(method in METHOD_ORDER,
                     f"selection contains unknown method {method!r}; valid: "
                     f"{', '.join(METHOD_ORDER)}")
        cfg.selection = tuple(selection)

    out = _section(raw, "output", {"directory", "run_id"})
    cfg.output_directory = out.get("directory", cfg.output_directory)
    _require(isinstance(cfg.output_directory, str),
             f"output.directory must be a string, got {cfg.output_directory!r}")
    cfg.run_id = out.get("run_id", cfg.run_id)
    _require(cfg.run_id is None or isinstance(cfg.run_id, str),
             f"output.run_id must be a string, got {cfg.run_id!r}")

    par = raw.get("parallelism")
    if par is not None:
        cfg.parallelism = _number(par, int, "parallelism")
        _require(cfg.parallelism >= 1, f"parallelism must be >= 1, got {cfg.parallelism}")

    return cfg


def _load_dataset(cfg: ExperimentConfig) -> Tuple[Dataset, int]:
    if cfg.data_source == "csv":
        return load_csv(cfg.csv_path, column_names=cfg.columns)
    return generate_synthetic(cfg.n_rows, cfg.data_seed), 0


class _SharedEncodings:
    """Per feature map and run: the Gram form of the training rows and the
    test-row states.

    The six QNNs of one feature map share its parameter-free encoding, so
    the first to ask encodes the rows and folds the training rows into
    ``gram_form``; the others reuse both.  The training-row states are not
    kept: training needs only the Gram form.  The entry is dropped once the
    last selected QNN of that map has taken it, which keeps at most the maps
    still in use alive.
    """

    def __init__(self, selection):
        self._lock = threading.Lock()
        self._uses = Counter(CONFIG_TABLE[m][0] for m in selection if m in CONFIG_TABLE)
        self.slots = {}

    def take(self, family: str, template, x_train, y_train, x_test):
        with self._lock:
            if family not in self.slots:
                gram = gram_form(encode(template, x_train), y_train)
                self.slots[family] = (gram, encode(template, x_test))
            shared = self.slots[family]
            self._uses[family] -= 1
            if self._uses[family] == 0:
                del self.slots[family]
        return shared


def _train_method(method_id: str, cfg: ExperimentConfig, bundle,
                  encodings: _SharedEncodings) -> MethodResult:
    """Fit one method end to end and measure its wall time."""
    scaling, x_train, y_train_scaled, train_power, x_test, test_power = bundle
    started = time.perf_counter()
    if method_id in CONFIG_TABLE:
        family, entanglement = CONFIG_TABLE[method_id]
        model = build_model(
            method_id,
            feature_map_reps=cfg.feature_map_reps,
            ansatz_reps=cfg.ansatz_reps,
            zz_entanglement=cfg.zz_entanglement,
            init_seed=cfg.init_seed,
            scaling=scaling,
        )
        gram, test_states = encodings.take(family, model.template, x_train,
                                           y_train_scaled, x_test)
        result = train(
            model, x_train, y_train_scaled, cfg.optimizer,
            gradient_mode=cfg.gradient_mode,
            finite_difference_step=cfg.finite_difference_step,
            gram=gram,
        )
        fitted = with_parameters(model, result.parameters)
        predictions = invert_target(scaling, predict_scaled(fitted, x_test, test_states))
        elapsed = time.perf_counter() - started
        return MethodResult(
            method_id=method_id,
            feature_map=family.upper(),
            ansatz=entanglement,
            r2=r2(test_power, predictions),
            mae=mae(test_power, predictions),
            wall_time_s=elapsed,
            seed=cfg.init_seed,
            status=result.status,
            trace=result.trace,
            actual=test_power,
            predicted=predictions,
        )

    if method_id == "dt":
        model = fit_cart(x_train, train_power, max_depth=cfg.cart_max_depth,
                         min_samples_split=cfg.cart_min_samples_split)
        predictions = predict_cart(model, x_test)
    elif method_id == "knn":
        model = fit_knn(x_train, train_power, k=cfg.knn_k)
        predictions = predict_knn(model, x_test)
    else:  # ols
        model = fit_ols(x_train, train_power, column_names=list(FEATURE_COLUMNS))
        predictions = predict_ols(model, x_test)
    elapsed = time.perf_counter() - started
    return MethodResult(
        method_id=method_id,
        feature_map="",
        ansatz=BASELINE_SLUGS[method_id],
        r2=r2(test_power, predictions),
        mae=mae(test_power, predictions),
        wall_time_s=elapsed,
        seed=cfg.split_seed,
        actual=test_power,
        predicted=predictions,
    )


def run_experiment(cfg: ExperimentConfig) -> Tuple[ExperimentReport, List[MethodFailure]]:
    """Load, split, scale, train every selected method, compute test metrics.

    Returns the report plus one MethodFailure per method that raised.
    Methods run independently: one failure does not abort the others.
    """
    dataset, dropped = _load_dataset(cfg)
    if dropped:
        print(f"data: dropped {dropped} of {len(dataset) + dropped} rows from "
              f"{cfg.csv_path} (missing, unparseable or non-finite cells, or "
              f"negative power)", file=sys.stderr)
    train_set, test_set = split(dataset, cfg.split_fraction,
                                mode=cfg.split_mode, seed=cfg.split_seed)
    scaling = fit_scaler(train_set)
    bundle = (
        scaling,
        scale_features(scaling, train_set.features),
        scale_target(scaling, train_set.power),
        train_set.power,
        scale_features(scaling, test_set.features),
        test_set.power,
    )
    encodings = _SharedEncodings(cfg.selection)

    workers = cfg.parallelism or os.cpu_count() or 1
    if workers == 1:
        outcomes = [_run_safely(m, cfg, bundle, encodings) for m in cfg.selection]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_safely, m, cfg, bundle, encodings)
                       for m in cfg.selection]
            outcomes = [f.result() for f in futures]
    methods = [o for o in outcomes if isinstance(o, MethodResult)]
    failures = [o for o in outcomes if isinstance(o, MethodFailure)]
    return ExperimentReport(methods=methods), failures


def _run_safely(method_id: str, cfg: ExperimentConfig, bundle, encodings: _SharedEncodings):
    try:
        return _train_method(method_id, cfg, bundle, encodings)
    except Exception as exc:  # recorded, surfaced as exit 4 at the end
        return MethodFailure(method_id, f"{type(exc).__name__}: {exc}",
                             traceback.format_exc())


def _summary_table(report: ExperimentReport) -> str:
    header = (
        f"{'method':<8} {'feature_map':<12} {'ansatz':<20} "
        f"{'r2':>8} {'mae_kW':>10} {'wall_s':>8} {'dR2':>7} {'dMAE':>9}"
    )
    lines = [header, "-" * len(header)]
    for m in report.ordered():
        ref_r2, ref_mae = REFERENCE_RESULTS[m.method_id]
        lines.append(
            f"{m.method_id:<8} {m.feature_map:<12} {m.ansatz:<20} "
            f"{m.r2:>8.4f} {m.mae:>10.2f} {m.wall_time_s:>8.1f} "
            f"{m.r2 - ref_r2:>+7.2f} {m.mae - ref_mae:>+9.2f}"
        )
    return "\n".join(lines)


def cmd_run(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    try:
        report, failures = run_experiment(cfg)
    except DataError as exc:
        print(f"data: {exc}", file=sys.stderr)
        return 3

    run_id = cfg.run_id or datetime.now(timezone.utc).strftime("run-%Y%m%d-%H%M%S")
    run_dir = os.path.join(cfg.output_directory, run_id)
    try:
        write_run_artifact(report, run_dir)
        for failure in failures:
            method_dir = os.path.join(run_dir, failure.method_id)
            os.makedirs(method_dir, exist_ok=True)
            with open(os.path.join(method_dir, "error.txt"), "w", encoding="utf-8") as handle:
                handle.write(failure.traceback)
    except OSError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 3
    print(_summary_table(report))
    print(f"\nartifacts: {run_dir}")
    for failure in failures:
        print(f"training: {failure.method_id} failed: {failure.message}", file=sys.stderr)
    return 4 if failures else 0


def cmd_gen_data(rows: int, seed: int, out_path: str) -> int:
    if rows < 1:
        print(f"config: --rows must be >= 1, got {rows}", file=sys.stderr)
        return 2
    try:
        write_csv(out_path, generate_synthetic(rows, seed))
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
    model = build_model(config_id)
    template = model.template
    print(render(template))
    print()
    print(f"gates: {len(template.gates)}")
    print(f"parameters: {template.n_parameter_slots}")
    print(f"feature slots: {template.n_feature_slots}")
    return 0


def cmd_report(run_dir: str) -> int:
    try:
        written = render_from_artifacts(run_dir)
    except FileNotFoundError as exc:
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
