"""Dataset ingestion, splitting, min-max scaling, synthetic generation, and
the CSV reader, writer and float format of every table the package touches.

Feature order is fixed throughout the package: wind_speed (m/s),
wind_direction (degrees), pressure (hPa), temperature (degrees C); the
regression target is power (kW).  Features scale to [0, pi] so encoding
phases stay in [0, 2*pi] and the ZZ interaction factors (pi - x) stay
nonnegative; the target scales to [-1, 1] to match the parity-readout span.
"""
from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

FEATURE_COLUMNS = ("wind_speed", "wind_direction", "pressure", "temperature")
TARGET_COLUMN = "power"

CUT_IN_SPEED = 3.5  # m/s
RATED_SPEED = 13.0  # m/s
CUT_OUT_SPEED = 25.0  # m/s
RATED_POWER = 2031.0  # kW


class DataError(Exception):
    """An input the run cannot use: exit 3."""


@dataclass(frozen=True)
class Dataset:
    """Immutable rows of (features, power); features follow FEATURE_COLUMNS order."""

    features: np.ndarray  # (n_rows, 4) float64
    power: np.ndarray  # (n_rows,) float64, kW

    def __len__(self) -> int:
        return self.power.shape[0]


@dataclass(frozen=True)
class ScalingSpec:
    """Per-column linear maps: features to [0, pi], target to [-1, 1]."""

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float


def read_table(path: str, columns: Sequence[str], parse, defaults: Optional[dict] = None,
               drop: bool = False) -> Tuple[list, int]:
    """(parse(cells) of every data row of the CSV file at path, rows dropped).

    cells holds the row's cells of the two or more columns, in that order,
    picked by one itemgetter; a column of defaults that the header lacks
    reads as its default value.  Blank lines are skipped, and a header that
    appears twice names its last column, as with ``csv.DictReader``.  A row
    too short for the columns, or one that parse rejects with a ValueError,
    is dropped and counted if drop, and otherwise raises a DataError naming
    the file and line; so does a line the CSV parser refuses or a byte that
    is not UTF-8.  A leading byte-order mark is ignored.  A missing column
    raises a DataError naming the file.
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in columns if c not in position]
            for column in missing:
                if column not in (defaults or {}):
                    raise DataError(f"{path}: missing column {column!r}")
            position.update((c, len(header) + k) for k, c in enumerate(missing))
            pick = operator.itemgetter(*(position[c] for c in columns))
            if missing:  # the defaults follow the header's width; a short row stays short
                width, pad = len(header), [defaults[c] for c in missing]
                pick = lambda record, get=pick: get(record[:width] + pad)
            rows, dropped = [], 0
            for record in reader:
                if not record:
                    continue
                try:
                    rows.append(parse(pick(record)))
                except (IndexError, ValueError) as exc:
                    if not drop:
                        reason = "too few cells" if isinstance(exc, IndexError) else exc
                        raise DataError(f"{path} line {reader.line_num}: {reason}") from exc
                    dropped += 1
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path} line {_undecodable_line(path)}: not UTF-8 ({exc.reason})") from exc
    return rows, dropped


def _undecodable_line(path: str) -> int:
    """Number of the first line of path that is not valid UTF-8."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def format_column(values) -> Iterator[str]:
    """The shortest text that reads back as each value's exact float64: the
    repr of Python floats, made a column at a time."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def write_table(path: str, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a CSV file: the header of columns, then rows of text cells."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def load_csv(path: str, column_names: Optional[dict] = None) -> Tuple[Dataset, int]:
    """Read a dataset CSV; returns (dataset, dropped_row_count).

    column_names optionally remaps canonical names to file headers.  Rows
    with a missing, unparseable, or non-finite cell are dropped and counted,
    as are rows with negative power (physically impossible readings).  A
    file read_table refuses raises its DataError.
    """
    names = {c: c for c in FEATURE_COLUMNS + (TARGET_COLUMN,)}
    if column_names:
        names.update(column_names)
    rows, dropped = read_table(path, [names[c] for c in FEATURE_COLUMNS + (TARGET_COLUMN,)],
                               lambda cells: [*map(float, cells)], drop=True)
    table = np.array(rows, dtype=float).reshape(-1, 5)
    keep = np.isfinite(table).all(axis=1) & (table[:, 4] >= 0)
    dropped += int(np.count_nonzero(~keep))
    table = table[keep]
    if not table.shape[0]:
        raise DataError(f"no valid rows in {path} ({dropped} dropped)")
    return Dataset(features=table[:, :4], power=table[:, 4]), dropped


def _fisher_yates(n: int, seed: int) -> np.ndarray:
    # Explicit Fisher-Yates shuffle driven by PCG64, so the permutation is
    # pinned to a named algorithm rather than a library's shuffle internals.
    # One broadcast draw gives the swap index of i = n-1, ..., 1 from [0, i],
    # the same PCG64 stream as one scalar draw per i.
    rng = np.random.Generator(np.random.PCG64(seed))
    order = list(range(n))
    swaps = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), swaps):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def split(
    dataset: Dataset,
    train_fraction: float,
    mode: str = "shuffled",
    seed: int = 42,
) -> Tuple[Dataset, Dataset]:
    """Split into (train, test); train size = floor(train_fraction * n).

    mode "shuffled" permutes rows with a seeded Fisher-Yates shuffle first;
    mode "chronological" cuts in file order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"split.fraction must be in (0, 1), got {train_fraction}")
    if mode not in ("shuffled", "chronological"):
        raise ValueError(f"split.mode must be 'shuffled' or 'chronological', got {mode!r}")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    n_train = int(np.floor(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise DataError(f"split.fraction {train_fraction} leaves an empty side for n={n}")
    order = _fisher_yates(n, seed) if mode == "shuffled" else np.arange(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    return (
        Dataset(dataset.features[train_idx], dataset.power[train_idx]),
        Dataset(dataset.features[test_idx], dataset.power[test_idx]),
    )


def fit_scaler(train: Dataset) -> ScalingSpec:
    """Fit min-max ranges on the training split only."""
    fmin = train.features.min(axis=0)
    fmax = train.features.max(axis=0)
    for i, name in enumerate(FEATURE_COLUMNS):
        if fmax[i] <= fmin[i]:
            raise DataError(f"column {name!r} is constant, cannot scale")
    tmin = float(train.power.min())
    tmax = float(train.power.max())
    if tmax <= tmin:
        raise DataError(f"column {TARGET_COLUMN!r} is constant, cannot scale")
    return ScalingSpec(fmin, fmax, tmin, tmax)


def scale_features(spec: ScalingSpec, features: np.ndarray) -> np.ndarray:
    """Map features into [0, pi], clamping out-of-range values to the endpoints."""
    unit = (features - spec.feature_min) / (spec.feature_max - spec.feature_min)
    return np.clip(unit, 0.0, 1.0) * np.pi


def scale_target(spec: ScalingSpec, power: np.ndarray) -> np.ndarray:
    """Map power into [-1, 1], clamping out-of-range values to the endpoints."""
    unit = (np.asarray(power, dtype=float) - spec.target_min) / (
        spec.target_max - spec.target_min
    )
    return np.clip(unit, 0.0, 1.0) * 2.0 - 1.0


def invert_target(spec: ScalingSpec, scaled: np.ndarray) -> np.ndarray:
    return (np.asarray(scaled, dtype=float) + 1.0) / 2.0 * (
        spec.target_max - spec.target_min
    ) + spec.target_min


def ideal_power_curve(speed) -> np.ndarray:
    """Noiseless turbine output: cubic ramp between cut-in and rated speed,
    rated plateau to cut-out, zero outside."""
    v = np.asarray(speed, dtype=float)
    ramp = (
        RATED_POWER
        * (v**3 - CUT_IN_SPEED**3)
        / (RATED_SPEED**3 - CUT_IN_SPEED**3)
    )
    power = np.where(v < CUT_IN_SPEED, 0.0, ramp)
    power = np.where(v >= RATED_SPEED, RATED_POWER, power)
    power = np.where(v > CUT_OUT_SPEED, 0.0, power)
    return power


def generate_synthetic(n_rows: int, seed: int) -> Dataset:
    """Synthetic wind-farm sample: Weibull wind speeds through an ideal
    turbine curve plus clipped Gaussian sensor noise.

    Draw order is fixed (speed, direction, pressure, temperature, noise)
    so a seed pins the dataset bit for bit.
    """
    if n_rows < 1:
        raise ValueError(f"n_rows must be >= 1, got {n_rows}")
    # the largest array is the (n_rows, 4) feature table
    table_bytes = n_rows * len(FEATURE_COLUMNS) * np.dtype(float).itemsize
    if table_bytes > np.iinfo(np.intp).max:
        raise DataError(f"n_rows {n_rows} needs a {table_bytes}-byte feature table, "
                        "beyond what numpy can index")
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        speed = rng.weibull(2.0, size=n_rows) * 8.0
        direction = rng.uniform(0.0, 360.0, size=n_rows)
        pressure = rng.normal(1013.0, 5.0, size=n_rows)
        temperature = rng.normal(12.0, 5.0, size=n_rows)
        noise = rng.normal(0.0, 30.0, size=n_rows)
        power = np.maximum(0.0, ideal_power_curve(speed) + noise)
        features = np.column_stack([speed, direction, pressure, temperature])
    except MemoryError as exc:
        raise DataError(f"n_rows {n_rows} does not fit in memory: {exc}") from exc
    return Dataset(features=features, power=power)


def write_csv(path: str, dataset: Dataset) -> None:
    """Write a dataset in the ingestion schema (no timestamp column)."""
    write_table(path, FEATURE_COLUMNS + (TARGET_COLUMN,),
                zip(*map(format_column, [*dataset.features.T, dataset.power])))
