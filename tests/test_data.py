"""Dataset ingestion, splitting, scaling, and synthetic generation tests."""
import re
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from windqnn import data, optimizer
from windqnn.data import (
    FEATURE_COLUMNS,
    TARGET_COLUMN,
    DataError,
    Dataset,
    fit_scaler,
    generate_synthetic,
    ideal_power_curve,
    invert_target,
    load_csv,
    scale_features,
    scale_target,
    split,
    write_csv,
)

from windqnn.report import (
    METHOD_ORDER,
    RESULTS_COLUMNS,
    ExperimentReport,
    MethodResult,
    read_predictions_csv,
    read_results_csv,
    read_trace_csv,
    write_predictions_csv,
    write_results_csv,
    write_trace_csv,
)

from oracles import fisher_yates_oracle, load_csv_oracle, write_table_oracle

HEADER = "timestamp,wind_speed,wind_direction,pressure,temperature,power\n"


def _write(tmp_path, body, header=HEADER):
    path = tmp_path / "data.csv"
    path.write_text(header + body, encoding="utf-8")
    return str(path)


# --- load_csv ----------------------------------------------------------------

def test_load_well_formed_rows(tmp_path):
    body = "".join(
        f"2020-01-0{i+1}T00:00,{5+i},{i*30},1010,{10+i},{100*i}\n" for i in range(5)
    )
    dataset, dropped = load_csv(_write(tmp_path, body))
    assert len(dataset) == 5
    assert dropped == 0
    assert dataset.features[2].tolist() == [7.0, 60.0, 1010.0, 12.0]
    assert dataset.power[3] == 300.0


def test_blank_cell_drops_row(tmp_path):
    body = "t,5,10,1010,12,100\nt,6,20,1011,13,\nt,7,30,1012,14,300\n"
    dataset, dropped = load_csv(_write(tmp_path, body))
    assert len(dataset) == 2
    assert dropped == 1


def test_unparseable_and_negative_power_dropped(tmp_path):
    body = "t,5,10,1010,12,100\nt,oops,20,1011,13,200\nt,7,30,1012,14,-5\nt,8,40,1013,15,nan\n"
    dataset, dropped = load_csv(_write(tmp_path, body))
    assert len(dataset) == 1
    assert dropped == 3


def test_missing_column_is_schema_error(tmp_path):
    header = "timestamp,wind_speed,wind_direction,temperature,power\n"
    path = _write(tmp_path, "t,5,10,12,100\n", header=header)
    with pytest.raises(DataError, match="missing column 'pressure'"):
        load_csv(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(tmp_path / "absent.csv"))


def test_all_rows_invalid_is_empty_data_error(tmp_path):
    path = _write(tmp_path, "t,x,10,1010,12,100\n")
    with pytest.raises(DataError, match="no valid rows"):
        load_csv(path)


def test_custom_column_names(tmp_path):
    header = "ws,wd,p,temp,kw\n"
    path = _write(tmp_path, "5,10,1010,12,100\n", header=header)
    names = {
        "wind_speed": "ws",
        "wind_direction": "wd",
        "pressure": "p",
        "temperature": "temp",
        "power": "kw",
    }
    dataset, dropped = load_csv(path, column_names=names)
    assert len(dataset) == 1 and dropped == 0


def test_write_then_load_round_trip(tmp_path):
    dataset = generate_synthetic(50, seed=3)
    path = str(tmp_path / "out.csv")
    write_csv(path, dataset)
    loaded, dropped = load_csv(path)
    assert dropped == 0
    np.testing.assert_array_equal(loaded.features, dataset.features)
    np.testing.assert_array_equal(loaded.power, dataset.power)


def test_write_csv_formats_each_value_as_its_repr(tmp_path):
    dataset = generate_synthetic(40, seed=4)
    path = tmp_path / "out.csv"
    write_csv(str(path), dataset)
    rows = [[repr(float(v)) for v in row] + [repr(float(p))]
            for row, p in zip(dataset.features, dataset.power)]
    want = "".join(",".join(row) + "\r\n" for row in [[*FEATURE_COLUMNS, TARGET_COLUMN], *rows])
    assert path.read_bytes() == want.encode()


def _same_load(path, column_names=None):
    """load_csv agrees with the DictReader oracle: the same error, or the
    same dropped count and the same bytes.  Returns the dataset and count."""
    try:
        want = load_csv_oracle(path, column_names)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            load_csv(path, column_names)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return None
    got = load_csv(path, column_names)
    assert got[1] == want[1]
    for a, b in ((got[0].features, want[0].features), (got[0].power, want[0].power)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


def test_a_leading_byte_order_mark_is_ignored(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(str(plain), generate_synthetic(50, seed=3))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, _ = load_csv(str(plain))
    got, dropped = _same_load(str(marked))
    assert dropped == 0
    for a, b in ((got.features, want.features), (got.power, want.power)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_awkward_rows_match_the_dictreader_oracle(tmp_path):
    # power appears twice: the last column counts
    header = "timestamp,wind_speed,power,wind_direction,pressure,temperature,power\n"
    body = (
        "t,5,1,10,1010,12,100\n"
        "\n"  # blank line: skipped, not dropped
        "t,6,1,20,1011,13\n"  # short: the last power cell is missing
        "t,7,-1,30,1012,14,200,x,y\n"  # extra cells; the first power is not read
        "t,-0.0,1,40,1013,15,-0.0\n"  # -0.0 is not negative
        "t,inf,1,40,1013,15,5\n"
        "t,8,1,40,1013,15,-5\n"
        "t,9,1,,1013,15,5\n"
    )
    dataset, dropped = _same_load(_write(tmp_path, body, header=header))
    assert dropped == 4
    assert dataset.power.tolist() == [100.0, 200.0, 0.0]
    assert np.signbit(dataset.power[2]) and np.signbit(dataset.features[2, 0])


def test_header_only_file_is_empty_data_error(tmp_path):
    path = _write(tmp_path, "")
    assert _same_load(path) is None
    with pytest.raises(DataError, match=r"no valid rows .*\(0 dropped\)"):
        load_csv(path)


_CELLS = st.one_of(
    st.sampled_from(["", "nan", "NaN", "inf", "-inf", "1e400", "oops", "-0.0", "-5", " 7 ",
                     "0"]),
    st.floats().map(repr),
    st.integers(-5, 3000).map(str),
)
_ALIASES = {"wind_speed": "ws", "power": "kw"}


@st.composite
def csv_files(draw):
    """(text, column_names): a header with repeats, extras and now and then
    a missing column, then rows of any length, blank ones included."""
    remap = draw(st.booleans())
    required = [_ALIASES.get(c, c) if remap else c for c in FEATURE_COLUMNS + (TARGET_COLUMN,)]
    if draw(st.integers(0, 9)) == 0:
        required.remove(draw(st.sampled_from(required)))
    extras = draw(st.lists(st.sampled_from(required + ["timestamp", "ws", "kw", "power"]),
                           max_size=3))
    header = draw(st.permutations(required + extras))
    good = st.lists(st.floats(0.0, 1e4).map(repr), min_size=len(header), max_size=len(header))
    row = st.lists(_CELLS, min_size=len(header) - 1, max_size=len(header) + 2)
    rows = draw(st.lists(st.one_of(good, row, st.just([]), st.lists(_CELLS, max_size=3)),
                         max_size=25))
    text = "\n".join([",".join(header)] + [",".join(cells) for cells in rows]) + "\n"
    return text, (dict(_ALIASES) if remap else None)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_load_matches_the_dictreader_oracle(tmp_path, case):
    text, column_names = case
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    _same_load(str(path), column_names)


# --- the CSV codec: every table reads back bit for bit -------------------------

# any finite float64, the awkward ones drawn often: subnormals, -0.0, +-1.7e308
_FINITE = st.one_of(
    st.sampled_from([5e-324, -5e-324, 1e-310, -0.0, 0.0, 1.7e308, -1.7e308,
                     1.7976931348623157e308, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_CODEC = settings(max_examples=100, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@_CODEC
@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=20))
def test_predictions_csv_reads_back_bit_for_bit(tmp_path, pairs):
    actual, predicted = (np.array(column) for column in zip(*pairs))
    path = str(tmp_path / "predictions.csv")
    write_predictions_csv(data.format_column(actual), data.format_column(predicted), path)
    got_actual, got_predicted = read_predictions_csv(path)
    assert _bits(got_actual) == _bits(actual) and _bits(got_predicted) == _bits(predicted)


@_CODEC
@given(st.lists(_FINITE, min_size=1, max_size=20))
def test_trace_csv_reads_back_bit_for_bit(tmp_path, values):
    trace = list(enumerate(values))
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    got = read_trace_csv(path)
    assert [i for i, _ in got] == [i for i, _ in trace]
    assert _bits([v for _, v in got]) == _bits(values)


@_CODEC
@given(st.lists(st.tuples(_FINITE, _FINITE, _FINITE), min_size=1, max_size=len(METHOD_ORDER)))
def test_results_csv_numbers_read_back_bit_for_bit(tmp_path, numbers):
    report = ExperimentReport(methods=[
        MethodResult(method_id=method_id, r2=r2, mae=mae, wall_time_s=wall, seed=7)
        for method_id, (r2, mae, wall) in zip(METHOD_ORDER, numbers)])
    path = str(tmp_path / "results.csv")
    write_results_csv(report, path)
    got = read_results_csv(path).methods
    assert [m.method_id for m in got] == list(METHOD_ORDER[:len(numbers)])
    assert _bits([(m.r2, m.mae, m.wall_time_s) for m in got]) == _bits(numbers)


@_CODEC
@given(st.lists(st.tuples(st.tuples(_FINITE, _FINITE, _FINITE, _FINITE),
                          st.one_of(st.just(-0.0), st.floats(0.0, allow_infinity=False),
                                    st.sampled_from([5e-324, 1.7e308]))),
                min_size=1, max_size=20))
def test_dataset_csv_reads_back_bit_for_bit(tmp_path, rows):
    # negative power is dropped on load, so power draws from [-0.0, max]
    dataset = Dataset(np.array([f for f, _ in rows]).reshape(-1, 4),
                      np.array([p for _, p in rows]))
    path = str(tmp_path / "data.csv")
    write_csv(path, dataset)
    loaded, dropped = load_csv(path)
    assert dropped == 0
    assert _bits(loaded.features) == _bits(dataset.features)
    assert _bits(loaded.power) == _bits(dataset.power)


# the words the package writes into a cell: the empty word, the method ids,
# the column names, the feature-map and ansatz labels (a baseline's slug) and
# the optimizer's stop statuses
_LABELLED = [MethodResult(method_id=m, r2=0.0, mae=0.0, wall_time_s=0.0, seed=0)
             for m in METHOD_ORDER]
_WORDS = st.sampled_from(sorted({
    "", *METHOD_ORDER, *RESULTS_COLUMNS, *(m.feature_map for m in _LABELLED),
    *(m.ansatz for m in _LABELLED), *(getattr(optimizer, name) for name in dir(optimizer)
                                      if name.startswith("STATUS_"))}))
# a cell: a word, an integer, or the repr of a float as format_column makes it
_TABLE_CELLS = st.one_of(_WORDS, st.integers().map(str), _FINITE.map(repr),
                         st.sampled_from([-0.0, 5e-324, 1e16]).map(repr))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 8).flatmap(lambda width: st.tuples(
    st.lists(_WORDS.filter(bool), min_size=width, max_size=width),
    st.lists(st.lists(_TABLE_CELLS, min_size=width, max_size=width), max_size=20))))
def test_write_table_writes_the_bytes_of_csv_writer(tmp_path, table):
    columns, rows = table
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    data.write_table(str(got), columns, rows)
    write_table_oracle(str(want), columns, rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("columns, row", [
    (("a", "b"), ("3.0", "1,5")), (("a", "b"), ("3.0", 'say "hi"')), (("a", "b"), ("3.0", "a\rb")),
    (("a", "b"), ("3.0", "a\nb")), (("a",), ("",))],
    ids=["comma", "quote", "cr", "lf", "one_column"])
def test_write_table_refuses_a_cell_that_needs_quoting(tmp_path, columns, row):
    # csv.writer would quote each of these cells, the lone empty cell of a row too
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: a table of one column, "
                                         "or a cell with a comma, quote, CR or LF$"):
        data.write_table(str(path), columns, [row])
    assert not path.exists()


@pytest.mark.parametrize("fault, message", [
    (b"3,x\n", r"line 3: could not convert string to float: 'x'"),
    (b'"' + b"9" * 131073 + b'"\n', r"line 3: field larger than field limit"),
    (b"4,6\n" * 3000 + b"\xff\n", r"line 3003: not UTF-8"),
], ids=["bad_cell", "oversized_field", "undecodable_byte_past_the_first_read"])
def test_a_reader_stopped_by_a_fault_closes_its_files(tmp_path, monkeypatch, fault, message):
    handles = []

    def spy(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(data, "open", spy, raising=False)
    path = tmp_path / "table.csv"
    path.write_bytes(b"a,b\n1,2\n" + fault + b"5,6\n" * 3000)
    with pytest.raises(DataError, match=message):
        data.read_table(str(path), ("a", "b"), lambda cells: [*map(float, cells)])
    assert handles and all(handle.closed for handle in handles)


# --- split -------------------------------------------------------------------

def _split_order(n: int, seed: int) -> np.ndarray:
    """The row order split puts the train rows, then the test rows, in."""
    rows = Dataset(np.zeros((n, 4)), np.arange(float(n)))
    train, test = split(rows, 0.5, seed=seed)
    return np.concatenate([train.power, test.power]).astype(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 240, 3571, 4464, 16000])
@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5])
def test_shuffle_matches_the_scalar_fisher_yates(n, seed):
    # one broadcast integers call takes the PCG64 stream as n - 1 scalar calls do
    want = fisher_yates_oracle(n, seed)
    got = data._fisher_yates(n, seed)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    if n > 1:
        np.testing.assert_array_equal(_split_order(n, seed), want)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2**128))
def test_split_permutation_matches_the_oracle(n, seed):
    np.testing.assert_array_equal(_split_order(n, seed), fisher_yates_oracle(n, seed))


def test_split_sizes_match_floor_rule():
    dataset = generate_synthetic(4464, seed=1)
    train, test = split(dataset, 0.8, mode="shuffled", seed=42)
    assert len(train) == 3571
    assert len(test) == 893


def test_chronological_split_keeps_file_order():
    dataset = generate_synthetic(100, seed=2)
    train, test = split(dataset, 0.8, mode="chronological")
    np.testing.assert_array_equal(train.features, dataset.features[:80])
    np.testing.assert_array_equal(test.power, dataset.power[80:])


def test_same_seed_same_split():
    dataset = generate_synthetic(200, seed=5)
    a_train, a_test = split(dataset, 0.8, seed=42)
    b_train, b_test = split(dataset, 0.8, seed=42)
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_test.power, b_test.power)


def test_split_partitions_dataset():
    dataset = generate_synthetic(101, seed=6)
    train, test = split(dataset, 0.7, seed=9)
    combined = np.sort(np.concatenate([train.power, test.power]))
    np.testing.assert_array_equal(combined, np.sort(dataset.power))
    assert len(train) + len(test) == 101


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.2, -0.1])
def test_split_rejects_degenerate_fraction(fraction):
    dataset = generate_synthetic(10, seed=7)
    with pytest.raises(ValueError, match="split.fraction"):
        split(dataset, fraction)


@pytest.mark.parametrize("rows", [0, 1])
def test_split_too_small_dataset_is_data_error(rows):
    dataset = generate_synthetic(5, seed=7)
    tiny = Dataset(dataset.features[:rows], dataset.power[:rows])
    with pytest.raises(DataError, match="empty side" if rows else "empty dataset"):
        split(tiny, 0.8)


def test_split_rejects_unknown_mode():
    dataset = generate_synthetic(10, seed=7)
    with pytest.raises(ValueError, match="split.mode"):
        split(dataset, 0.8, mode="sorted")


# --- scaling -----------------------------------------------------------------

def _toy_train():
    features = np.array([
        [0.0, 0.0, 990.0, -5.0],
        [5.0, 180.0, 1010.0, 10.0],
        [10.0, 360.0, 1030.0, 25.0],
    ])
    power = np.array([0.0, 1015.5, 2031.0])
    return Dataset(features, power)


def test_target_scaling_fixed_points():
    spec = fit_scaler(_toy_train())
    scaled = scale_target(spec, np.array([2031.0, 0.0, 1015.5]))
    np.testing.assert_allclose(scaled, [1.0, -1.0, 0.0], atol=1e-12)


def test_training_values_span_exact_ranges():
    train = _toy_train()
    spec = fit_scaler(train)
    scaled = scale_features(spec, train.features)
    np.testing.assert_array_equal(scaled.min(axis=0), np.zeros(4))
    np.testing.assert_array_equal(scaled.max(axis=0), np.full(4, np.pi))
    t = scale_target(spec, train.power)
    assert t.min() == -1.0 and t.max() == 1.0


def test_scale_invert_round_trip():
    spec = fit_scaler(_toy_train())
    rng = np.random.default_rng(11)
    power = rng.uniform(0, 2031, size=20)
    np.testing.assert_allclose(
        invert_target(spec, scale_target(spec, power)), power, atol=1e-9
    )


def test_out_of_range_values_clamp():
    spec = fit_scaler(_toy_train())
    high = scale_features(spec, np.array([[99.0, 400.0, 2000.0, 99.0]]))
    np.testing.assert_allclose(high, np.full((1, 4), np.pi), atol=0)
    low = scale_features(spec, np.array([[-1.0, -1.0, 0.0, -99.0]]))
    np.testing.assert_allclose(low, np.zeros((1, 4)), atol=0)
    assert scale_target(spec, np.array([5000.0]))[0] == 1.0
    assert scale_target(spec, np.array([-10.0]))[0] == -1.0


def test_constant_column_is_scaling_error():
    features = np.ones((3, 4))
    features[:, 0] = [1.0, 2.0, 3.0]
    features[:, 2] = [1.0, 2.0, 3.0]
    features[:, 3] = [1.0, 2.0, 3.0]
    with pytest.raises(DataError, match="'wind_direction' is constant"):
        fit_scaler(Dataset(features, np.array([1.0, 2.0, 3.0])))
    good = np.column_stack([[1, 2, 3]] * 4).astype(float)
    with pytest.raises(DataError, match="'power' is constant"):
        fit_scaler(Dataset(good, np.full(3, 7.0)))


# --- synthetic generator -----------------------------------------------------

def test_power_curve_regions():
    assert ideal_power_curve(2.0) == 0.0
    assert ideal_power_curve(3.4) == 0.0
    assert ideal_power_curve(13.0) == 2031.0
    assert ideal_power_curve(20.0) == 2031.0
    assert ideal_power_curve(25.0) == 2031.0
    assert ideal_power_curve(25.1) == 0.0
    assert ideal_power_curve(8.0) == pytest.approx(442.3108570765392, abs=1e-9)


def test_power_curve_continuous_at_cut_in():
    assert ideal_power_curve(3.5) == pytest.approx(0.0, abs=1e-12)


def test_generate_synthetic_reproducible():
    a = generate_synthetic(500, seed=42)
    b = generate_synthetic(500, seed=42)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.power, b.power)
    c = generate_synthetic(500, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_generate_synthetic_physical_ranges():
    dataset = generate_synthetic(4464, seed=42)
    assert len(dataset) == 4464
    speed, direction = dataset.features[:, 0], dataset.features[:, 1]
    assert speed.min() >= 0.0
    assert direction.min() >= 0.0 and direction.max() < 360.0
    assert dataset.power.min() >= 0.0
    assert dataset.power.max() <= 2031.0 + 200.0  # rated plus noise headroom
    assert dataset.power.max() > 1900.0  # plateau reached in a big sample


def test_generate_synthetic_rejects_zero_rows():
    with pytest.raises(ValueError, match="n_rows"):
        generate_synthetic(0, seed=1)


def test_generate_synthetic_refuses_rows_beyond_numpy_indexing():
    # the byte count is checked before any draw, so nothing huge is requested
    with pytest.raises(DataError, match=f"n_rows {sys.maxsize}"):
        generate_synthetic(sys.maxsize, seed=1)


def test_generate_synthetic_reports_allocation_failure(monkeypatch):
    def out_of_memory(speed):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(data, "ideal_power_curve", out_of_memory)
    with pytest.raises(DataError, match="n_rows 10 does not fit in memory") as info:
        generate_synthetic(10, seed=1)
    assert isinstance(info.value.__cause__, MemoryError)
