"""Baseline regressor tests against brute-force oracles and fixed cases."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windqnn.baselines import (
    KNN_BLOCK_DISTANCES,
    fit_cart,
    fit_knn,
    fit_ols,
    predict_cart,
    predict_knn,
    predict_ols,
)
from windqnn.evaluate import mae, r2

from oracles import cart_model_tree, cart_tree_oracle, knn_predict_oracle


# --- kNN ---------------------------------------------------------------------

def test_knn_k1_recovers_training_point():
    rng = np.random.default_rng(21)
    features = rng.normal(size=(30, 4))
    targets = rng.normal(size=30)
    model = fit_knn(features, targets, k=1)
    np.testing.assert_allclose(predict_knn(model, features), targets, atol=0)


def test_knn_k_equals_n_gives_global_mean():
    rng = np.random.default_rng(22)
    features = rng.normal(size=(12, 4))
    targets = rng.normal(size=12)
    model = fit_knn(features, targets, k=12)
    queries = rng.normal(size=(3, 4))
    got = predict_knn(model, queries)
    np.testing.assert_allclose(got, np.full(3, targets.mean()), atol=1e-12)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, 12, queries))


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    features = rng.normal(size=(40, 4))
    targets = rng.normal(size=40)
    queries = rng.normal(size=(15, 4))
    model = fit_knn(features, targets, k=3)
    got = predict_knn(model, queries)
    for qi, q in enumerate(queries):
        ranked = sorted(
            range(40), key=lambda j: (float(((features[j] - q) ** 2).sum()), j)
        )
        want = targets[ranked[:3]].mean()
        assert got[qi] == pytest.approx(want, abs=1e-12)


def test_knn_distance_ties_break_to_lower_index():
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    targets = np.array([10.0, 20.0, 30.0])
    model = fit_knn(features, targets, k=1)
    # query equidistant from rows 0 and 1: row 0 wins
    assert predict_knn(model, np.array([[0.0, 0.0]]))[0] == 10.0


def test_knn_tie_block_straddling_kth_takes_lower_indices():
    # rows 2, 5, 6 and 7 all sit on the query, so k = 3 cuts through the tie
    # block; a plain argpartition keeps rows 2, 6 and 7 here, and the stable
    # rule wants 2, 5 and 6
    features = np.array([[1.0], [1.0], [0.0], [2.0], [2.0], [0.0], [0.0], [0.0]])
    targets = 2.0 ** np.arange(8)  # every subset has its own mean
    model = fit_knn(features, targets, k=3)
    want = targets[[2, 5, 6]].mean()
    np.testing.assert_array_equal(predict_knn(model, np.zeros((2, 1))), [want, want])


def test_knn_spanning_several_chunks_matches_oracle():
    # a window of all 5000 training rows leaves room for 13 queries in a
    # distance block, so 40 queries that need it take four blocks, the
    # last one partial
    per_block = KNN_BLOCK_DISTANCES // 5000
    assert 1 < per_block and 40 > 2 * per_block and 40 % per_block
    rng = np.random.default_rng(24)
    features = np.round(rng.uniform(size=(5000, 4)), 2)
    targets = rng.normal(size=5000)
    queries = np.round(rng.uniform(size=(40, 4)), 2)
    got = predict_knn(fit_knn(features, targets, k=5), queries)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, 5, queries))


def test_knn_training_set_beyond_one_block_takes_one_query_per_block():
    # a window of every row is longer than a distance block, so a block
    # whose queries need it holds one query
    n_train = KNN_BLOCK_DISTANCES + 4464
    rng = np.random.default_rng(26)
    features = np.round(rng.uniform(size=(n_train, 4)), 1)
    targets = rng.normal(size=n_train)
    queries = np.round(rng.uniform(size=(3, 4)), 1)
    got = predict_knn(fit_knn(features, targets, k=5), queries)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, 5, queries))


def test_knn_ties_straddling_a_block_boundary_match_oracle():
    # a 3 x 3 grid of 4096 duplicated rows puts hundreds of rows at every
    # distance; queries 10-25 are one point, and a window of every row
    # leaves room for 16 queries in a block, so a block that needs it ends
    # inside that run
    n_train = 4096
    per_block = KNN_BLOCK_DISTANCES // n_train
    assert 10 < per_block < 25
    rng = np.random.default_rng(27)
    features = rng.integers(0, 3, size=(n_train, 2)) / 2
    targets = rng.normal(size=n_train)
    queries = rng.integers(0, 5, size=(40, 2)) / 4
    queries[10:26] = [0.25, 0.5]
    got = predict_knn(fit_knn(features, targets, k=7), queries)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, 7, queries))
    assert np.all(got[10:26] == got[10])


def test_knn_predict_holds_its_distance_blocks_in_a_few_megabytes():
    # the two distance buffers are reused; per-block temporaries are the
    # size of one block, not of the whole distance matrix
    rng = np.random.default_rng(28)
    model = fit_knn(rng.uniform(size=(12800, 4)), rng.normal(size=12800), k=5)
    queries = rng.uniform(size=(800, 4))
    tracemalloc.start()
    try:
        predict_knn(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@st.composite
def tie_heavy_knn_cases(draw):
    width = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 3))
    coords = st.integers(0, levels).map(lambda v: v / levels)
    rows = draw(st.lists(st.lists(coords, min_size=width, max_size=width),
                         min_size=1, max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))  # duplicated rows
    queries = draw(st.lists(st.lists(coords, min_size=width, max_size=width),
                            min_size=1, max_size=8))
    targets = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(rows), max_size=len(rows)))
    k = draw(st.integers(1, len(rows)))
    return np.array(rows), np.array(targets), k, np.array(queries)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_knn_cases())
def test_knn_matches_stable_sort_oracle_on_ties(case):
    features, targets, k, queries = case
    got = predict_knn(fit_knn(features, targets, k), queries)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, k, queries))


@st.composite
def windowed_knn_cases(draw):
    # up to 300 rows: the first window is a fraction of them, so queries are
    # done early, retried wider or end on the full window; few decimals tie
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    decimals = draw(st.integers(0, 3))
    scale = rng.uniform(0.1, 10, size=width)  # one feature spreads widest
    features = np.round(rng.normal(size=(n, width)) * scale, decimals)
    queries = np.round(rng.normal(size=(draw(st.integers(1, 20)), width)) * 2 * scale, decimals)
    return features, rng.normal(size=n), draw(st.integers(1, n)), queries


@settings(max_examples=150, deadline=None)
@given(windowed_knn_cases())
def test_knn_windows_match_stable_sort_oracle(case):
    features, targets, k, queries = case
    got = predict_knn(fit_knn(features, targets, k), queries)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, k, queries))


def _assert_knn_matches_oracle(features, targets, k, queries):
    got = predict_knn(fit_knn(features, targets, k), queries)
    np.testing.assert_array_equal(got, knn_predict_oracle(features, targets, k, queries))


def test_knn_sorts_on_the_feature_with_the_largest_spread():
    rng = np.random.default_rng(30)
    features = rng.uniform(size=(2000, 4)) * [1.0, 1.0, 3.0, 1.0]
    model = fit_knn(features, rng.normal(size=2000), k=5)
    assert model.axis == 2
    np.testing.assert_array_equal(model.columns, features[model.order].T)
    assert np.all(np.diff(model.columns[2]) >= 0) and model.columns.flags.c_contiguous


def test_knn_queries_beyond_both_ends_of_the_sorted_axis_match_oracle():
    rng = np.random.default_rng(31)
    features = rng.uniform(size=(2000, 4)) * [1.0, 1.0, 3.0, 1.0]
    queries = rng.uniform(size=(40, 4))
    queries[:, 2] = np.repeat([-5.0, -1e-9, 3.0 + 1e-9, 50.0], 10)
    _assert_knn_matches_oracle(features, rng.normal(size=2000), 5, queries)


def test_knn_constant_sort_axis_matches_oracle():
    # every key is equal, so no gap ever clears a query: each one ends on
    # the full window, where every row ties and the lowest indices win
    rng = np.random.default_rng(32)
    queries = rng.uniform(size=(30, 3))
    queries[:5, 0] = 0.5
    _assert_knn_matches_oracle(np.full((500, 3), 0.5), rng.normal(size=500), 7, queries)


def test_knn_row_just_outside_the_window_tying_the_kth_distance_wins():
    # rows 0-9 sit at -1 and rows 10-49 at +1; the first window of the query
    # at 0 reaches 50 // 8 = 6 rows each way, rows 4-15, all at distance 1,
    # and its gap to row 3 is also 1, so the query must widen: row 0 is the
    # stable answer
    features = np.repeat([-1.0, 1.0], [10, 40])[:, None]
    targets = np.arange(50.0)
    assert predict_knn(fit_knn(features, targets, k=1), np.zeros((1, 1)))[0] == 0.0


def test_knn_clustered_rows_widen_the_window():
    # rows with a sort key within 20 of the query's sit 30 away on the other
    # feature, so the true neighbours are beyond the first window's reach
    rng = np.random.default_rng(33)
    x0 = rng.uniform(0, 100, size=1600)
    features = np.column_stack([x0, np.where(np.abs(x0 - 50) < 20, 30.0, 0.0)])
    targets = rng.normal(size=1600)
    model = fit_knn(features, targets, k=5)
    assert model.axis == 0 and np.count_nonzero(np.abs(x0 - 50) < 20) > 2 * 1600 // 8
    _assert_knn_matches_oracle(features, targets, 5, np.array([[50.0, 0.0], [45.0, 0.0]]))


def test_knn_fewer_training_rows_than_one_window_matches_oracle():
    # 4 // 8 is 0, so the first window reaches k rows each way from the
    # query's key; it covers all 4 rows once widened, and at once for k = n
    rng = np.random.default_rng(35)
    features, targets = rng.normal(size=(4, 3)), rng.normal(size=4)
    for k in (2, 4):
        _assert_knn_matches_oracle(features, targets, k, rng.normal(size=(12, 3)) * 3)


def test_knn_nan_and_inf_queries_return_the_oracles_values():
    rng = np.random.default_rng(36)
    features = rng.uniform(size=(400, 3))
    queries = rng.uniform(size=(8, 3))
    queries[0, :] = np.nan
    queries[1, 1] = np.nan
    queries[2, 0], queries[3, 2] = np.inf, -np.inf
    queries[4] = [np.inf, -np.inf, np.nan]
    _assert_knn_matches_oracle(features, rng.normal(size=400), 5, queries)


@pytest.mark.parametrize("fit", [fit_knn, fit_cart, fit_ols], ids=lambda fit: fit.__name__)
def test_fit_rejects_targets_that_do_not_match_the_feature_rows(fit):
    features = np.random.default_rng(37).normal(size=(10, 2))
    for n_targets in (12, 8):
        with pytest.raises(ValueError, match=f"got {n_targets} targets for 10 feature rows"):
            fit(features, np.zeros(n_targets))
    with pytest.raises(ValueError, match=r"features must be 2-D, got shape \(10,\)"):
        fit(features[:, 0], np.zeros(10))


@pytest.mark.parametrize("fit", [fit_knn, fit_cart, fit_ols], ids=lambda f: f.__name__)
def test_fit_names_the_first_non_finite_row(fit):
    # fit_ols raised a raw LinAlgError on a NaN feature, and fit_cart and
    # fit_knn fitted non-finite rows without a word
    features = np.random.default_rng(38).normal(size=(10, 3))
    targets = np.zeros(10)
    for value in (np.nan, np.inf, -np.inf):
        bad = features.copy()
        bad[6, 2] = bad[4, 1] = value
        with pytest.raises(ValueError, match=f"features row 4, column 1 is {value}, not finite"):
            fit(bad, targets)
        bad_targets = targets.copy()
        bad_targets[[7, 9]] = value
        with pytest.raises(ValueError, match=f"targets row 7 is {value}, not finite"):
            fit(features, bad_targets)


def test_predict_rejects_query_width_mismatch():
    rng = np.random.default_rng(25)
    features = rng.normal(size=(20, 4))
    targets = rng.normal(size=20)
    models = [
        (predict_knn, fit_knn(features, targets, 3)),
        (predict_cart, fit_cart(features, targets)),
        (predict_ols, fit_ols(features, targets)),
    ]
    for predict, model in models:
        for width in (1, 5):
            with pytest.raises(ValueError, match=f"queries have {width} columns, "
                                                 "the model expects 4"):
                predict(model, np.zeros((2, width)))


def test_knn_rejects_bad_k():
    features = np.zeros((5, 2))
    targets = np.zeros(5)
    with pytest.raises(ValueError, match="k must be"):
        fit_knn(features, targets, k=6)
    with pytest.raises(ValueError, match="k must be"):
        fit_knn(features, targets, k=0)


# --- CART --------------------------------------------------------------------

def _oracle_split(features, targets):
    # Exhaustive scan over every feature and midpoint threshold by direct SSE.
    best = None
    for f in range(features.shape[1]):
        distinct = sorted(set(features[:, f].tolist()))
        for a, b in zip(distinct, distinct[1:]):
            thr = 0.5 * (a + b)
            mask = features[:, f] <= thr
            left, right = targets[mask], targets[~mask]
            sse = float(((left - left.mean()) ** 2).sum()) + float(
                ((right - right.mean()) ** 2).sum()
            )
            if best is None or sse < best[0]:
                best = (sse, f, thr)
    return best


def _oracle_tree(features, targets):
    if np.all(targets == targets[0]) or len(targets) < 2:
        return float(targets.mean())
    found = _oracle_split(features, targets)
    if found is None:
        return float(targets.mean())
    _, f, thr = found
    mask = features[:, f] <= thr
    return (
        float(targets.mean()),
        f,
        thr,
        _oracle_tree(features[mask], targets[mask]),
        _oracle_tree(features[~mask], targets[~mask]),
    )


def test_cart_matches_exhaustive_oracle_on_hand_dataset():
    features = np.array([
        [0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0],
        [4.0, 0.0], [5.0, 0.0], [6.0, 1.0], [7.0, 1.0],
    ])
    targets = np.array([0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 20.0, 20.0])
    model = fit_cart(features, targets)
    assert cart_model_tree(model) == _oracle_tree(features, targets)
    # root split is x0 <= 3.5; the (x0, 5.5) vs (x1, 0.5) tie in the right
    # child resolves to the lower feature index
    right = model.left[0] + 1
    assert model.feature[0] == 0 and model.threshold[0] == 3.5
    assert model.feature[right] == 0 and model.threshold[right] == 5.5


@st.composite
def cart_cases(draw):
    rows = draw(st.integers(1, 40))
    width = draw(st.integers(1, 4))
    if draw(st.booleans()):  # coarse: few distinct values, many ties
        values = st.integers(0, 3).map(float)
        targets = st.integers(0, 4).map(float)
    else:
        values = st.floats(-10, 10)
        targets = st.floats(-1e3, 1e3)
    features = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    ys = draw(st.lists(targets, min_size=rows, max_size=rows))
    max_depth = draw(st.none() | st.integers(0, 5))
    min_samples_split = draw(st.integers(2, 8))
    return np.array(features).reshape(rows, width), np.array(ys), max_depth, min_samples_split


@settings(max_examples=150, deadline=None)
@given(cart_cases())
def test_cart_matches_per_feature_scan_oracle(case):
    features, targets, max_depth, min_samples_split = case
    model = fit_cart(features, targets, max_depth, min_samples_split)
    want = cart_tree_oracle(features, targets, max_depth, min_samples_split)
    assert cart_model_tree(model) == want


@st.composite
def size_batched_cart_cases(draw):
    # Enough rows that one row count holds many sibling nodes, so a batch
    # splits many nodes at once.  Coarse cases draw 2-4 levels per column
    # and repeat rows outright; continuous cases have almost no ties.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(50, 400))
    width = draw(st.integers(1, 4))
    if draw(st.booleans()):
        levels = draw(st.integers(2, 4))
        distinct = draw(st.integers(1, rows))
        pick = rng.integers(0, distinct, size=rows)
        features = rng.integers(0, levels, size=(distinct, width)).astype(float)[pick]
        targets = rng.integers(0, 5, size=distinct).astype(float)[pick]
        targets[rng.random(rows) < 0.2] += 1.0  # duplicated rows need not agree
    else:
        features = rng.normal(size=(rows, width))
        targets = rng.normal(scale=100.0, size=rows)
    max_depth = draw(st.none() | st.integers(0, 8))
    min_samples_split = draw(st.integers(2, 8))
    return features, targets, max_depth, min_samples_split


@settings(max_examples=60, deadline=None)
@given(size_batched_cart_cases())
def test_cart_batches_match_depth_first_reference(case):
    features, targets, max_depth, min_samples_split = case
    model = fit_cart(features, targets, max_depth, min_samples_split)
    want = cart_tree_oracle(features, targets, max_depth, min_samples_split)
    assert cart_model_tree(model) == want


def _walk(model, query):
    # the node-by-node descent: q <= threshold goes left, anything else right
    node = 0
    while model.feature[node] != -1:
        left = model.left[node]
        node = left if query[model.feature[node]] <= model.threshold[node] else left + 1
    return model.value[node]


@settings(max_examples=100, deadline=None)
@given(cart_cases() | size_batched_cart_cases(), st.data())
def test_cart_array_descent_matches_a_walk_of_the_tree(case, data):
    features, targets, max_depth, min_samples_split = case
    model = fit_cart(features, targets, max_depth, min_samples_split)

    split = np.flatnonzero(model.feature >= 0)
    leaves = np.flatnonzero(model.feature < 0)
    assert model.value.size == 2 * split.size + 1
    assert (model.feature[leaves] == -1).all() and (model.left[leaves] == -1).all()
    # every node but the root is the child of exactly one split node, the
    # right child of each split node being its left child's id plus one
    children = np.concatenate([model.left[split], model.left[split] + 1])
    np.testing.assert_array_equal(np.sort(children), np.arange(1, model.value.size))

    # queries built from the thresholds themselves, training values, NaN and +-inf
    cells = sorted(set(model.threshold[split].tolist()) | set(features.ravel().tolist()))
    cells += [np.nan, np.inf, -np.inf]
    width = features.shape[1]
    flat = data.draw(st.lists(st.sampled_from(cells), min_size=width, max_size=30 * width))
    queries = np.array(flat[: len(flat) // width * width]).reshape(-1, width)
    queries = np.vstack([queries, features])
    want = np.array([_walk(model, q) for q in queries])
    np.testing.assert_array_equal(predict_cart(model, queries), want)


def test_cart_matches_depth_first_reference_on_3000_rows():
    rng = np.random.default_rng(35)
    features = rng.uniform(size=(3000, 4))
    targets = 2000.0 * features[:, 0] ** 3 + rng.normal(scale=30.0, size=3000)
    model = fit_cart(features, targets)
    assert cart_model_tree(model) == cart_tree_oracle(features, targets)


def test_cart_ranks_wider_than_16_bits_match_the_depth_first_reference():
    # more than 65 535 rows take 32-bit ranks; -0.0 and 0.0 are one value and
    # share a rank, so rows holding either keep their order in a sort
    rng = np.random.default_rng(37)
    codes = rng.integers(0, 4, size=(70_000, 3))
    features = np.array([-0.0, 0.0, 0.5, 1.0])[codes]
    # the target depends on the distinct row alone, so the tree stays small,
    # and its sums round differently in another order
    distinct = np.maximum(codes - 1, 0)
    targets = rng.normal(scale=100.0, size=(3, 3, 3))[tuple(distinct.T)]
    model = fit_cart(features, targets)
    assert cart_model_tree(model) == cart_tree_oracle(features, targets)
    assert model.value.size == 2 * 3**3 - 1


def test_cart_fit_holds_its_work_arrays_in_a_few_megabytes():
    # a pass's arrays are freed before the next pass allocates; the node
    # arrays (2 * rows - 1 entries each) are about 0.8 MB of the peak
    rng = np.random.default_rng(36)
    features = rng.uniform(size=(12800, 4))
    targets = 2000.0 * features[:, 0] ** 3 + rng.normal(scale=30.0, size=12800)
    tracemalloc.start()
    try:
        fit_cart(features, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_cart_memorizes_distinct_features():
    rng = np.random.default_rng(31)
    features = rng.normal(size=(25, 3))
    targets = rng.normal(size=25)
    model = fit_cart(features, targets)
    assert r2(targets, predict_cart(model, features)) == pytest.approx(1.0)


def test_cart_constant_targets_single_leaf():
    features = np.arange(12, dtype=float).reshape(6, 2)
    model = fit_cart(features, np.full(6, 3.25))
    assert model.feature[0] == -1
    np.testing.assert_allclose(predict_cart(model, features), np.full(6, 3.25))


def test_cart_predictions_piecewise_constant():
    rng = np.random.default_rng(33)
    features = rng.normal(size=(40, 2))
    targets = rng.normal(size=40)
    model = fit_cart(features, targets, max_depth=3)
    queries = rng.normal(size=(10, 2))
    base = predict_cart(model, queries)
    nudged = predict_cart(model, queries + 1e-12)
    np.testing.assert_array_equal(base, nudged)


def test_cart_respects_stopping_controls():
    rng = np.random.default_rng(34)
    features = rng.normal(size=(64, 2))
    targets = rng.normal(size=64)

    stump = fit_cart(features, targets, max_depth=1)
    assert stump.feature[0] != -1
    assert stump.feature[stump.left[0]] == -1 and stump.feature[stump.left[0] + 1] == -1

    model = fit_cart(features, targets, min_samples_split=8)

    def check(node, idx):  # every split node must hold >= 8 samples
        if model.feature[node] == -1:
            return
        assert len(idx) >= 8
        mask = features[idx, model.feature[node]] <= model.threshold[node]
        check(model.left[node], idx[mask])
        check(model.left[node] + 1, idx[~mask])

    check(0, np.arange(64))


def test_cart_rejects_bad_arguments():
    with pytest.raises(ValueError, match="empty"):
        fit_cart(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="min_samples_split"):
        fit_cart(np.zeros((3, 2)), np.arange(3.0), min_samples_split=1)


# --- OLS ---------------------------------------------------------------------

def test_ols_recovers_exact_linear_relation():
    rng = np.random.default_rng(41)
    features = rng.normal(size=(50, 3))
    targets = 2.0 * features[:, 1] + 1.0
    model = fit_ols(features, targets)
    np.testing.assert_allclose(model.coefficients, [0.0, 2.0, 0.0], atol=1e-10)
    assert model.intercept == pytest.approx(1.0, abs=1e-10)


def test_ols_constant_target():
    rng = np.random.default_rng(42)
    features = rng.normal(size=(20, 4))
    model = fit_ols(features, np.full(20, 7.5))
    np.testing.assert_allclose(model.coefficients, np.zeros(4), atol=1e-10)
    assert model.intercept == pytest.approx(7.5, abs=1e-10)


def test_ols_matches_pseudo_inverse_oracle():
    rng = np.random.default_rng(43)
    features = rng.normal(size=(60, 4))
    targets = rng.normal(size=60)
    model = fit_ols(features, targets)
    design = np.column_stack([features, np.ones(60)])
    want = np.linalg.pinv(design) @ targets
    np.testing.assert_allclose(model.coefficients, want[:-1], atol=1e-8)
    assert model.intercept == pytest.approx(want[-1], abs=1e-8)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(44)
    features = rng.normal(size=(80, 4))
    targets = rng.normal(size=80)
    model = fit_ols(features, targets)
    residuals = targets - predict_ols(model, features)
    design = np.column_stack([features, np.ones(80)])
    bound = 1e-6 * np.linalg.norm(targets)
    assert np.all(np.abs(design.T @ residuals) <= bound)


def test_ols_names_rank_deficient_column():
    rng = np.random.default_rng(45)
    features = rng.normal(size=(30, 3))
    features[:, 2] = 2.0 * features[:, 0]  # exact duplicate direction
    names = ["wind_speed", "wind_direction", "pressure"]
    with pytest.raises(ValueError, match="rank deficient at column 'pressure'"):
        fit_ols(features, rng.normal(size=30), column_names=names)


def test_ols_needs_more_rows_than_columns():
    with pytest.raises(ValueError, match="more samples"):
        fit_ols(np.zeros((3, 4)), np.zeros(3))


def test_baselines_deterministic():
    rng = np.random.default_rng(46)
    features = rng.normal(size=(50, 4))
    targets = rng.normal(size=50)
    queries = rng.normal(size=(9, 4))
    a = predict_cart(fit_cart(features, targets), queries)
    b = predict_cart(fit_cart(features, targets), queries)
    np.testing.assert_array_equal(a, b)
    c = fit_ols(features, targets)
    d = fit_ols(features, targets)
    np.testing.assert_array_equal(c.coefficients, d.coefficients)
    e = predict_knn(fit_knn(features, targets, 5), queries)
    f = predict_knn(fit_knn(features, targets, 5), queries)
    np.testing.assert_array_equal(e, f)


def test_knn_k1_training_mae_is_zero():
    rng = np.random.default_rng(47)
    features = rng.normal(size=(40, 4))
    targets = rng.normal(size=40)
    model = fit_knn(features, targets, k=1)
    assert mae(targets, predict_knn(model, features)) == 0.0
