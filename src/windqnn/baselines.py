"""From-scratch classical regressors: k-nearest neighbors, CART, OLS.

All three consume min-max-scaled features (the same scaler the quantum
models use) and predict power in kW directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


def _check_width(queries: np.ndarray, width: int) -> np.ndarray:
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != width:
        raise ValueError(f"queries have {queries.shape[1]} columns, the model expects {width}")
    return queries


def _check_rows(features: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if targets.shape != features.shape[:1]:
        raise ValueError(f"got {targets.size} targets for {features.shape[0]} feature rows")
    if not np.isfinite(features).all():
        row, column = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(f"features row {row}, column {column} is {features[row, column]}, "
                         f"not finite")
    if not np.isfinite(targets).all():
        row = np.flatnonzero(~np.isfinite(targets))[0]
        raise ValueError(f"targets row {row} is {targets[row]}, not finite")
    return features, targets


# --- k-nearest neighbors -----------------------------------------------------

# distances per query block of predict_knn: 2**16 float64 are 512 KB a buffer
KNN_BLOCK_DISTANCES = 2**16

@dataclass(frozen=True)
class KnnModel:
    k: int
    targets: np.ndarray
    axis: int  # the feature with the largest standard deviation
    order: np.ndarray  # the training rows sorted on that feature
    columns: np.ndarray  # (d, n): features[order].T, contiguous


def fit_knn(features: np.ndarray, targets: np.ndarray, k: int = 5) -> KnnModel:
    features, targets = _check_rows(features, targets)
    if not 1 <= k <= targets.shape[0]:
        raise ValueError(f"k must be in [1, {targets.shape[0]}], got {k}")
    axis = int(np.argmax(features.std(axis=0)))
    order = np.argsort(features[:, axis], kind="stable")
    return KnnModel(k=k, targets=targets, axis=axis, order=order,
                    columns=np.ascontiguousarray(features[order].T))


def predict_knn(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Mean target of the k nearest training rows by Euclidean distance.

    Distance ties break toward the lower training-row index, as a stable
    sort would.  ``argpartition`` keeps k candidates per query and they are
    ordered by (distance, index); a query where an unselected row ties the
    k-th distance falls back to a stable sort of its window.

    Queries go in ``model.axis`` order; a block of them scans one window of
    the sorted rows, ``reach`` (n // 8, at least k) past its first and last
    key, in at most ``KNN_BLOCK_DISTANCES`` distances unless one query needs
    more.  Rounded subtraction, squaring and sums of non-negative terms are
    monotone, so a row outside the window is at least the squared key gap
    away: a query whose k-th distance is below that is done, the rest retry
    with 4x the reach.  A window that covers every row is final, NaN too.
    """
    queries = _check_width(queries, model.columns.shape[0])
    keys, (d, n), k = model.columns[model.axis], model.columns.shape, model.k
    buffers = np.empty((2, max(KNN_BLOCK_DISTANCES, n)))  # refilled in place
    out = np.empty(queries.shape[0])
    pending = np.argsort(queries[:, model.axis], kind="stable")
    reach = max(k, n // 8)
    while pending.size:
        q_keys = queries[pending, model.axis]
        lo = np.maximum(np.searchsorted(keys, q_keys, "left") - reach, 0)
        hi = np.minimum(np.searchsorted(keys, q_keys, "right") + reach, n)
        retry, i = [], 0
        while i < pending.size:
            # the most queries whose shared window fits a block, at least one
            cap = min(pending.size - i, KNN_BLOCK_DISTANCES // (hi[i] - lo[i]))
            m = max(1, np.count_nonzero(
                np.arange(1, cap + 1) * (hi[i : i + cap] - lo[i]) <= KNN_BLOCK_DISTANCES))
            a, b, rows = lo[i], hi[i + m - 1], pending[i : i + m]
            q, columns, index = queries[rows], model.columns[:, a:b], model.order[a:b]
            d2, term = buffers[:, : m * (b - a)].reshape(2, m, b - a)
            # feature by feature in order, as a sum from zero would add them
            np.subtract(q[:, 0, None], columns[0], out=d2)
            np.square(d2, out=d2)
            for f in range(1, d):
                np.subtract(q[:, f, None], columns[f], out=term)
                np.square(term, out=term)
                d2 += term
            part = np.argpartition(d2, k - 1, axis=1)[:, :k]
            part_d2 = np.take_along_axis(d2, part, axis=1)
            nearest = index[part]
            nearest = np.take_along_axis(nearest, np.lexsort((nearest, part_d2), axis=1), axis=1)
            kth = part_d2.max(axis=1)
            gap = np.minimum(q[:, model.axis] - keys[a - 1] if a > 0 else np.inf,
                             keys[b] - q[:, model.axis] if b < n else np.inf)
            done = (kth < np.square(gap)) | (a == 0 and b == n)
            tied = np.count_nonzero(d2 <= kth[:, None], axis=1) != k
            for row in np.flatnonzero(done & tied):
                nearest[row] = index[np.lexsort((index, d2[row]))[:k]]
            out[rows[done]] = model.targets[nearest[done]].mean(axis=1)
            retry.append(rows[~done])
            i += m
        pending, reach = np.concatenate(retry), 4 * reach
    return out


# --- CART regression tree ----------------------------------------------------

@dataclass(slots=True)
class TreeNode:
    value: float
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class CartModel:
    """A tree as node arrays indexed by node id; the root is node 0.

    ``feature`` is the split feature (-1 at a leaf), ``threshold`` the split
    threshold (NaN at a leaf), ``left`` the left child's id (-1 at a leaf;
    the right child is left + 1) and ``value`` the node's training mean.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    n_features: int

    @property
    def root(self) -> TreeNode:
        """The same tree as linked ``TreeNode`` objects, built on each call."""
        nodes = [TreeNode(value) for value in self.value.tolist()]
        for node, feature, threshold, left in zip(
                nodes, self.feature.tolist(), self.threshold.tolist(), self.left.tolist()):
            if feature >= 0:
                node.feature, node.threshold = feature, threshold
                node.left, node.right = nodes[left], nodes[left + 1]
        return nodes[0]


# a pass of fit_cart splits every pending row count above this share of its largest
CART_BAND_RATIO = 0.75


def _split_band(ranks: np.ndarray, shift: int, block: np.ndarray, t: np.ndarray,
                sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best split of each of b nodes, scored in one numpy pass.

    ``block`` holds the nodes' rows padded to N with the sentinel, ``t``
    their targets and ``sizes`` their row counts.  Returns the nodes with a
    cut (row indices k of ``block``), and for each its split feature, the
    sorted position its left part ends at, and its rows in that feature's
    sorted order.  The work arrays are (d, b, N), so the sort and the prefix
    sums run along the contiguous axis.
    """
    b, n = block.shape
    keys = np.take(ranks, block, axis=1)
    keys |= np.arange(n, dtype=keys.dtype)  # a row's position in its node, below its rank
    keys.sort(axis=2)  # distinct keys: any sort is the stable sort of the ranks
    low = (1 << shift) - 1
    # order[f, j]: node j's block positions in feature f's sorted order, as flat indices
    order = np.bitwise_and(keys, low, dtype=int)
    order += np.arange(0, b * n, n)[:, None]
    s1 = np.take(t, order)  # the targets in each feature's sorted order
    del order
    sorted_ranks = keys >> shift
    tied = sorted_ranks[:, :, 1:] == sorted_ranks[:, :, :-1]  # [..., i]: no cut after row i
    del sorted_ranks
    s2 = np.square(s1)
    np.cumsum(s1, axis=2, out=s1)
    np.cumsum(s2, axis=2, out=s2)
    # (left2 - left1**2 / n_left) + ((total2 - left2) - (total1 - left1)**2 / n_right),
    # the right part in place in s1 and s2
    left1, left2 = s1[:, :, :-1], s2[:, :, :-1]
    total1, total2 = s1[:, :, -1:].copy(), s2[:, :, -1:].copy()  # apart from the output
    n_left = np.arange(1.0, n)
    sse = np.square(left1)
    sse /= n_left
    np.subtract(left2, sse, out=sse)
    np.subtract(total1, left1, out=left1)
    np.square(left1, out=left1)
    n_right = sizes[:, None] - n_left
    left1 /= np.maximum(n_right, 1.0, out=n_right)
    np.subtract(total2, left2, out=left2)
    left2 -= left1
    sse += left2
    del s1, s2, left1, left2
    np.copyto(sse, np.inf, where=tied)
    short = np.flatnonzero(sizes < n)
    sse[:, short, sizes[short] - 1] = np.inf  # the cut between a node and its padding
    cuts = sse.argmin(axis=2)  # each feature's first minimum: its lowest threshold
    best = np.take_along_axis(sse, cuts[:, :, None], axis=2)[:, :, 0]
    k = np.flatnonzero(np.isfinite(best.min(axis=0)))
    f = best[:, k].argmin(axis=0)  # the first feature holding the smallest minimum
    positions = np.bitwise_and(keys[f, k], low, dtype=int)
    return k, f, cuts[f, k], np.take_along_axis(block[k], positions, axis=1)


def fit_cart(
    features: np.ndarray,
    targets: np.ndarray,
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
) -> CartModel:
    """Greedy variance-reduction tree; leaves predict their training mean.

    A split scans every (feature, midpoint threshold) pair by child SSE: one
    stable sort per column and prefix sums score every cut at once, and a
    position between equal values is no cut (+inf).  Ties go to the lowest
    feature, then to the lowest threshold.  A split node's rows pass to its
    children in the split feature's sorted order, left part first.

    Columns are sorted on their dense ranks, taken once per fit: equal
    values (-0.0 and 0.0 too) share a rank.  A sort key holds the rank in
    its high half and the row's position in its node in the low half, so
    the keys of a node are distinct and sorting them is the stable sort of
    the values.  Ranks are ``np.min_scalar_type(rows)`` integers, so the
    keys are 32 bits up to 65 535 rows.

    The tree grows by node size, not depth first.  ``rows`` is one
    permutation of the training rows, and every pending node owns a
    contiguous segment of it.  A pass takes the largest pending row count N
    and the next ones down while they exceed ``CART_BAND_RATIO`` * N and
    all b nodes taken fit b * N <= rows; a child is smaller than its
    parent, so each band comes up once.  Each node is padded to N rows with
    a sentinel that ranks last in every column and has target 0.0, and the
    b nodes are split in one numpy pass (``_split_band``); a cut at or past
    a node's own row count is no cut.  The tree equals a node-by-node build
    bit for bit: each block row goes through the same elementwise
    operations, the padding adds 0.0 after a node's last row, ``cumsum``
    adds sequentially along any axis, the sort is taken per row, and a
    node's mean is the mean of a row slice of its own length, which equals
    the 1-D mean.  A pass gives its split nodes' children the next free ids
    and writes the node arrays once.
    """
    features, targets = _check_rows(features, targets)
    n_rows, d = features.shape
    if n_rows == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")

    # each column's dense rank, shifted to the high half of a sort key; row
    # n_rows is the sentinel, last in every column
    rank_type = np.min_scalar_type(n_rows)
    shift = 8 * rank_type.itemsize
    ranks = np.empty((d, n_rows + 1), f"u{2 * rank_type.itemsize}")
    ranks[:, n_rows] = n_rows
    for f in range(d):
        order = np.argsort(features[:, f], kind="stable")
        column = features[order, f]
        ranks[f, order[0]] = 0
        ranks[f, order[1:]] = np.cumsum(column[1:] != column[:-1])
    ranks <<= shift
    padded_targets = np.append(targets, 0.0)

    # node arrays by id, sized for the largest tree on these rows; a page of
    # them is touched only when a node on it comes up
    feature, left, threshold, value = (np.empty(2 * n_rows - 1, dtype)
                                       for dtype in (int, int, float, float))
    # the segments' permutation; slot n_rows holds the sentinel, which padding reads and writes
    rows = np.arange(n_rows + 1)
    # row count -> chunks of pending nodes, (3, m) arrays of node ids, segment starts, depths
    pending: Dict[int, List[np.ndarray]] = {n_rows: [np.zeros((3, 1), dtype=int)]}

    def grow(count: int) -> int:
        """Split the next band of pending nodes; returns the node ids now in use."""
        n, taken, band, chunks = max(pending), 0, [], []  # band: (row count, nodes) pairs
        for size in sorted(pending, reverse=True):
            m = sum(chunk.shape[1] for chunk in pending[size])
            if band and (size <= CART_BAND_RATIO * n or (taken + m) * n > n_rows):
                break
            chunks += pending.pop(size)
            band.append((size, m))
            taken += m
        ids, starts, depths = np.concatenate(chunks, axis=1)
        del chunks
        sizes = np.repeat(*zip(*band))
        position = np.arange(n)
        slots = starts[:, None] + position
        slots[position >= sizes[:, None]] = n_rows  # padding
        block = rows[slots]
        t = padded_targets[block]
        live, a = np.zeros(taken, bool), 0
        for size, m in band:
            value[ids[a : a + m]] = t[a : a + m, :size].mean(axis=1)
            if size >= min_samples_split:  # constant targets make a leaf
                live[a : a + m] = np.any(t[a : a + m, :size] != t[a : a + m, :1], axis=1)
            a += m
        feature[ids], left[ids], threshold[ids] = -1, -1, np.nan  # a leaf unless split below
        if max_depth is not None:
            live &= depths < max_depth
        live = np.flatnonzero(live)
        if live.size == 0:
            return count
        if live.size < taken:  # the band is in falling size order, so live[0] is the largest
            n = int(sizes[live[0]])
            slots, block, t, sizes = slots[live, :n], block[live, :n], t[live, :n], sizes[live]

        k, f, cut, ranked = _split_band(ranks, shift, block, t, sizes)
        rows[slots[k]] = ranked

        split = live[k]
        ids, m = ids[split], 2 * split.size
        feature[ids], left[ids] = f, np.arange(count, count + m, 2)
        at = np.arange(k.size)
        threshold[ids] = 0.5 * (features[ranked[at, cut], f] + features[ranked[at, cut + 1], f])
        # each split node's left child, then its right one
        children = np.empty((3, m), dtype=int)
        children[0] = np.arange(count, count + m)
        children[1, 0::2], children[1, 1::2] = starts[split], starts[split] + cut + 1
        children[2] = np.repeat(depths[split] + 1, 2)
        count += m
        child_sizes = np.empty(m, dtype=int)
        child_sizes[0::2], child_sizes[1::2] = cut + 1, sizes[k] - 1 - cut
        order = np.argsort(child_sizes, kind="stable")
        child_sizes, children = child_sizes[order], children[:, order]
        runs = np.flatnonzero(np.diff(child_sizes, prepend=-1)).tolist()  # where a size begins
        for a, b in zip(runs, runs[1:] + [m]):
            # a copy: a pending chunk keeps no other pass's nodes alive
            pending.setdefault(int(child_sizes[a]), []).append(children[:, a:b].copy())
        return count

    count = 1  # node ids in use
    while pending:  # a pass's arrays are freed before the next pass allocates
        count = grow(count)
    return CartModel(feature=feature[:count], threshold=threshold[:count], left=left[:count],
                     value=value[:count], n_features=d)


def predict_cart(model: CartModel, queries: np.ndarray) -> np.ndarray:
    """Route each query to its leaf; prediction is the leaf's training mean.

    Every query not yet at a leaf moves one level down per numpy step: left
    when ``q <= threshold``, else right, so NaN goes right.
    """
    queries = _check_width(queries, model.n_features)
    at = np.zeros(queries.shape[0], dtype=int)  # each query's node
    moving = np.arange(queries.shape[0])
    while moving.size:
        nodes = at[moving]
        f = model.feature[nodes]
        inner = f >= 0
        moving, nodes, f = moving[inner], nodes[inner], f[inner]
        goes_right = ~(queries[moving, f] <= model.threshold[nodes])
        at[moving] = model.left[nodes] + goes_right
    return model.value[at]


# --- ordinary least squares --------------------------------------------------

@dataclass(frozen=True)
class OlsModel:
    coefficients: np.ndarray
    intercept: float


def fit_ols(
    features: np.ndarray,
    targets: np.ndarray,
    column_names: Optional[List[str]] = None,
) -> OlsModel:
    """Least squares with intercept via SVD (never the raw normal equations)."""
    features, targets = _check_rows(features, targets)
    n, d = features.shape
    if n <= d:
        raise ValueError(f"need more samples than features, got {n} rows for {d} columns")
    names = column_names or [f"x{i}" for i in range(d)]
    design = np.column_stack([features, np.ones(n)])
    rank = np.linalg.matrix_rank(design)
    if rank < d + 1:
        # name the first column that fails to extend the rank
        seen = 0
        for j in range(d):
            new = np.linalg.matrix_rank(design[:, : j + 1])
            if new == seen:
                raise ValueError(f"design matrix is rank deficient at column {names[j]!r}")
            seen = new
        raise ValueError("design matrix is rank deficient at the intercept")
    solution = np.linalg.lstsq(design, targets, rcond=None)[0]
    return OlsModel(coefficients=solution[:-1], intercept=float(solution[-1]))


def predict_ols(model: OlsModel, queries: np.ndarray) -> np.ndarray:
    queries = _check_width(queries, model.coefficients.shape[0])
    return queries @ model.coefficients + model.intercept
