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

    The tree grows by node size, not depth first.  ``rows`` is one
    permutation of the training rows, and every pending node owns a
    contiguous segment of it.  The largest pending row count n is taken
    next, and all its b nodes are split in one numpy pass over a (b, n)
    block; a child is smaller than its parent, so each n comes up once, and
    the segments are disjoint, so b * n never exceeds the training rows.
    The tree equals a node-by-node build bit for bit: each block row goes
    through the same elementwise operations, ``cumsum`` adds sequentially
    along any axis, the stable sort is taken per row, and the mean of a row
    of a C-contiguous block equals the 1-D mean of that row.  A pass gives
    its split nodes' children the next free ids and writes the node arrays
    once.
    """
    features, targets = _check_rows(features, targets)
    if targets.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")

    # node arrays by id, sized for the largest tree on these rows; a page of
    # them is touched only when a node on it comes up
    feature, left, threshold, value = (np.empty(2 * targets.shape[0] - 1, dtype)
                                       for dtype in (int, int, float, float))
    count = 1  # node ids in use
    rows = np.arange(targets.shape[0])
    # row count -> chunks of pending nodes, (3, m) arrays of node ids, segment starts, depths
    pending: Dict[int, List[np.ndarray]] = {targets.shape[0]: [np.zeros((3, 1), dtype=int)]}

    while pending:
        n = max(pending)
        ids, starts, depths = np.concatenate(pending.pop(n), axis=1)
        block = rows[starts[:, None] + np.arange(n)]
        t = targets[block]
        value[ids] = t.mean(axis=1)
        feature[ids], left[ids], threshold[ids] = -1, -1, np.nan  # a leaf unless split below
        if n < min_samples_split:
            continue
        live = np.any(t != t[:, :1], axis=1)  # constant targets make a leaf
        if max_depth is not None:
            live &= depths < max_depth
        live = np.flatnonzero(live)
        if live.size == 0:
            continue

        block = block[live]
        x = features[block]  # (b, n, d)
        order = np.argsort(x, axis=1, kind="stable")
        x = np.take_along_axis(x, order, axis=1)
        tied = x[:, 1:] <= x[:, :-1]  # [:, i]: no cut between sorted rows i and i + 1
        ranked = np.take_along_axis(block[:, :, None], order, axis=1)
        del x, order  # each (b, n, d) array goes once spent, to keep the peak low
        t = targets[ranked]  # the targets in each column's sorted order
        s1 = np.cumsum(t, axis=1)
        t *= t
        s2 = np.cumsum(t, axis=1)
        del t
        left1, left2 = s1[:, :-1], s2[:, :-1]
        n_left = np.arange(1.0, n)[:, None]
        sse = (left2 - left1**2 / n_left) + (
            (s2[:, -1:] - left2) - (s1[:, -1:] - left1) ** 2 / (n - n_left))
        del s1, s2, left1, left2
        sse[tied] = np.inf
        best = sse.min(axis=1)
        k = np.flatnonzero(np.isfinite(best.min(axis=1)))  # the nodes with a cut
        f = best[k].argmin(axis=1)  # the first feature holding the smallest minimum
        cut = sse[k, :, f].argmin(axis=1)  # the first minimum: the lowest threshold
        split = live[k]
        starts = starts[split]
        rows[starts[:, None] + np.arange(n)] = ranked[k, :, f]

        ids, m = ids[split], 2 * split.size
        feature[ids], left[ids] = f, np.arange(count, count + m, 2)
        threshold[ids] = 0.5 * (features[ranked[k, cut, f], f]
                                + features[ranked[k, cut + 1, f], f])
        # each split node's left child, then its right one
        children = np.empty((3, m), dtype=int)
        children[0] = np.arange(count, count + m)
        children[1, 0::2], children[1, 1::2] = starts, starts + cut + 1
        children[2] = np.repeat(depths[split] + 1, 2)
        count += m
        sizes = np.empty(m, dtype=int)
        sizes[0::2], sizes[1::2] = cut + 1, n - 1 - cut
        order = np.argsort(sizes, kind="stable")
        sizes, children = sizes[order], children[:, order]
        runs = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()  # where a size begins
        for a, b in zip(runs, runs[1:] + [m]):
            pending.setdefault(int(sizes[a]), []).append(children[:, a:b])
    return CartModel(feature=feature[:count], threshold=threshold[:count], left=left[:count],
                     value=value[:count], n_features=features.shape[1])


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
