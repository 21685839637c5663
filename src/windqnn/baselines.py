"""From-scratch classical regressors: k-nearest neighbors, CART, OLS.

All three consume min-max-scaled features (the same scaler the quantum
models use) and predict power in kW directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


class SingularMatrixError(ValueError):
    """Design matrix is rank deficient; the message names the offending column."""


def _check_width(queries: np.ndarray, width: int) -> np.ndarray:
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != width:
        raise ValueError(f"queries have {queries.shape[1]} columns, the model expects {width}")
    return queries


# --- k-nearest neighbors -----------------------------------------------------

@dataclass(frozen=True)
class KnnModel:
    k: int
    features: np.ndarray
    targets: np.ndarray


def fit_knn(features: np.ndarray, targets: np.ndarray, k: int = 5) -> KnnModel:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if not 1 <= k <= targets.shape[0]:
        raise ValueError(f"k must be in [1, {targets.shape[0]}], got {k}")
    return KnnModel(k=k, features=features, targets=targets)


def predict_knn(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Mean target of the k nearest training rows by Euclidean distance.

    Distance ties break toward the lower training-row index, as a stable
    sort would.  ``argpartition`` keeps k candidates per query and they are
    ordered by (distance, index); a query where an unselected row ties the
    k-th distance falls back to a stable sort of its whole row, so the
    neighbours and their order in the mean match a full stable sort.
    """
    queries = _check_width(queries, model.features.shape[1])
    n_train, k = model.features.shape[0], model.k
    out = np.empty(queries.shape[0])
    chunk = max(1, 10**6 // n_train)  # keeps each (chunk, n_train) block small
    for start in range(0, queries.shape[0], chunk):
        q = queries[start : start + chunk]
        # feature by feature in order: numpy sums a row of under 8 terms alike
        d2 = np.zeros((q.shape[0], n_train))
        for f in range(q.shape[1]):
            d2 += (q[:, f, None] - model.features[:, f]) ** 2
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part_d2 = np.take_along_axis(d2, part, axis=1)
        nearest = np.take_along_axis(part, np.lexsort((part, part_d2), axis=1), axis=1)
        kth = part_d2.max(axis=1, keepdims=True)
        for row in np.flatnonzero(np.count_nonzero(d2 <= kth, axis=1) != k):
            nearest[row] = np.argsort(d2[row], kind="stable")[:k]
        out[start : start + chunk] = model.targets[nearest].mean(axis=1)
    return out


# --- CART regression tree ----------------------------------------------------

@dataclass
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
    root: TreeNode
    n_features: int


def _best_split(features: np.ndarray, targets: np.ndarray):
    """Exhaustive scan over (feature, midpoint threshold) pairs by SSE.

    One stable sort per column and prefix sums give the child SSEs of every
    cut at once; a position between equal values is no cut and scores +inf.
    Ties resolve to the lowest feature (the first column holding the smallest
    minimum), then to the lowest threshold (the first minimum in that column).
    """
    n, d = features.shape
    order = np.argsort(features, axis=0, kind="stable")
    values = features[order, np.arange(d)]
    t = targets[order]
    s1 = np.cumsum(t, axis=0)
    s2 = np.cumsum(t * t, axis=0)
    left1, left2 = s1[:-1], s2[:-1]  # row i: split before sorted index i + 1
    n_left = np.arange(1.0, n)[:, None]
    sse = (left2 - left1**2 / n_left) + ((s2[-1] - left2) - (s1[-1] - left1) ** 2 / (n - n_left))
    sse[values[1:] <= values[:-1]] = np.inf
    best = sse.min(axis=0)
    f = int(np.argmin(best))
    if not np.isfinite(best[f]):
        return None
    i = int(np.argmin(sse[:, f]))
    return f, 0.5 * (values[i, f] + values[i + 1, f]), order[:, f], i + 1


def fit_cart(
    features: np.ndarray,
    targets: np.ndarray,
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
) -> CartModel:
    """Greedy variance-reduction tree; leaves predict their training mean."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    if min_samples_split < 2:
        raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")

    root = TreeNode(value=float(targets.mean()))
    stack: List[tuple] = [(root, np.arange(targets.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        t = targets[idx]
        node.value = float(t.mean())
        if idx.shape[0] < min_samples_split:
            continue
        if np.all(t == t[0]):
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        found = _best_split(features[idx], t)
        if found is None:
            continue
        f, thr, order, pos = found
        node.feature = f
        node.threshold = thr
        node.left = TreeNode(value=0.0)
        node.right = TreeNode(value=0.0)
        stack.append((node.left, idx[order[:pos]], depth + 1))
        stack.append((node.right, idx[order[pos:]], depth + 1))
    return CartModel(root=root, n_features=features.shape[1])


def predict_cart(model: CartModel, queries: np.ndarray) -> np.ndarray:
    """Route each query to its leaf; prediction is the leaf's training mean."""
    queries = _check_width(queries, model.n_features)
    out = np.empty(queries.shape[0])
    stack = [(model.root, np.arange(queries.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        goes_left = queries[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[goes_left]))
        stack.append((node.right, idx[~goes_left]))
    return out


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
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
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
                raise SingularMatrixError(
                    f"design matrix is rank deficient at column {names[j]!r}"
                )
            seen = new
        raise SingularMatrixError("design matrix is rank deficient at the intercept")
    solution = np.linalg.lstsq(design, targets, rcond=None)[0]
    return OlsModel(coefficients=solution[:-1], intercept=float(solution[-1]))


def predict_ols(model: OlsModel, queries: np.ndarray) -> np.ndarray:
    queries = _check_width(queries, model.coefficients.shape[0])
    return queries @ model.coefficients + model.intercept
