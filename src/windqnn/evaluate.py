"""Regression metrics in physical units: coefficient of determination and MAE."""
from __future__ import annotations

import numpy as np


def _check_pair(actual, predicted):
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError(
            f"need equal-length 1-d vectors, got {actual.shape} and {predicted.shape}"
        )
    if actual.size == 0:
        raise ValueError("metrics need at least one sample")
    return actual, predicted


def r2(actual, predicted) -> float:
    """1 - SS_residual / SS_total. Undefined when the actual values are constant."""
    actual, predicted = _check_pair(actual, predicted)
    # compared directly: the mean of equal values can round off them, which
    # leaves a tiny SS_total in place of zero
    if actual.min() == actual.max():
        raise ValueError("R^2 undefined: actual values are constant")
    ss_total = float(np.sum((actual - actual.mean()) ** 2))
    ss_residual = float(np.sum((actual - predicted) ** 2))
    return 1.0 - ss_residual / ss_total


def mae(actual, predicted) -> float:
    """Mean absolute error."""
    actual, predicted = _check_pair(actual, predicted)
    return float(np.mean(np.abs(actual - predicted)))
