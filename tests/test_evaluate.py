"""Metric tests: fixed values, hand arithmetic, naive-loop oracles."""
import numpy as np
import pytest

from windqnn.evaluate import mae, r2


def test_r2_perfect_prediction():
    y = np.array([1.0, 2.0, 3.0])
    assert r2(y, y) == pytest.approx(1.0)


def test_r2_mean_prediction_is_zero():
    y = np.array([1.0, 2.0, 3.0])
    assert r2(y, np.full(3, y.mean())) == pytest.approx(0.0)


def test_r2_hand_arithmetic():
    assert r2([0, 1, 2], [0, 0, 2]) == pytest.approx(0.5)


def test_r2_constant_actual_is_undefined():
    with pytest.raises(ValueError, match="R\\^2 undefined: actual values are constant"):
        r2([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("actual", [[0.1] * 3, [812.3] * 7])
def test_r2_constant_actual_with_inexact_mean_is_undefined(actual):
    # the mean of [0.1] * 3 or [812.3] * 7 is not the value itself
    with pytest.raises(ValueError, match="R\\^2 undefined: actual values are constant"):
        r2(actual, np.linspace(1.0, 3.0, len(actual)))


def test_mae_fixed_values():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)


def test_metrics_match_naive_loops():
    rng = np.random.default_rng(3)
    y = rng.normal(size=50)
    p = rng.normal(size=50)
    mean = sum(y) / len(y)
    ss_res = sum((a - b) ** 2 for a, b in zip(y, p))
    ss_tot = sum((a - mean) ** 2 for a in y)
    assert r2(y, p) == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)
    assert mae(y, p) == pytest.approx(sum(abs(a - b) for a, b in zip(y, p)) / 50, abs=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal-length"):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="equal-length"):
        r2([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="at least one"):
        mae([], [])


def test_mae_symmetric_r2_not():
    rng = np.random.default_rng(5)
    y = rng.normal(size=20)
    p = rng.normal(size=20)
    assert mae(y, p) == pytest.approx(mae(p, y), abs=1e-15)
    assert r2(y, p) != pytest.approx(r2(p, y))


def test_shift_invariance():
    rng = np.random.default_rng(7)
    y = rng.normal(size=20)
    p = rng.normal(size=20)
    assert r2(y + 10, p + 10) == pytest.approx(r2(y, p), abs=1e-9)
    assert mae(y + 10, p + 10) == pytest.approx(mae(y, p), abs=1e-12)
