"""Optimizer tests: two-loop recursion oracle, Wolfe conditions, convergence."""
import numpy as np
import pytest

from windqnn.optimizer import (
    STATUS_CONVERGED,
    STATUS_LINE_SEARCH_FAILED,
    STATUS_MAX_ITERATIONS,
    STATUS_NON_FINITE,
    OptimizerOptions,
    line_search_strong_wolfe,
    minimize,
    two_loop_recursion,
)

from oracles import dense_lbfgs_direction


def _random_history(rng, dim, count):
    history = []
    for _ in range(count):
        s = rng.normal(size=dim)
        y = s + 0.2 * rng.normal(size=dim)
        if float(s @ y) <= 0:
            y = s  # force positive curvature
        history.append((s, y))
    return history


# --- two-loop recursion ------------------------------------------------------

def test_two_loop_empty_history_is_steepest_descent():
    g = np.array([3.0, -1.0, 0.5])
    np.testing.assert_allclose(two_loop_recursion(g, []), -g, atol=0)


def test_two_loop_matches_dense_bfgs_oracle():
    rng = np.random.default_rng(101)
    for count in (1, 2, 5, 10):
        history = _random_history(rng, 6, count)
        g = rng.normal(size=6)
        got = two_loop_recursion(g, history)
        want = dense_lbfgs_direction(g, history)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_two_loop_single_pair_newton_on_scaled_identity_quadratic():
    # f(x) = 0.5*c*|x|^2 has Hessian c*I; one curvature pair recovers it and
    # the direction equals the exact Newton step -g/c.
    c = 4.0
    rng = np.random.default_rng(103)
    x0, x1 = rng.normal(size=3), rng.normal(size=3)
    s = x1 - x0
    y = c * s  # gradient difference of f
    g = c * x1
    got = two_loop_recursion(g, [(s, y)])
    np.testing.assert_allclose(got, -g / c, atol=1e-12)


def test_two_loop_directions_are_descent():
    rng = np.random.default_rng(107)
    for _ in range(25):
        history = _random_history(rng, 5, int(rng.integers(0, 8)))
        g = rng.normal(size=5)
        d = two_loop_recursion(g, history)
        assert float(d @ g) < 0


# --- line search -------------------------------------------------------------

def test_line_search_exact_quadratic_minimizer():
    phi = lambda a: (a - 1.0) ** 2
    dphi = lambda a: 2.0 * (a - 1.0)
    step = line_search_strong_wolfe(phi, dphi)
    assert step == pytest.approx(1.0, abs=1e-8)


def test_line_search_satisfies_wolfe_conditions():
    c1, c2 = 1e-4, 0.9
    phi = lambda a: 2.0 * (a - 0.3) ** 2 + 1.0
    dphi = lambda a: 4.0 * (a - 0.3)
    step = line_search_strong_wolfe(phi, dphi, c1=c1, c2=c2)
    assert step is not None
    assert phi(step) <= phi(0.0) + c1 * step * dphi(0.0)
    assert abs(dphi(step)) <= -c2 * dphi(0.0)


def test_line_search_rejects_ascent_direction():
    with pytest.raises(ValueError, match="descent"):
        line_search_strong_wolfe(lambda a: a, lambda a: 1.0)


def test_line_search_gives_up_on_unbounded_descent():
    assert line_search_strong_wolfe(lambda a: -a, lambda a: -1.0, max_steps=8) is None


# --- minimize ---------------------------------------------------------------

def test_minimize_quadratic_in_three_iterations():
    rng = np.random.default_rng(109)
    c = rng.normal(size=5)
    objective = lambda x: float((x - c) @ (x - c))
    grad = lambda x: 2.0 * (x - c)
    result = minimize(objective, grad, rng.normal(size=5))
    converged_at = result.trace[-1][0]
    assert converged_at <= 3
    assert np.linalg.norm(result.best_point - c) < 1e-8
    assert result.status == STATUS_CONVERGED


def _rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def _rosenbrock_grad(x):
    return np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])


def test_minimize_rosenbrock():
    options = OptimizerOptions(max_iterations=200, gradient_tolerance=1e-10)
    result = minimize(_rosenbrock, _rosenbrock_grad, np.array([-1.2, 1.0]), options)
    assert np.linalg.norm(result.best_point - np.ones(2)) < 1e-6
    assert result.status == STATUS_CONVERGED


def test_minimize_iteration_cap():
    options = OptimizerOptions(max_iterations=25)
    result = minimize(_rosenbrock, _rosenbrock_grad, np.array([-1.2, 1.0]), options)
    assert result.status == STATUS_MAX_ITERATIONS
    assert len(result.trace) <= 26


def test_a_last_step_within_tolerance_converges():
    # x.x from [1, -2]: the first step lands on the minimizer, g = 0 there,
    # so a cap of one iteration converges as a cap of two does
    results = [minimize(lambda x: float(x @ x), lambda x: 2.0 * x, np.array([1.0, -2.0]),
                        OptimizerOptions(max_iterations=cap)) for cap in (1, 2)]
    for result in results:
        assert result.status == STATUS_CONVERGED
        assert np.array_equal(result.best_point, np.zeros(2))
    assert results[0].trace == results[1].trace == [(0, 5.0), (1, 0.0)]


def test_trace_strictly_decreases():
    options = OptimizerOptions(max_iterations=40)
    result = minimize(_rosenbrock, _rosenbrock_grad, np.array([-1.2, 1.0]), options)
    values = [v for _, v in result.trace]
    for prev, cur in zip(values, values[1:]):
        assert cur < prev + 1e-15
    assert result.best_value == pytest.approx(min(values), abs=1e-12)


def test_minimize_asks_for_no_gradient_it_does_not_use():
    # f = 1.5 x^2 from x0 = 1: the first trial step (alpha = 1 along -g)
    # lands on x = -2 and fails the sufficient-decrease test; the zoom then
    # interpolates to the minimizer x = 0.
    calls = []

    def objective(x):
        calls.append(("objective", float(x[0])))
        return float(1.5 * x @ x)

    def gradient(x):
        calls.append(("gradient", float(x[0])))
        return 3.0 * x

    result = minimize(objective, gradient, np.array([1.0]), OptimizerOptions(max_iterations=5))
    assert result.status == STATUS_CONVERGED and result.best_value == 0.0
    assert calls == [("objective", 1.0), ("gradient", 1.0),  # x0
                     ("objective", -2.0),  # fails Armijo: no gradient there
                     ("objective", 0.0), ("gradient", 0.0)]  # accepted step


def test_minimize_never_recomputes_at_the_current_iterate():
    objective_points, gradient_points = [], []

    def objective(x):
        objective_points.append(tuple(x))
        return _rosenbrock(x)

    def gradient(x):
        gradient_points.append(tuple(x))
        return _rosenbrock_grad(x)

    result = minimize(objective, gradient, np.array([-1.2, 1.0]),
                      OptimizerOptions(max_iterations=40))
    assert len(result.trace) > 10
    assert len(set(objective_points)) == len(objective_points)
    assert len(set(gradient_points)) == len(gradient_points)
    # a gradient only ever follows the objective at the same trial point
    assert set(gradient_points) <= set(objective_points)


def test_minimize_rejects_non_finite_start():
    with pytest.raises(ValueError, match="non-finite"):
        minimize(lambda x: float("nan"), lambda x: x, np.zeros(2))


def test_minimize_line_search_failure_returns_best_so_far():
    # Unbounded-below linear objective: no Wolfe step exists.
    objective = lambda x: float(-x[0])
    grad = lambda x: np.array([-1.0])
    result = minimize(objective, grad, np.array([0.0]))
    assert result.status == STATUS_LINE_SEARCH_FAILED
    assert result.trace[0] == (0, 0.0)


@pytest.mark.parametrize("bad", ["objective", "gradient"])
def test_minimize_non_finite_trial_returns_best_so_far(bad):
    # finite at x0 only, so every line-search trial (alpha > 0) is NaN
    x0 = np.array([1.0, -2.0])
    at_x0 = lambda x: np.array_equal(x, x0)
    objective = lambda x: float(x @ x) if at_x0(x) or bad == "gradient" else float("nan")
    grad = lambda x: 2.0 * x if at_x0(x) or bad == "objective" else np.full(2, np.nan)
    result = minimize(objective, grad, x0)
    assert result.status == STATUS_NON_FINITE
    assert result.trace == [(0, 5.0)]
    assert result.best_value == 5.0
    np.testing.assert_array_equal(result.best_point, x0)


def test_quadratic_converges_within_dim_plus_one_with_full_memory():
    # d-dimensional convex quadratic, memory = d, near-exact line search.
    rng = np.random.default_rng(113)
    dim = 4
    m = rng.normal(size=(dim, dim))
    a = m @ m.T + dim * np.eye(dim)
    b = rng.normal(size=dim)
    objective = lambda x: float(0.5 * x @ a @ x - b @ x)
    grad = lambda x: a @ x - b
    options = OptimizerOptions(
        max_iterations=50,
        memory=dim,
        gradient_tolerance=1e-8,
        wolfe_c1=1e-10,
        wolfe_c2=1e-8,
        max_line_search_steps=60,
    )
    result = minimize(objective, grad, rng.normal(size=dim), options)
    assert result.status == STATUS_CONVERGED
    assert result.trace[-1][0] <= dim + 1
    x_star = np.linalg.solve(a, b)
    assert np.linalg.norm(result.best_point - x_star) < 1e-6


def test_options_invariants():
    with pytest.raises(ValueError, match="c1"):
        OptimizerOptions(wolfe_c1=0.95, wolfe_c2=0.9)
    with pytest.raises(ValueError, match="max_iterations"):
        OptimizerOptions(max_iterations=0)
    with pytest.raises(ValueError, match="memory"):
        OptimizerOptions(memory=0)
    with pytest.raises(ValueError, match="max_line_search_steps"):
        OptimizerOptions(max_line_search_steps=0)
    with pytest.raises(ValueError, match="gradient_tolerance"):
        OptimizerOptions(gradient_tolerance=-1e-5)
    with pytest.raises(ValueError, match="relative_f_tolerance"):
        OptimizerOptions(relative_f_tolerance=-1.0)
    OptimizerOptions(gradient_tolerance=0.0, relative_f_tolerance=0.0)


def test_curvature_floor_filters_degenerate_pairs():
    # Objective flat in one coordinate: steps along it produce s.y = 0 pairs
    # which must not be stored (they would break the recursion with 1/0).
    objective = lambda x: float((x[0] - 2.0) ** 2)
    grad = lambda x: np.array([2.0 * (x[0] - 2.0), 0.0])
    result = minimize(objective, grad, np.array([5.0, 1.0]))
    assert result.status == STATUS_CONVERGED
    assert abs(result.best_point[0] - 2.0) < 1e-6
