"""Limited-memory BFGS with a strong Wolfe line search, written from scratch.

The bound-constrained machinery of the classic L-BFGS-B algorithm is not
implemented because no experiment here uses bounds; the unbounded path is
behaviorally what that optimizer does on box-free problems.  Defaults mirror
the common scientific-stack settings: memory 10, gradient tolerance 1e-5 in
the infinity norm, relative decrease tolerance 1e7 times machine epsilon.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_LINE_SEARCH_FAILED = "line_search_failed"
STATUS_NON_FINITE = "non_finite"

_CURVATURE_FLOOR = 1e-10  # pairs with s.y at or below this are discarded


class _NonFiniteTrial(Exception):
    """A line-search trial point gave a NaN or inf objective or gradient."""


@dataclass(frozen=True)
class OptimizerOptions:
    max_iterations: int = 25
    memory: int = 10
    gradient_tolerance: float = 1e-5
    relative_f_tolerance: float = 1e7 * float(np.finfo(float).eps)
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    max_line_search_steps: int = 20

    def __post_init__(self):
        if not 0 < self.wolfe_c1 < self.wolfe_c2 < 1:
            raise ValueError(
                f"need 0 < c1 < c2 < 1, got c1={self.wolfe_c1}, c2={self.wolfe_c2}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.memory < 1:
            raise ValueError(f"memory must be >= 1, got {self.memory}")
        if self.max_line_search_steps < 1:
            raise ValueError(
                f"max_line_search_steps must be >= 1, got {self.max_line_search_steps}"
            )
        for name in ("gradient_tolerance", "relative_f_tolerance"):
            value = getattr(self, name)
            if not value >= 0:  # also refuses NaN
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass
class OptimizeResult:
    best_point: np.ndarray
    best_value: float
    trace: List[Tuple[int, float]]
    status: str


def two_loop_recursion(gradient: np.ndarray, history: list) -> np.ndarray:
    """Return -H*g with H the implicit limited-memory inverse Hessian.

    history holds (s, y) pairs oldest first.  The initial Hessian is gamma*I
    with gamma = s.y / y.y of the most recent pair (1 when history is empty).
    """
    q = np.array(gradient, dtype=float)
    alphas = []
    rhos = [1.0 / float(s @ y) for s, y in history]
    for (s, y), rho in zip(reversed(history), reversed(rhos)):
        a = rho * float(s @ q)
        alphas.append(a)
        q = q - a * y
    if history:
        s, y = history[-1]
        gamma = float(s @ y) / float(y @ y)
    else:
        gamma = 1.0
    r = gamma * q
    for (s, y), rho, a in zip(history, rhos, reversed(alphas)):
        b = rho * float(y @ r)
        r = r + (a - b) * s
    return -r


def _interpolate(lo, f_lo, d_lo, hi, f_hi):
    # Minimizer of the quadratic through (lo, f_lo, d_lo) and (hi, f_hi);
    # falls back to bisection when the fit is degenerate or leaves the
    # bracket interior.
    denom = f_hi - f_lo - d_lo * (hi - lo)
    mid = lo + 0.5 * (hi - lo)
    if denom == 0.0 or not np.isfinite(denom):
        return mid
    cand = lo - 0.5 * d_lo * (hi - lo) ** 2 / denom
    span = abs(hi - lo)
    if not np.isfinite(cand):
        return mid
    if abs(cand - lo) < 0.1 * span or abs(cand - hi) < 0.1 * span:
        return mid
    inside = min(lo, hi) < cand < max(lo, hi)
    return cand if inside else mid


def line_search_strong_wolfe(
    phi: Callable[[float], float],
    dphi: Callable[[float], float],
    c1: float = 1e-4,
    c2: float = 0.9,
    max_steps: int = 20,
) -> Optional[float]:
    """Find a step satisfying the strong Wolfe conditions, or None.

    Bracketing phase doubles the trial step until it overshoots, then zoom
    narrows the bracket with quadratic interpolation (bisection safeguard).
    """
    f0 = phi(0.0)
    d0 = dphi(0.0)
    if d0 >= 0:
        raise ValueError(f"line search needs a descent direction, slope is {d0}")

    budget = [max_steps]  # function-evaluation budget that zoom draws on too

    def zoom(lo, f_lo, d_lo, hi, f_hi):
        while budget[0] > 0:
            budget[0] -= 1
            a = _interpolate(lo, f_lo, d_lo, hi, f_hi)
            fa = phi(a)
            if fa > f0 + c1 * a * d0 or fa >= f_lo:
                hi, f_hi = a, fa
            else:
                da = dphi(a)
                if abs(da) <= -c2 * d0:
                    return a
                if da * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = a, fa, da
            if abs(hi - lo) < 1e-16:
                return None
        return None

    a_prev, f_prev, d_prev = 0.0, f0, d0
    # L-BFGS scales its directions so the unit step is the natural first trial
    a = 1.0
    first = True
    while budget[0] > 0:
        budget[0] -= 1
        fa = phi(a)
        if fa > f0 + c1 * a * d0 or (not first and fa >= f_prev):
            return zoom(a_prev, f_prev, d_prev, a, fa)
        da = dphi(a)
        if abs(da) <= -c2 * d0:
            return a
        if da >= 0:
            return zoom(a, fa, da, a_prev, f_prev)
        a_prev, f_prev, d_prev = a, fa, da
        a *= 2.0
        first = False
    return None


def minimize(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    x0,
    options: Optional[OptimizerOptions] = None,
) -> OptimizeResult:
    """L-BFGS minimization from x0; returns the best iterate and the trace.

    The trace records (iteration, objective) starting at iteration 0 = x0.
    On a line-search failure the best point so far is returned with status
    line_search_failed, and on a NaN or inf objective or gradient at a trial
    point with status non_finite; hitting the iteration cap reports
    max_iterations.

    Each line search starts from the value and gradient already known at the
    current iterate, so neither is computed there again.  At a trial point
    the objective comes first and the gradient only if the line search asks
    for the slope there: a step that fails the sufficient-decrease test
    costs one objective call and no gradient call.
    """
    opts = options or OptimizerOptions()
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x0 must be a 1-d vector, got shape {x.shape}")
    f = float(objective(x))
    g = np.asarray(gradient(x), dtype=float)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise ValueError("objective or gradient non-finite at x0")

    trace = [(0, f)]
    history: list = []
    status = STATUS_MAX_ITERATIONS

    for iteration in range(1, opts.max_iterations + 1):
        # x0 is checked here, and every later iterate right after its step
        if np.max(np.abs(g)) <= opts.gradient_tolerance:
            status = STATUS_CONVERGED
            break

        direction = two_loop_recursion(g, history)
        slope = float(direction @ g)
        if slope >= 0:  # numerical breakdown: fall back to steepest descent
            direction = -g
            slope = float(direction @ g)
            history.clear()

        # alpha -> [point, value, gradient or None until the slope is asked for]
        cache = {0.0: [x, f, g]}

        def value_at(alpha):
            if alpha not in cache:
                point = x + alpha * direction
                value = float(objective(point))
                if not np.isfinite(value):
                    raise _NonFiniteTrial
                cache[alpha] = [point, value, None]
            return cache[alpha]

        def gradient_at(alpha):
            entry = value_at(alpha)
            if entry[2] is None:
                grad = np.asarray(gradient(entry[0]), dtype=float)
                if not np.all(np.isfinite(grad)):
                    raise _NonFiniteTrial
                entry[2] = grad
            return entry[2]

        try:
            step = line_search_strong_wolfe(
                lambda a: value_at(a)[1],
                lambda a: float(gradient_at(a) @ direction),
                c1=opts.wolfe_c1,
                c2=opts.wolfe_c2,
                max_steps=opts.max_line_search_steps,
            )
        except _NonFiniteTrial:
            status = STATUS_NON_FINITE
            break
        if step is None:
            status = STATUS_LINE_SEARCH_FAILED
            break

        # the search returns a step only after asking for its slope
        _, f_new, g_new = cache[step]
        s = step * direction
        y = g_new - g
        sy = float(s @ y)
        if sy > _CURVATURE_FLOOR:
            history.append((s, y))
            if len(history) > opts.memory:
                history.pop(0)

        decrease = f - f_new
        x = x + s
        f, g = f_new, g_new
        trace.append((iteration, f))

        if (np.max(np.abs(g)) <= opts.gradient_tolerance
                or decrease <= opts.relative_f_tolerance * max(abs(f_new), abs(trace[-2][1]), 1.0)):
            status = STATUS_CONVERGED
            break

    # accepted steps never raise the objective, so (x, f) is the trace's minimum
    return OptimizeResult(best_point=x, best_value=f, trace=trace, status=status)
