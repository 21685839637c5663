"""
L-BFGS with strong Wolfe line search on the Rosenbrock valley
=============================================================

The optimizer used for QNN training is a from-scratch limited-memory
quasi-Newton method. Rosenbrock's banana function is the classic stress
test: a curved narrow valley that defeats plain gradient descent.
"""
import windqnn  # noqa: F401  # before numpy: its single-threaded OpenBLAS default applies

import numpy as np

from windqnn.optimizer import OptimizerOptions, minimize


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


def rosenbrock_grad(x):
    return np.array([
        -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
        200 * (x[1] - x[0] ** 2),
    ])


# The benchmark cap used for QNN training is 25 iterations; that is not
# enough to traverse the valley, which is exactly why the trace matters.
capped = minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]))
print(f"capped run: status={capped.status}, f={capped.best_value:.6f}, "
      f"x={np.round(capped.best_point, 4)}")

# With a larger budget the same code converges to the minimum at (1, 1).
options = OptimizerOptions(max_iterations=200, gradient_tolerance=1e-10)
full = minimize(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), options)
print(f"long run:   status={full.status}, f={full.best_value:.3e}, "
      f"x={full.best_point}")
print(f"distance to optimum: {np.linalg.norm(full.best_point - 1.0):.2e} "
      f"after {len(full.trace) - 1} iterations")

# The trace is (iteration, objective) pairs and never increases: each
# accepted step satisfies the Armijo condition.
print("\nfirst ten trace entries of the long run:")
for iteration, value in full.trace[:10]:
    print(f"  iter {iteration:>2}: f = {value:12.6f}")
