"""Four-qubit quantum neural network benchmark for wind-turbine power regression.

The package provides a dense statevector simulator, parameterized circuit
construction (Z / ZZ feature maps, RY ansatz with six entanglement layouts),
a from-scratch L-BFGS trainer, classical baseline regressors, and reporting
utilities that write CSV, markdown, and SVG artifacts.
"""
import os

# set before numpy loads OpenBLAS: its idle worker threads spin, and the method pool owns the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
