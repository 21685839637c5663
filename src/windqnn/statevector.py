"""Dense complex statevector simulation kernel.

Amplitude indices are little-endian: qubit ``q`` corresponds to bit ``q``
of the index, so qubit 0 is the least significant bit.  All gate kernels
accept arrays whose *last* axis is the state dimension, which lets the
same code run a single state of shape ``(2**n,)`` or a batch of shape
``(batch, 2**n)`` without copies or loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 24  # 2**24 complex128 amplitudes = 256 MiB; hard memory guard

SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


@dataclass
class Statevector:
    """Mutable state of an n-qubit register: 2**n complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_states(batch_shape: tuple, n_qubits: int) -> np.ndarray:
    """|0...0> for every batch index: shape batch_shape + (2**n_qubits,)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(batch_shape + (2**n_qubits,), dtype=complex)
    amps[..., 0] = 1.0
    return amps


def new_zero_state(n_qubits: int) -> Statevector:
    """Allocate |0...0>: amplitude 1 at index 0, zeros elsewhere."""
    return Statevector(n_qubits, zero_states((), n_qubits))


def _qubit_view(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    # View with the target qubit's axis first: shape (2, batch..., 2**(n-1)).
    # C-order reshape puts qubit n-1 on the first state axis, qubit 0 on the last.
    shaped = amps.reshape(amps.shape[:-1] + (2,) * n_qubits)
    axis = shaped.ndim - 1 - qubit
    return np.moveaxis(shaped, axis, 0)


def _broadcast_angle(theta, tail_ndim: int):
    # Align a per-sample angle array against the (batch..., 2, ..., 2) slices.
    t = np.asarray(theta, dtype=float)
    if t.ndim:
        t = t.reshape(t.shape + (1,) * tail_ndim)
    return t


def apply_1q_array(amps: np.ndarray, u: np.ndarray, qubit: int, n_qubits: int) -> None:
    """Apply a 2x2 matrix to one qubit of amps (last axis = state), in place."""
    b = _qubit_view(amps, n_qubits, qubit)
    lo = u[0, 0] * b[0] + u[0, 1] * b[1]
    hi = u[1, 0] * b[0] + u[1, 1] * b[1]
    b[0] = lo
    b[1] = hi


def apply_phase_array(amps: np.ndarray, theta, qubit: int, n_qubits: int) -> None:
    """Multiply the qubit=1 half by e^{i*theta}; theta may be per-sample."""
    b = _qubit_view(amps, n_qubits, qubit)
    t = _broadcast_angle(theta, n_qubits - 1)
    b[1] = b[1] * np.exp(1j * t)


def apply_ry_array(amps: np.ndarray, theta, qubit: int, n_qubits: int) -> None:
    """Real Y-rotation on one qubit; theta may be per-sample."""
    b = _qubit_view(amps, n_qubits, qubit)
    t = _broadcast_angle(theta, n_qubits - 1)
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    lo = c * b[0] - s * b[1]
    hi = s * b[0] + c * b[1]
    b[0] = lo
    b[1] = hi


def apply_cx_array(amps: np.ndarray, control: int, target: int, n_qubits: int) -> None:
    """Flip the target bit wherever the control bit is set, in place."""
    shaped = amps.reshape(amps.shape[:-1] + (2,) * n_qubits)
    axis_c = shaped.ndim - 1 - control
    axis_t = shaped.ndim - 1 - target
    b = np.moveaxis(shaped, (axis_c, axis_t), (0, 1))
    tmp = b[1, 0].copy()
    b[1, 0] = b[1, 1]
    b[1, 1] = tmp


@lru_cache(maxsize=None)
def _parity_signs(n_qubits: int) -> np.ndarray:
    """(-1)**popcount(b) of every basis state b, made once per width and read-only."""
    idx = np.arange(2**n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits)[None, :]) & 1
    signs = 1.0 - 2.0 * (bits.sum(axis=1) % 2)
    signs.flags.writeable = False
    return signs


def expect_z_all_array(amps: np.ndarray) -> np.ndarray:
    """<Z x Z x ... x Z> for each state in the batch: sum_b |a_b|^2 (-1)^popcount(b)."""
    n_qubits = int(np.log2(amps.shape[-1]))
    probs = np.abs(amps) ** 2
    return probs @ _parity_signs(n_qubits)
