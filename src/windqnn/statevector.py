"""Dense complex statevector simulation kernel.

Amplitude indices are little-endian: qubit ``q`` corresponds to bit ``q``
of the index, so qubit 0 is the least significant bit.  All gate kernels
accept arrays whose *last* axis is the state dimension, which lets the
same code run a single state of shape ``(2**n,)`` or a batch of shape
``(batch, 2**n)`` without copies or loops.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24  # 2**24 complex128 amplitudes = 256 MiB; hard memory guard

SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[SQRT2_INV, SQRT2_INV], [SQRT2_INV, -SQRT2_INV]], dtype=complex)


def phase_matrix(theta: float) -> np.ndarray:
    """2x2 phase gate P(theta) = diag(1, e^{i*theta})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * theta)]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """2x2 Y-rotation RY(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def is_unitary_2x2(u: np.ndarray, tol: float = 1e-12) -> bool:
    """True if u^dag u = I entrywise within tol."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        return False
    return bool(np.all(np.abs(u.conj().T @ u - np.eye(2)) <= tol))


@dataclass
class Statevector:
    """Mutable state of an n-qubit register: 2**n complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_zero_state(n_qubits: int) -> Statevector:
    """Allocate |0...0>: amplitude 1 at index 0, zeros elsewhere."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


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


def _parity_signs(n_qubits: int) -> np.ndarray:
    idx = np.arange(2**n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits)[None, :]) & 1
    return 1.0 - 2.0 * (bits.sum(axis=1) % 2)


def expect_z_all_array(amps: np.ndarray) -> np.ndarray:
    """<Z x Z x ... x Z> for each state in the batch: sum_b |a_b|^2 (-1)^popcount(b)."""
    n_qubits = int(np.log2(amps.shape[-1]))
    probs = np.abs(amps) ** 2
    return probs @ _parity_signs(n_qubits)


def expect_z_single_array(amps: np.ndarray, qubit: int) -> np.ndarray:
    signs = 1.0 - 2.0 * ((np.arange(amps.shape[-1]) >> qubit) & 1)
    probs = np.abs(amps) ** 2
    return probs @ signs


def _check_qubit(state: Statevector, qubit: int) -> None:
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits}-qubit state")


def apply_1q(state: Statevector, u: np.ndarray, qubit: int) -> Statevector:
    """Apply a single-qubit unitary to the state, in place."""
    _check_qubit(state, qubit)
    u = np.asarray(u, dtype=complex)
    if not is_unitary_2x2(u):
        raise ValueError("u is not unitary within 1e-12")
    apply_1q_array(state.amplitudes, u, qubit, state.n_qubits)
    return state


def apply_cx(state: Statevector, control: int, target: int) -> Statevector:
    """Apply CX (CNOT) with the given control and target, in place."""
    _check_qubit(state, control)
    _check_qubit(state, target)
    if control == target:
        raise ValueError(f"control and target must differ, both are {control}")
    apply_cx_array(state.amplitudes, control, target, state.n_qubits)
    return state


def expect_z_all(state: Statevector) -> float:
    """Expectation of the parity observable Z on every qubit, in [-1, 1]."""
    return float(expect_z_all_array(state.amplitudes))


def expect_z_single(state: Statevector, qubit: int) -> float:
    """Expectation of Z on a single qubit, in [-1, 1]."""
    _check_qubit(state, qubit)
    return float(expect_z_single_array(state.amplitudes, qubit))
