"""
Statevector simulation basics
=============================

Build small quantum states, apply gates through the strided kernels, and
read out parity expectations. A state is a plain complex array of 2**n
amplitudes, indexed little-endian: bit q of the basis index is the state
of qubit q. `zero_states` makes |0...0>, for one state or a batch, and
every kernel updates an amplitude array in place, so the same call runs
one state of shape (2**n,) or a batch of shape (rows, 2**n).
"""
import windqnn  # noqa: F401  # before numpy: its single-threaded OpenBLAS default applies

import numpy as np

from windqnn.statevector import (
    HADAMARD,
    apply_1q_array,
    apply_cx_array,
    apply_phase_array,
    apply_ry_array,
    expect_z_all_array,
    zero_states,
)

# Two qubits start in |00>: amplitude 1 at index 0. The empty batch shape
# () asks for a single state.
state = zero_states((), 2)
print("initial amplitudes:", state)

# A Hadamard on qubit 0 splits the amplitude between indices 0 and 1.
apply_1q_array(state, HADAMARD, 0, 2)
print("after H on q0:    ", np.round(state, 6))

# CX with control q0 copies that superposition onto qubit 1: the Bell state
# (|00> + |11>) / sqrt(2), nonzero at indices 0 and 3.
apply_cx_array(state, 0, 1, 2)
print("after CX q0,q1:   ", np.round(state, 6))
print("norm:", np.linalg.norm(state))

# Parity readout. Both Bell branches have even parity, so <Z x Z> is +1.
print("<ZZ> =", expect_z_all_array(state))

# Rotations: RY(pi) flips |0> to |1>; a phase gate leaves probabilities
# unchanged but matters once interference happens.
flip = zero_states((), 1)
apply_ry_array(flip, np.pi, 0, 1)
print("RY(pi)|0> ->", np.round(flip, 6), " <Z> =", expect_z_all_array(flip))

phased = zero_states((), 1)
apply_1q_array(phased, HADAMARD, 0, 1)
apply_phase_array(phased, np.pi / 2, 0, 1)
apply_1q_array(phased, HADAMARD, 0, 1)
print("H P(pi/2) H |0> ->", np.round(phased, 6))

# A batch runs one angle per row in the same call: RY(t) on three copies of
# |0> gives <Z> = cos(t) for each row.
angles = np.array([0.0, np.pi / 2, np.pi])
batch = zero_states((3,), 1)
apply_ry_array(batch, angles, 0, 1)
print("RY(t)|0> for t = 0, pi/2, pi -> <Z> =", np.round(expect_z_all_array(batch), 6))
