"""Statevector kernel tests: fixed-value checks plus dense-matrix oracles."""
import numpy as np
import pytest

from windqnn.circuit import CircuitTemplate, evaluate_batch
from windqnn.qnn import encode
from windqnn.statevector import (
    HADAMARD,
    apply_1q_array,
    apply_cx_array,
    apply_phase_array,
    apply_ry_array,
    expect_z_all_array,
    zero_states,
)

from oracles import (
    dense_1q_operator,
    dense_cx_operator,
    dense_z_all_operator,
    phase_2x2,
    random_state,
    random_unitary_2x2,
    ry_2x2,
)

RT2 = 1.0 / np.sqrt(2.0)


def test_zero_states_amplitudes():
    amps = zero_states((), 2)
    np.testing.assert_allclose(amps, [1, 0, 0, 0], atol=0)
    assert amps.shape == (4,)
    assert np.linalg.norm(amps) == pytest.approx(1.0)


@pytest.mark.parametrize("bad_n", [0, -1, 25])
def test_zero_states_rejects_bad_qubit_count(bad_n):
    with pytest.raises(ValueError):
        zero_states((), bad_n)
    # the batch paths share the guard and raise before allocating: 2**20
    # rows of 2**25 amplitudes could not be allocated at all
    template = CircuitTemplate(bad_n, ())
    rows = np.zeros((2**20, 0))
    with pytest.raises(ValueError, match="n_qubits"):
        evaluate_batch(template, rows, np.zeros(0))
    with pytest.raises(ValueError, match="n_qubits"):
        encode(template, rows)


def test_hadamard_on_qubit0():
    amps = zero_states((), 2)
    apply_1q_array(amps, HADAMARD, 0, 2)
    np.testing.assert_allclose(amps, [RT2, RT2, 0, 0], atol=1e-15)


def test_bell_state_via_h_then_cx():
    # H on qubit 0 puts weight on indices 0 and 1; CX(control=0, target=1)
    # moves index 1 (qubit 0 set) to index 3.
    amps = zero_states((), 2)
    apply_1q_array(amps, HADAMARD, 0, 2)
    apply_cx_array(amps, 0, 1, 2)
    np.testing.assert_allclose(amps, [RT2, 0, 0, RT2], atol=1e-15)


def test_phase_gate_fixes_zero_state():
    amps = zero_states((), 1)
    apply_phase_array(amps, 1.234, 0, 1)
    np.testing.assert_allclose(amps, [1, 0], atol=1e-15)


def test_phase_gate_rotates_one_component():
    amps = zero_states((), 1)
    apply_1q_array(amps, HADAMARD, 0, 1)
    apply_phase_array(amps, np.pi / 3, 0, 1)
    expected = [RT2, RT2 * np.exp(1j * np.pi / 3)]
    np.testing.assert_allclose(amps, expected, atol=1e-15)


def test_expect_z_all_basis_states():
    amps = zero_states((), 2)
    assert expect_z_all_array(amps) == pytest.approx(1.0)
    amps[:] = [0, 1, 0, 0]  # qubit 0 set: odd parity
    assert expect_z_all_array(amps) == pytest.approx(-1.0)
    amps[:] = [0, 0, 0, 1]  # both set: even parity
    assert expect_z_all_array(amps) == pytest.approx(1.0)


def test_expect_z_all_uniform_superposition_is_zero():
    amps = zero_states((), 3)
    for q in range(3):
        apply_1q_array(amps, HADAMARD, q, 3)
    assert expect_z_all_array(amps) == pytest.approx(0.0, abs=1e-12)


def _kernel_case(kernel: str, n_qubits: int, rng):
    """(apply, operator, angled) for one randomly placed gate: apply(amps,
    theta) runs the kernel in place, operator(theta) is its dense matrix,
    and angled says whether theta reaches the kernel at all."""
    if kernel == "cx":
        control, target = (int(q) for q in rng.choice(n_qubits, size=2, replace=False))
        return (lambda amps, t: apply_cx_array(amps, control, target, n_qubits),
                lambda t: dense_cx_operator(control, target, n_qubits), False)
    qubit = int(rng.integers(n_qubits))
    if kernel == "1q":
        u = random_unitary_2x2(rng)
        return (lambda amps, t: apply_1q_array(amps, u, qubit, n_qubits),
                lambda t: dense_1q_operator(u, qubit, n_qubits), False)
    apply, gate = {"phase": (apply_phase_array, phase_2x2),
                   "ry": (apply_ry_array, ry_2x2)}[kernel]
    return (lambda amps, t: apply(amps, t, qubit, n_qubits),
            lambda t: dense_1q_operator(gate(t), qubit, n_qubits), True)


ORACLE_CASES = ([(k, n) for k in ("1q", "phase", "ry") for n in (1, 2, 3, 4)]
                + [("cx", n) for n in (2, 3, 4)])


@pytest.mark.parametrize("kernel, n_qubits", ORACLE_CASES)
def test_kernels_match_dense_oracle(kernel, n_qubits):
    rng = np.random.default_rng(ORACLE_CASES.index((kernel, n_qubits)))
    for _ in range(5):
        apply, operator, angled = _kernel_case(kernel, n_qubits, rng)
        states = np.stack([random_state(n_qubits, rng) for _ in range(4)])
        thetas = rng.uniform(-2 * np.pi, 2 * np.pi, size=4)

        single = states[0].copy()
        apply(single, thetas[0])
        np.testing.assert_allclose(single, operator(thetas[0]) @ states[0], atol=1e-12)

        batch = states.copy()  # one scalar angle for every row
        apply(batch, thetas[0])
        np.testing.assert_allclose(batch, states @ operator(thetas[0]).T, atol=1e-12)

        if angled:
            batch = states.copy()  # one angle per row
            apply(batch, thetas)
            want = np.stack([operator(t) @ s for t, s in zip(thetas, states)])
            np.testing.assert_allclose(batch, want, atol=1e-12)


def test_expectations_match_dense_oracle():
    rng = np.random.default_rng(23)
    for n_qubits in (1, 2, 4):
        amps = random_state(n_qubits, rng)
        want = np.real(amps.conj() @ dense_z_all_operator(n_qubits) @ amps)
        assert expect_z_all_array(amps) == pytest.approx(want, abs=1e-12)


def test_norm_preserved_under_random_gate_sequence():
    rng = np.random.default_rng(31)
    amps = zero_states((), 4)
    for _ in range(40):
        if rng.random() < 0.7:
            apply_1q_array(amps, random_unitary_2x2(rng), int(rng.integers(4)), 4)
        else:
            control, target = rng.choice(4, size=2, replace=False)
            apply_cx_array(amps, int(control), int(target), 4)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)


def test_batched_kernels_match_per_sample_loop():
    rng = np.random.default_rng(43)
    n_qubits, batch = 3, 6
    amps = np.stack([random_state(n_qubits, rng) for _ in range(batch)])
    u = random_unitary_2x2(rng)
    thetas = rng.uniform(0, 2 * np.pi, size=batch)

    batched = amps.copy()
    apply_1q_array(batched, u, 1, n_qubits)
    apply_phase_array(batched, thetas, 0, n_qubits)
    apply_ry_array(batched, thetas / 2, 2, n_qubits)
    apply_cx_array(batched, 2, 0, n_qubits)

    looped = amps.copy()
    for i in range(batch):
        row = looped[i]
        apply_1q_array(row, u, 1, n_qubits)
        apply_phase_array(row, thetas[i], 0, n_qubits)
        apply_ry_array(row, thetas[i] / 2, 2, n_qubits)
        apply_cx_array(row, 2, 0, n_qubits)

    np.testing.assert_allclose(batched, looped, atol=1e-12)
    np.testing.assert_allclose(
        expect_z_all_array(batched), expect_z_all_array(looped), atol=1e-12
    )


def test_expect_z_all_array_batch_shape():
    rng = np.random.default_rng(47)
    amps = np.stack([random_state(2, rng) for _ in range(5)])
    out = expect_z_all_array(amps)
    assert out.shape == (5,)
    assert np.all(np.abs(out) <= 1.0 + 1e-12)
