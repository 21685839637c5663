"""Circuit template tests: entanglement layouts, builders, binding, rendering."""
import numpy as np
import pytest

from windqnn.circuit import (
    ENTANGLEMENTS,
    CircuitTemplate,
    ConstAngle,
    FeatureAngle,
    GateSpec,
    PairProductAngle,
    ParamAngle,
    build_ansatz,
    build_z_feature_map,
    build_zz_feature_map,
    compose,
    entangler_pairs,
    evaluate,
    evaluate_batch,
    feature_prefix_length,
    render,
    run_gates,
    simulate,
)

from oracles import dense_template_matrix


# --- entangler_pairs -------------------------------------------------------

def test_linear_pairs():
    assert entangler_pairs("linear", 4) == [(0, 1), (1, 2), (2, 3)]


def test_reverse_linear_pairs():
    assert entangler_pairs("reverse_linear", 4) == [(2, 3), (1, 2), (0, 1)]


def test_full_pairs():
    assert entangler_pairs("full", 4) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_circular_pairs():
    assert entangler_pairs("circular", 4) == [(3, 0), (0, 1), (1, 2), (2, 3)]


def test_pairwise_pairs():
    assert entangler_pairs("pairwise", 4) == [(0, 1), (2, 3), (1, 2)]


def _sca_reference(n, block):
    # Independent enumeration: shift circular indices, swap roles on odd blocks.
    base = [((n - 1 + block) % n, (0 + block) % n)]
    base += [((i + block) % n, (i + 1 + block) % n) for i in range(n - 1)]
    return [(t, c) for c, t in base] if block % 2 else base


def test_sca_block_one():
    assert entangler_pairs("sca", 4, 1) == [(1, 0), (2, 1), (3, 2), (0, 3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("block", [0, 1, 2, 3, 7])
def test_sca_matches_reference_enumeration(n, block):
    assert entangler_pairs("sca", n, block) == _sca_reference(n, block)


def test_sca_block_multiple_of_2n_equals_circular():
    assert entangler_pairs("sca", 4, 8) == entangler_pairs("circular", 4)
    assert entangler_pairs("sca", 4, 0) == entangler_pairs("circular", 4)


def test_linear_and_reverse_linear_same_pair_set():
    for n in (2, 3, 4, 6):
        assert set(entangler_pairs("linear", n)) == set(
            entangler_pairs("reverse_linear", n)
        )


@pytest.mark.parametrize("strategy", ENTANGLEMENTS)
def test_pairs_are_valid_for_all_strategies(strategy):
    for n in (2, 3, 4, 6):
        for block in range(5):
            pairs = entangler_pairs(strategy, n, block)
            for c, t in pairs:
                assert c != t
                assert 0 <= c < n and 0 <= t < n
            assert pairs == entangler_pairs(strategy, n, block)


def test_entangler_pairs_errors():
    with pytest.raises(ValueError, match="n_qubits"):
        entangler_pairs("linear", 1)
    with pytest.raises(ValueError, match="unknown entanglement"):
        entangler_pairs("ring", 4)
    with pytest.raises(ValueError, match="block_index"):
        entangler_pairs("sca", 4, -1)


# --- builders --------------------------------------------------------------

def test_z_feature_map_structure():
    fm = build_z_feature_map(4, 1)
    assert [g.kind for g in fm.gates] == ["H", "P"] * 4
    assert fm.n_feature_slots == 4
    assert fm.n_parameter_slots == 0
    assert len(build_z_feature_map(4, 2).gates) == 16


def test_z_feature_map_is_identity_at_x_zero():
    fm = build_z_feature_map(4, 2)
    state = simulate(fm, np.zeros(4), [])
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_z_feature_map_rejects_bad_reps():
    with pytest.raises(ValueError, match="reps"):
        build_z_feature_map(4, 0)


def test_zz_feature_map_structure():
    fm = build_zz_feature_map(2, 1, "full")
    assert [g.kind for g in fm.gates] == ["H", "H", "P", "P", "CX", "P", "CX"]
    assert len(build_zz_feature_map(4, 2, "full").gates) == 52


def test_zz_interaction_angle_at_x_zero():
    fm = build_zz_feature_map(2, 1, "full")
    pair_gates = [g for g in fm.gates if isinstance(g.angle, PairProductAngle)]
    assert len(pair_gates) == 1
    angle = pair_gates[0].angle
    value = 2.0 * (np.pi - 0.0) * (np.pi - 0.0)
    assert value == pytest.approx(2 * np.pi**2)
    assert angle.index_a == 0 and angle.index_b == 1


def test_zz_feature_map_uses_block_index_per_repetition():
    fm = build_zz_feature_map(4, 2, "sca")
    pair_angles = [g.angle for g in fm.gates if isinstance(g.angle, PairProductAngle)]
    rep0 = [(a.index_a, a.index_b) for a in pair_angles[:4]]
    rep1 = [(a.index_a, a.index_b) for a in pair_angles[4:]]
    assert rep0 == entangler_pairs("sca", 4, 0)
    assert rep1 == entangler_pairs("sca", 4, 1)


def test_zz_feature_map_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n_qubits"):
        build_zz_feature_map(1, 1, "full")
    with pytest.raises(ValueError, match="reps"):
        build_zz_feature_map(2, 0, "full")


def test_ansatz_counts_and_slots():
    ans = build_ansatz(4, 3, "linear")
    assert ans.n_parameter_slots == 16
    kinds = [g.kind for g in ans.gates]
    assert kinds.count("RY") == 16
    assert kinds.count("CX") == 9
    slots = [g.angle.index for g in ans.gates if g.kind == "RY"]
    assert slots == list(range(16))  # layer-major, qubit-minor


def test_ansatz_small_structure():
    ans = build_ansatz(2, 1, "full")
    assert ans.n_parameter_slots == 4
    assert [g.kind for g in ans.gates] == ["RY", "RY", "CX", "RY", "RY"]


def test_ansatz_sca_blocks_shift_per_layer():
    ans = build_ansatz(4, 3, "sca")
    cx = [g.qubits for g in ans.gates if g.kind == "CX"]
    assert cx[0:4] == [(3, 0), (0, 1), (1, 2), (2, 3)]
    assert cx[4:8] == [(1, 0), (2, 1), (3, 2), (0, 3)]
    assert cx[8:12] == [(1, 2), (2, 3), (3, 0), (0, 1)]


def test_ansatz_rejects_bad_reps():
    with pytest.raises(ValueError, match="reps"):
        build_ansatz(4, 0, "linear")


# --- gate and template invariants ------------------------------------------

def test_gate_spec_invariants():
    with pytest.raises(ValueError, match="carries no angle"):
        GateSpec("H", (0,), ConstAngle(1.0))
    with pytest.raises(ValueError, match="requires an angle"):
        GateSpec("P", (0,))
    with pytest.raises(ValueError, match="distinct"):
        GateSpec("CX", (1, 1))


def test_gate_spec_refuses_unknown_kinds():
    # run_gates once ran any unknown kind as an RY: an "RZ" turned |0> to |1>,
    # and an angle-free "X" failed deep inside evaluate
    with pytest.raises(ValueError, match="unknown gate kind 'RZ'"):
        GateSpec("RZ", (0,), ConstAngle(np.pi))
    with pytest.raises(ValueError, match="unknown gate kind 'X'"):
        GateSpec("X", (0,))


@pytest.mark.parametrize("strategy", ENTANGLEMENTS)
def test_every_builder_still_constructs(strategy):
    ansatz = build_ansatz(4, 3, strategy)
    for feature_map in (build_z_feature_map(4, 2), build_zz_feature_map(4, 2, strategy)):
        template = compose(feature_map, ansatz)
        assert {g.kind for g in template.gates} == {"H", "P", "RY", "CX"}


def test_template_rejects_out_of_range_slots():
    with pytest.raises(ValueError, match="feature slot"):
        CircuitTemplate(2, (GateSpec("P", (0,), FeatureAngle(3)),), n_feature_slots=2)
    with pytest.raises(ValueError, match="parameter slot"):
        CircuitTemplate(2, (GateSpec("RY", (0,), ParamAngle(0)),))
    with pytest.raises(ValueError, match="gate qubit"):
        CircuitTemplate(2, (GateSpec("H", (2,)),))


# --- compose ----------------------------------------------------------------

def test_compose_counts():
    fm = build_z_feature_map(4, 2)
    ans = build_ansatz(4, 3, "linear")
    qnn = compose(fm, ans)
    assert len(qnn.gates) == 16 + 25
    assert qnn.n_feature_slots == 4
    assert qnn.n_parameter_slots == 16


def test_compose_rejects_qubit_mismatch():
    with pytest.raises(ValueError, match="qubit counts differ"):
        compose(build_z_feature_map(4, 1), build_ansatz(2, 1, "full"))


def test_compose_refuses_parameters_first_or_features_second():
    fm, ans = build_z_feature_map(4, 1), build_ansatz(4, 1, "linear")
    for first, second in ((ans, ans), (fm, fm), (ans, fm)):
        with pytest.raises(ValueError, match="feature map to an ansatz"):
            compose(first, second)


def test_compose_matches_sequential_execution():
    rng = np.random.default_rng(5)
    fm = build_zz_feature_map(4, 2, "full")
    ans = build_ansatz(4, 3, "circular")
    qnn = compose(fm, ans)
    x = rng.uniform(0, np.pi, size=4)
    theta = rng.uniform(-np.pi, np.pi, size=16)

    state = simulate(fm, x, [])
    run_gates(state, ans.gates, 4, np.zeros(0), theta)
    combined = simulate(qnn, x, theta)
    np.testing.assert_allclose(combined, state, atol=1e-12)


# --- evaluate ---------------------------------------------------------------

@pytest.mark.parametrize("strategy", ENTANGLEMENTS)
def test_zero_inputs_zero_params_predict_plus_one(strategy):
    qnn = compose(build_z_feature_map(4, 2), build_ansatz(4, 3, strategy))
    value = evaluate(qnn, np.zeros(4), np.zeros(16))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_single_qubit_z_map_expectation_is_zero():
    fm = build_z_feature_map(1, 1)
    rng = np.random.default_rng(9)
    for x in rng.uniform(0, np.pi, size=20):
        assert evaluate(fm, [x], []) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_matches_dense_matrix_oracle():
    rng = np.random.default_rng(13)
    fm = build_zz_feature_map(4, 2, "full")
    ans = build_ansatz(4, 3, "linear")
    qnn = compose(fm, ans)
    for _ in range(3):
        x = rng.uniform(0, np.pi, size=4)
        theta = rng.uniform(-np.pi, np.pi, size=16)
        op = dense_template_matrix(qnn, x, theta)
        zero = np.zeros(16, dtype=complex)
        zero[0] = 1.0
        amps = op @ zero
        state = simulate(qnn, x, theta)
        np.testing.assert_allclose(state, amps, atol=1e-10)


def test_evaluate_rejects_wrong_lengths():
    qnn = compose(build_z_feature_map(4, 1), build_ansatz(4, 1, "linear"))
    with pytest.raises(ValueError, match="features"):
        evaluate(qnn, np.zeros(3), np.zeros(8))
    with pytest.raises(ValueError, match="parameters"):
        evaluate(qnn, np.zeros(4), np.zeros(7))
    with pytest.raises(ValueError, match="expected 1 features, got a scalar"):
        simulate(build_z_feature_map(1, 1), 0.5, [])
    with pytest.raises(ValueError, match=r"one feature vector, got shape \(3, 2\)"):
        evaluate(build_z_feature_map(2, 1), np.zeros((3, 2)), [])
    with pytest.raises(ValueError, match=r"one feature vector, got shape \(\)"):
        evaluate(build_z_feature_map(1, 1), 0.5, [])


def test_simulate_returns_one_state_per_feature_vector():
    rng = np.random.default_rng(21)
    qnn = compose(build_zz_feature_map(4, 2, "full"), build_ansatz(4, 3, "pairwise"))
    xs = rng.uniform(0, np.pi, size=(2, 3, 4))
    theta = rng.uniform(-np.pi, np.pi, size=16)
    assert simulate(qnn, xs[0, 0], theta).shape == (16,)
    assert simulate(qnn, xs[0], theta).shape == (3, 16)
    stack = simulate(qnn, xs, theta)
    assert isinstance(stack, np.ndarray) and stack.shape == (2, 3, 16)
    for index in np.ndindex(2, 3):
        np.testing.assert_allclose(stack[index], simulate(qnn, xs[index], theta), atol=1e-12)


@pytest.mark.parametrize("strategy", ENTANGLEMENTS)
def test_norm_preserved_for_all_strategies(strategy):
    rng = np.random.default_rng(17)
    qnn = compose(build_zz_feature_map(4, 2, "full"), build_ansatz(4, 3, strategy))
    x = rng.uniform(0, np.pi, size=4)
    theta = rng.uniform(-np.pi, np.pi, size=16)
    assert np.linalg.norm(simulate(qnn, x, theta)) == pytest.approx(1.0, abs=1e-10)


def test_evaluate_batch_matches_per_sample_loop():
    rng = np.random.default_rng(19)
    qnn = compose(build_zz_feature_map(4, 2, "full"), build_ansatz(4, 3, "sca"))
    xs = rng.uniform(0, np.pi, size=(7, 4))
    theta = rng.uniform(-np.pi, np.pi, size=16)
    batch = evaluate_batch(qnn, xs, theta)
    singles = np.array([evaluate(qnn, x, theta) for x in xs])
    np.testing.assert_allclose(batch, singles, atol=1e-12)
    assert np.all(np.abs(batch) <= 1.0 + 1e-12)


# --- prefix split and rendering ---------------------------------------------

def test_feature_prefix_length_composed():
    fm = build_z_feature_map(4, 2)
    qnn = compose(fm, build_ansatz(4, 3, "linear"))
    assert feature_prefix_length(qnn) == len(fm.gates)
    assert feature_prefix_length(fm) == len(fm.gates)
    assert feature_prefix_length(build_ansatz(4, 1, "linear")) == 0


def test_feature_prefix_length_unsafe_interleaving():
    t = CircuitTemplate(
        1,
        (GateSpec("RY", (0,), ParamAngle(0)), GateSpec("P", (0,), FeatureAngle(0))),
        n_feature_slots=1,
        n_parameter_slots=1,
    )
    with pytest.raises(ValueError, match="no parameter-free prefix"):
        feature_prefix_length(t)


def test_render_z_feature_map():
    fm = build_z_feature_map(2, 1)
    assert render(fm) == "H q0\nP(2*x0) q0\nH q1\nP(2*x1) q1"


def test_render_gate_forms():
    qnn = compose(build_zz_feature_map(2, 1, "full"), build_ansatz(2, 1, "full"))
    lines = render(qnn).splitlines()
    assert lines[4] == "CX q0,q1"
    assert lines[5] == "P(2*(pi-x0)*(pi-x1)) q1"
    assert "RY(t3) q1" in lines
