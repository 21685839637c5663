"""Model-level tests: config matrix, prediction oracles, gradients, training."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windqnn.circuit import (
    CircuitTemplate,
    ConstAngle,
    FeatureAngle,
    GateSpec,
    ParamAngle,
    build_ansatz,
    build_z_feature_map,
    build_zz_feature_map,
    compose,
    evaluate_batch,
    feature_prefix_length,
    run_gates,
)
from windqnn.optimizer import OptimizerOptions
from windqnn.qnn import (
    CONFIG_IDS,
    CONFIG_TABLE,
    Gram,
    QnnModel,
    _DenseSuffix,
    _GramObjective,
    _run_matrix,
    build_model,
    encode,
    gradient_parameter_shift,
    gram_form,
    initial_parameters,
    loss_mse,
    predict_scaled,
    same_training,
    train,
    with_parameters,
)

from oracles import (
    dense_suffix_blocks,
    dense_suffix_observable,
    dense_template_matrix,
    dense_z_all_operator,
    rowwise_loss_and_shift_gradient,
)


def _gram(model, xs, ys):
    return gram_form(encode(model.template, xs), ys)


# --- configuration matrix ----------------------------------------------------

def test_config_table_pairs_maps_and_entanglements():
    assert len(CONFIG_IDS) == 12
    assert CONFIG_TABLE["QNN-1"] == ("z", "linear")
    assert CONFIG_TABLE["QNN-5"] == ("z", "reverse_linear")
    assert CONFIG_TABLE["QNN-7"] == ("zz", "linear")
    assert CONFIG_TABLE["QNN-12"] == ("zz", "pairwise")
    z_families = [CONFIG_TABLE[f"QNN-{i}"][0] for i in range(1, 13)]
    assert z_families == ["z"] * 6 + ["zz"] * 6


def test_build_model_shapes():
    model = build_model("QNN-1")
    assert model.template.n_feature_slots == 4
    assert model.template.n_parameter_slots == 16
    assert model.parameters.shape == (16,)
    # Z-map configs have no entanglers in the feature-map prefix
    prefix_kinds = {g.kind for g in model.template.gates[:16]}
    assert "CX" not in prefix_kinds
    zz = build_model("QNN-7")
    assert "CX" in {g.kind for g in zz.template.gates[:20]}


def test_build_model_rejects_unknown_id():
    with pytest.raises(ValueError, match="QNN-1"):
        build_model("QNN-13")


def test_initial_parameters_seeded_and_bounded():
    a = initial_parameters(16, seed=42)
    b = initial_parameters(16, seed=42)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= np.pi)
    assert not np.array_equal(a, initial_parameters(16, seed=43))


def test_model_rejects_mismatched_parameters():
    model = build_model("QNN-1")
    with pytest.raises(ValueError, match="parameter vector"):
        QnnModel(template=model.template, parameters=np.zeros(7))


# --- prediction --------------------------------------------------------------

def test_zero_model_predicts_plus_one_at_origin():
    model = with_parameters(build_model("QNN-1"), np.zeros(16))
    assert predict_scaled(model, np.zeros(4)) == pytest.approx(1.0, abs=1e-12)
    # a pi rotation on qubit 0 in the final layer flips the parity to -1
    theta = np.zeros(16)
    theta[12] = np.pi
    assert predict_scaled(with_parameters(model, theta), np.zeros(4)) == pytest.approx(
        -1.0, abs=1e-12)


@pytest.mark.parametrize("config_id", ["QNN-3", "QNN-9"])
def test_predictions_bounded(config_id):
    rng = np.random.default_rng(51)
    model = build_model(config_id, init_seed=7)
    xs = rng.uniform(0, np.pi, size=(20, 4))
    preds = predict_scaled(model, xs)
    assert np.all(np.abs(preds) <= 1.0 + 1e-12)


def test_prediction_matches_dense_oracle():
    rng = np.random.default_rng(53)
    model = build_model("QNN-10", init_seed=11)
    x = rng.uniform(0, np.pi, size=4)
    op = dense_template_matrix(model.template, x, model.parameters)
    zero = np.zeros(16, dtype=complex)
    zero[0] = 1.0
    amps = op @ zero
    want = float(np.real(amps.conj() @ dense_z_all_operator(4) @ amps))
    assert predict_scaled(model, x) == pytest.approx(want, abs=1e-10)


# --- loss --------------------------------------------------------------------

def test_loss_zero_for_perfect_targets():
    rng = np.random.default_rng(59)
    model = build_model("QNN-2", init_seed=5)
    xs = rng.uniform(0, np.pi, size=(6, 4))
    # loss_mse reads out gate by gate; predict_scaled's collapsed readout
    # agrees with it only to rounding (see the 12-config test below)
    targets = evaluate_batch(model.template, xs, model.parameters)
    assert loss_mse(model, xs, targets) == 0.0


def test_loss_single_sample_value():
    model = with_parameters(build_model("QNN-1"), np.zeros(16))
    assert loss_mse(model, np.zeros((1, 4)), np.array([-1.0])) == pytest.approx(4.0)


def test_loss_matches_naive_oracle():
    rng = np.random.default_rng(61)
    model = build_model("QNN-9", init_seed=13)
    xs = rng.uniform(0, np.pi, size=(5, 4))
    ys = rng.uniform(-1, 1, size=5)
    naive = sum(
        (float(predict_scaled(model, x)) - y) ** 2 for x, y in zip(xs, ys)
    ) / 5.0
    assert loss_mse(model, xs, ys) == pytest.approx(naive, abs=1e-12)


_ROW_ENTRIES = {
    "predict_scaled": lambda model, xs, ys: predict_scaled(model, xs),
    "gradient_parameter_shift": gradient_parameter_shift,
    "loss_mse": loss_mse,
    "encode": lambda model, xs, ys: encode(model.template, xs),
    "gram_form": lambda model, xs, ys: gram_form(encode(model.template, xs), ys),
    # states encoded from fewer rows than the features given with them
    "predict_scaled_states": lambda model, xs, ys: predict_scaled(
        model, xs, encode(model.template, xs[:-2])),
    # a single row passes its states on, so two state rows for it are refused
    "predict_scaled_row_states": lambda model, xs, ys: predict_scaled(
        model, xs[0], encode(model.template, xs[:2])),
}


@pytest.mark.parametrize("entry, rows, width, n_targets, match", [
    *[pytest.param(entry, 3, width, 3, f"expected 4 features, got {width}",
                   id=f"{entry}-width-{width}")
      for entry in ("predict_scaled", "gradient_parameter_shift", "loss_mse", "encode")
      for width in (3, 5)],
    *[pytest.param(entry, 0, 4, 0, "at least one sample", id=f"{entry}-no-rows")
      for entry in ("gradient_parameter_shift", "gram_form", "loss_mse")],
    *[pytest.param(entry, 3, 4, 2, "targets shape", id=f"{entry}-short-targets")
      for entry in ("gradient_parameter_shift", "gram_form", "loss_mse")],
    pytest.param("predict_scaled_states", 5, 4, 5, "got 3 state rows for 5 feature rows",
                 id="predict_scaled-short-states"),
    pytest.param("predict_scaled_row_states", 3, 4, 3, "got 2 state rows for 1 feature rows",
                 id="predict_scaled-row-states"),
])
def test_bad_row_shapes_are_rejected(entry, rows, width, n_targets, match):
    # every entry point of QNN rows rejects a wrong width, no rows, or a
    # target count that does not match the rows
    with pytest.raises(ValueError, match=match):
        _ROW_ENTRIES[entry](build_model("QNN-1"), np.zeros((rows, width)), np.zeros(n_targets))


# --- gradients ---------------------------------------------------------------

def _central_difference(model, xs, ys, h=1e-6):
    grad = np.empty(model.parameters.shape[0])
    for k in range(grad.shape[0]):
        step = np.zeros_like(model.parameters)
        step[k] = h
        grad[k] = (
            loss_mse(with_parameters(model, model.parameters + step), xs, ys)
            - loss_mse(with_parameters(model, model.parameters - step), xs, ys)
        ) / (2 * h)
    return grad


def test_gradient_zero_at_zero_residuals():
    rng = np.random.default_rng(63)
    model = build_model("QNN-4", init_seed=17)
    xs = rng.uniform(0, np.pi, size=(4, 4))
    targets = predict_scaled(model, xs)
    grad = gradient_parameter_shift(model, xs, targets)
    np.testing.assert_allclose(grad, np.zeros(16), atol=1e-14)


@pytest.mark.parametrize("config_id", ["QNN-1", "QNN-8"])
def test_parameter_shift_matches_central_difference(config_id):
    rng = np.random.default_rng(67)
    model = build_model(config_id, init_seed=19)
    xs = rng.uniform(0, np.pi, size=(8, 4))
    ys = rng.uniform(-1, 1, size=8)
    grad = gradient_parameter_shift(model, xs, ys)
    assert np.max(np.abs(grad - _central_difference(model, xs, ys))) < 1e-6


def test_observable_cache_matches_full_evaluation():
    rng = np.random.default_rng(73)
    model = build_model("QNN-11", init_seed=29)
    xs = rng.uniform(0, np.pi, size=(5, 4))
    states = encode(model.template, xs)

    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, size=16)
        np.testing.assert_allclose(
            predict_scaled(with_parameters(model, theta), xs, states),
            evaluate_batch(model.template, xs, theta), atol=1e-12,
        )


def test_template_without_a_feature_prefix_is_rejected():
    # A feature gate after a parameterized gate leaves no parameter-free
    # prefix to encode, so no model can be made of the template; the
    # gate-level reference still evaluates it.
    template = CircuitTemplate(
        1,
        (GateSpec("RY", (0,), ParamAngle(0)), GateSpec("P", (0,), FeatureAngle(0)),
         GateSpec("H", (0,)), GateSpec("RY", (0,), ParamAngle(1))),
        n_feature_slots=1,
        n_parameter_slots=2,
    )
    xs = np.array([[0.4], [1.1]])
    parameters = np.array([0.7, -0.3])
    for call in (lambda: encode(template, xs),
                 lambda: QnnModel(template=template, parameters=parameters)):
        with pytest.raises(ValueError, match="feature gate follows a parameterized gate"):
            call()
    assert evaluate_batch(template, xs, parameters).shape == (2,)


def test_only_rotations_carry_trainable_angles():
    template = CircuitTemplate(1, (GateSpec("P", (0,), ParamAngle(0)),), n_parameter_slots=1)
    with pytest.raises(ValueError, match="only RY"):
        QnnModel(template=template, parameters=np.zeros(1))


def test_a_complex_constant_gate_in_the_suffix_is_rejected():
    # M(theta) is real symmetric only while every suffix gate is real; a
    # constant P ahead of the first trainable RY belongs to the encoded
    # prefix and stays allowed.
    template = CircuitTemplate(
        1,
        (GateSpec("P", (0,), ConstAngle(0.3)), GateSpec("RY", (0,), ParamAngle(0)),
         GateSpec("P", (0,), ConstAngle(0.3)), GateSpec("RY", (0,), ParamAngle(1))),
        n_parameter_slots=2,
    )
    with pytest.raises(ValueError, match="suffix must be real"):
        QnnModel(template=template, parameters=np.zeros(2))
    QnnModel(template=CircuitTemplate(1, template.gates[:2], n_parameter_slots=1),
             parameters=np.zeros(1))


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_benchmark_observables_are_real_symmetric(config_id):
    # The premise of the real Gram form: RY and CX make U(theta) real, so
    # the dense oracle's M has no imaginary part at all.
    ansatz = build_ansatz(4, 3, CONFIG_TABLE[config_id][1])
    suffix = build_model(config_id).suffix
    for theta in np.random.default_rng(78).uniform(-np.pi, np.pi, size=(3, 16)):
        oracle = dense_suffix_observable(ansatz, theta)
        assert np.all(oracle.imag == 0.0)
        np.testing.assert_allclose(suffix.observable(theta), oracle.real, rtol=0, atol=1e-12)


def test_a_slot_shared_by_two_gates_sums_their_shifts():
    template = CircuitTemplate(
        2,
        (GateSpec("H", (0,)), GateSpec("P", (1,), FeatureAngle(0)),
         GateSpec("RY", (0,), ParamAngle(0)), GateSpec("CX", (0, 1)),
         GateSpec("RY", (1,), ParamAngle(0)), GateSpec("RY", (0,), ParamAngle(1))),
        n_feature_slots=1,
        n_parameter_slots=2,
    )
    xs = np.array([[0.4], [1.1], [2.5]])
    ys = np.array([0.2, -0.5, 0.1])
    model = QnnModel(template=template, parameters=np.array([0.7, -0.3]))
    np.testing.assert_allclose(
        gradient_parameter_shift(model, xs, ys), _central_difference(model, xs, ys),
        rtol=0, atol=1e-8,
    )


def test_full_and_reverse_linear_ansatz_share_one_observable():
    # Both CX layers permute the basis identically, which is why QNN-2 and
    # QNN-5 (and QNN-8 and QNN-11) report identical metrics.
    rng = np.random.default_rng(74)
    full = _DenseSuffix(build_ansatz(4, 3, "full"))
    reverse = _DenseSuffix(build_ansatz(4, 3, "reverse_linear"))
    for theta in rng.uniform(-np.pi, np.pi, size=(8, 16)):
        np.testing.assert_allclose(full.observable(theta), reverse.observable(theta),
                                   rtol=0, atol=1e-12)


# --- rotation layers of the dense suffix --------------------------------------

def _dense_turns(suffix):
    """T_j of every gate, rebuilt as dense matrices from the suffix's
    (g_j, a, i) entries and signs, and the layer each entry points into."""
    dim = suffix._runs.shape[-1]
    layer, column, row = np.unravel_index(suffix._turn_entries, suffix._runs.shape)
    turns = np.zeros((suffix.slots.size, dim, dim))
    gate = np.arange(suffix.slots.size)[:, None]
    turns[gate, row, column] = suffix._turn_signs
    assert np.array_equal(column, np.broadcast_to(np.arange(dim), column.shape))
    return turns, layer


def _assert_blocks_equal_oracle(template):
    # the oracle runs the constant gates ahead of the first trainable RY as
    # a lead block; the split moves them into the prefix, so it is always I
    suffix = _DenseSuffix(template)
    lead, blocks, turns = dense_suffix_blocks(template)
    assert np.array_equal(lead, np.eye(2**template.n_qubits))
    last = [np.flatnonzero(suffix.layers == g)[-1] for g in range(suffix._runs.shape[0])]
    # a layer's run is the run after its last gate, bit for bit; no constant
    # gate stands between two gates of one layer
    assert np.array_equal(suffix._runs, blocks[last])
    inner = np.setdiff1d(np.arange(suffix.slots.size), last)
    assert np.array_equal(blocks[inner], np.broadcast_to(lead, blocks[inner].shape))
    # the closed-form turns take the simulated RY(pi) turns' rows and signs
    # exactly; the simulation leaves cos(pi/2) = 6.1e-17 on the diagonal
    dense, layer = _dense_turns(suffix)
    rows = np.argmax(np.abs(turns), axis=1)
    assert np.array_equal(rows, np.argmax(np.abs(dense), axis=1))
    assert np.array_equal(np.take_along_axis(turns, rows[:, None], axis=1),
                          np.take_along_axis(dense, rows[:, None], axis=1))
    assert np.max(np.abs(turns - dense), initial=0.0) <= np.cos(np.pi / 2)
    assert np.array_equal(layer, np.broadcast_to(suffix.layers[:, None], layer.shape))
    # each layer factor is the product of its gates' factors cos K_j + sin L_j
    rng = np.random.default_rng(77)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=(3, template.n_parameter_slots)):
        half = theta[suffix.slots] / 2.0
        gate_factors = (np.cos(half)[:, None, None] * blocks
                        + np.sin(half)[:, None, None] * (blocks @ turns))
        for g, factor in enumerate(suffix.factors(theta)):
            want = lead
            for j in np.flatnonzero(suffix.layers == g):
                want = gate_factors[j] @ want
            np.testing.assert_allclose(factor, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_benchmark_blocks_match_the_simulated_oracle(config_id):
    _assert_blocks_equal_oracle(build_model(config_id).template)


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_benchmark_suffixes_have_four_layers_of_four_gates(config_id):
    suffix = build_model(config_id).suffix
    assert suffix._runs.shape == (4, 16, 16)
    assert suffix.layers.tolist() == [g for g in range(4) for _ in range(4)]
    assert suffix.qubits.tolist() == [0, 1, 2, 3] * 4


def _suffix_of(*gates):
    slots = sum(isinstance(g.angle, ParamAngle) for g in gates)
    return _DenseSuffix(CircuitTemplate(4, gates, n_parameter_slots=slots))


def test_rotations_on_distinct_qubits_share_a_layer():
    suffix = _suffix_of(GateSpec("RY", (2,), ParamAngle(0)), GateSpec("RY", (0,), ParamAngle(1)),
                        GateSpec("RY", (3,), ParamAngle(2)))
    assert suffix.layers.tolist() == [0, 0, 0]
    assert np.array_equal(suffix._runs, np.eye(16)[None])


def test_a_repeated_qubit_opens_a_new_layer():
    suffix = _suffix_of(GateSpec("RY", (1,), ParamAngle(0)), GateSpec("RY", (2,), ParamAngle(1)),
                        GateSpec("RY", (1,), ParamAngle(2)), GateSpec("RY", (2,), ParamAngle(3)))
    assert suffix.layers.tolist() == [0, 0, 1, 1]
    assert np.array_equal(suffix._runs, np.broadcast_to(np.eye(16), (2, 16, 16)))


def test_a_constant_gate_opens_a_new_layer():
    # the RYs sit on distinct qubits, yet the constant gate between them ends the layer
    for constant in (GateSpec("H", (1,)), GateSpec("CX", (3, 1)),
                     GateSpec("RY", (3,), ConstAngle(0.4))):
        suffix = _suffix_of(GateSpec("RY", (0,), ParamAngle(0)), constant,
                            GateSpec("RY", (2,), ParamAngle(1)))
        assert suffix.layers.tolist() == [0, 1]
        assert not np.array_equal(suffix._runs[0], np.eye(16))


# --- the run cache -------------------------------------------------------------

def test_a_second_model_of_an_ansatz_simulates_no_run(monkeypatch):
    build_model("QNN-2")
    calls = []
    monkeypatch.setattr("windqnn.qnn.run_gates",
                        lambda *a: calls.append(a) or run_gates(*a))
    second = build_model("QNN-8")
    assert calls == []
    np.testing.assert_allclose(second.suffix.observable(second.parameters),
                               dense_suffix_observable(build_ansatz(4, 3, "full"),
                                                       second.parameters).real,
                               rtol=0, atol=1e-12)


def test_cached_runs_are_read_only():
    entangler = tuple(g for g in build_ansatz(4, 3, "full").gates if g.kind == "CX")[:6]
    for run in (entangler, ()):
        matrix = _run_matrix(run, 4)
        assert matrix is _run_matrix(run, 4)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 2.0
    suffix = build_model("QNN-2").suffix
    suffix._runs[0, 0, 0] = 2.0  # a model's stack is its own copy
    assert build_model("QNN-5").suffix._runs[0, 0, 0] != 2.0


def test_a_complex_run_raises_on_every_build():
    # ValueError is not cached: the second build reads the cached run and raises again
    template = CircuitTemplate(
        1, (GateSpec("RY", (0,), ParamAngle(0)), GateSpec("P", (0,), ConstAngle(0.7))),
        n_parameter_slots=1)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"suffix must be real, but its constant gates \(P\)"):
            QnnModel(template=template, parameters=np.zeros(1))


@st.composite
def block_suffixes(draw):
    """A real suffix with an empty run between two RYs that share a qubit
    and a slot, a constant H or CX between two RYs, and random gates."""
    n_slots = draw(st.integers(1, 3))

    def ry():
        return GateSpec("RY", (draw(QUBITS),), ParamAngle(draw(st.integers(0, n_slots - 1))))

    def constant(kind):
        pair = tuple(draw(st.permutations(range(4)))[:2])
        return GateSpec("CX", pair) if kind == "CX" else GateSpec("H", pair[:1])

    twice = ry()
    pieces = [[twice, twice], [ry(), constant(draw(st.sampled_from(["H", "CX"]))), ry()]]
    pieces += [[constant(kind) if kind != "RY" else ry()]
               for kind in draw(st.lists(st.sampled_from(["RY", "H", "CX"]), max_size=8))]
    gates = [g for piece in draw(st.permutations(pieces)) for g in piece]
    return CircuitTemplate(4, tuple(gates), n_parameter_slots=n_slots)


@settings(max_examples=60, deadline=None)
@given(block_suffixes())
def test_suffix_blocks_match_the_simulated_oracle(template):
    _assert_blocks_equal_oracle(template)


def test_same_training_needs_equal_blocks_slots_and_parameters():
    full = build_model("QNN-2")
    assert same_training(full, build_model("QNN-5"))
    # the blocks do not see the feature map: a run pairs models of one map only
    assert same_training(full, build_model("QNN-8"))
    assert not same_training(full, build_model("QNN-3"))
    assert not same_training(full, build_model("QNN-2", init_seed=7))
    last = full.template.n_parameter_slots - 1
    swapped = CircuitTemplate(
        4, tuple(replace(g, angle=ParamAngle(last - g.angle.index))
                 if isinstance(g.angle, ParamAngle) else g for g in full.template.gates),
        n_feature_slots=4, n_parameter_slots=last + 1)
    assert not same_training(full, QnnModel(template=swapped, parameters=full.parameters))


# --- collapsed observable properties -----------------------------------------

ANGLES = st.floats(-np.pi, np.pi)
QUBITS = st.integers(0, 3)


@st.composite
def feature_maps(draw):
    """A Z or ZZ feature map of one or two repetitions."""
    reps = draw(st.integers(1, 2))
    if draw(st.booleans()):
        return build_z_feature_map(4, reps)
    return build_zz_feature_map(4, reps, draw(st.sampled_from(["full", "linear"])))


@st.composite
def prefixed_templates(draw):
    """A Z or ZZ feature map followed by a random feature-free suffix.

    The suffix always holds an H, RY run on one qubit, so it does not
    merely permute the basis; every RY owns one parameter slot.  Its gates
    are real, as the dense suffix requires.
    """
    prefix = draw(feature_maps())
    placed = [(kind, draw(st.permutations(range(4)))[:2])
              for kind in draw(st.lists(st.sampled_from(["RY", "H", "CX"]),
                                        max_size=10))]
    qubit = draw(QUBITS)
    at = draw(st.integers(0, len(placed)))
    placed[at:at] = [("H", [qubit]), ("RY", [qubit])]
    gates = []
    for kind, qubits in placed:
        if kind == "CX":
            gates.append(GateSpec("CX", tuple(qubits)))
        elif kind == "H":
            gates.append(GateSpec("H", (qubits[0],)))
        else:
            slot = sum(g.kind == "RY" for g in gates)
            gates.append(GateSpec("RY", (qubits[0],), ParamAngle(slot)))
    suffix = CircuitTemplate(4, tuple(gates),
                             n_parameter_slots=sum(g.kind == "RY" for g in gates))
    return prefix, suffix


@st.composite
def bound_models(draw, templates=prefixed_templates()):
    prefix, suffix = draw(templates)
    rows = draw(st.integers(1, 4))
    xs = np.array(draw(st.lists(st.floats(0, np.pi), min_size=4 * rows,
                                max_size=4 * rows))).reshape(rows, 4)
    theta = np.array(draw(st.lists(ANGLES, min_size=suffix.n_parameter_slots,
                                   max_size=suffix.n_parameter_slots)))
    ys = np.array(draw(st.lists(st.floats(-1, 1), min_size=rows, max_size=rows)))
    return prefix, suffix, xs, theta, ys


@settings(max_examples=60, deadline=None)
@given(bound_models())
def test_collapsed_predict_matches_dense_observable(case):
    prefix, suffix, xs, theta, _ = case
    model = QnnModel(template=compose(prefix, suffix), parameters=theta)
    observable = dense_suffix_observable(suffix, theta)
    want = []
    for x in xs:
        psi = dense_template_matrix(prefix, x, np.zeros(0))[:, 0]
        want.append(np.real(psi.conj() @ observable @ psi))
    np.testing.assert_allclose(predict_scaled(model, xs), want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(bound_models())
def test_dense_products_match_dense_template_matrix(case):
    # M(theta), and the change in every coordinate of m when one gate's
    # angle moves by +pi/2 and by -pi/2.  Each RY of these suffixes owns its
    # slot, so gate j shifts slot j, and with G = 0 and h = -e_k the gradient
    # is coordinate k of every gate's difference.  The split puts the
    # suffix's leading constant gates into the encoded prefix.
    prefix, suffix, _, theta, _ = case
    template = compose(prefix, suffix)
    rest = CircuitTemplate(4, template.gates[feature_prefix_length(template):],
                           n_parameter_slots=suffix.n_parameter_slots)
    dense = _DenseSuffix(template)
    np.testing.assert_allclose(dense.observable(theta),
                               dense_suffix_observable(rest, theta), rtol=0, atol=1e-12)
    upper = np.triu_indices(16)
    zero = np.zeros((upper[0].size,) * 2)
    differences = np.array([_GramObjective(dense, Gram(zero, -e, 0.0)).gradient(theta)
                            for e in np.eye(upper[0].size)]).T
    for slot in dense.slots:
        shift = np.zeros_like(theta)
        shift[slot] = np.pi / 2
        want = (dense_suffix_observable(rest, theta + shift)
                - dense_suffix_observable(rest, theta - shift))
        np.testing.assert_allclose(differences[slot], want[upper], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(bound_models())
def test_gram_loss_and_gradient_match_rowwise_oracle(case):
    prefix, suffix, xs, theta, ys = case
    template = compose(prefix, suffix)
    objective = _GramObjective(_DenseSuffix(template), gram_form(encode(template, xs), ys))
    loss, gradient = rowwise_loss_and_shift_gradient(prefix, suffix, xs, theta, ys)
    assert objective.loss(theta) == pytest.approx(loss, rel=0, abs=1e-12)
    np.testing.assert_allclose(objective.gradient(theta), gradient, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(bound_models())
def test_batched_shift_gradient_matches_central_difference(case):
    prefix, suffix, xs, theta, ys = case
    model = QnnModel(template=compose(prefix, suffix), parameters=theta)
    np.testing.assert_allclose(
        gradient_parameter_shift(model, xs, ys), _central_difference(model, xs, ys),
        rtol=0, atol=1e-7,
    )


def _slot_summed_oracle(prefix, suffix, xs, theta, ys):
    """The rowwise oracle with one slot per RY, its gradient summed back
    into the suffix's slots (the chain rule).  Shifting a slot that two
    gates read moves both at once, which the two-term rule does not
    differentiate exactly."""
    gates, slots = [], []
    for g in suffix.gates:
        if isinstance(g.angle, ParamAngle):
            slots.append(g.angle.index)
            g = replace(g, angle=ParamAngle(len(slots) - 1))
        gates.append(g)
    own = CircuitTemplate(4, tuple(gates), n_parameter_slots=len(slots))
    loss, per_gate = rowwise_loss_and_shift_gradient(prefix, own, xs, theta[slots], ys)
    return loss, np.bincount(slots, weights=per_gate, minlength=suffix.n_parameter_slots)


# suffixes whose RYs share slots and repeat on one qubit (``block_suffixes``)
SHARED_SLOT_MODELS = bound_models(st.tuples(feature_maps(), block_suffixes()))


@settings(max_examples=60, deadline=None)
@given(SHARED_SLOT_MODELS)
def test_shared_slot_gradient_matches_rowwise_oracle(case):
    prefix, suffix, xs, theta, ys = case
    template = compose(prefix, suffix)
    objective = _GramObjective(_DenseSuffix(template), gram_form(encode(template, xs), ys))
    loss, gradient = _slot_summed_oracle(prefix, suffix, xs, theta, ys)
    assert objective.loss(theta) == pytest.approx(loss, rel=0, abs=1e-12)
    np.testing.assert_allclose(objective.gradient(theta), gradient, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(SHARED_SLOT_MODELS)
def test_shared_slot_gradient_matches_central_difference(case):
    prefix, suffix, xs, theta, ys = case
    model = QnnModel(template=compose(prefix, suffix), parameters=theta)
    np.testing.assert_allclose(
        gradient_parameter_shift(model, xs, ys), _central_difference(model, xs, ys),
        rtol=0, atol=1e-7,
    )


@settings(max_examples=60, deadline=None)
@given(bound_models(), st.floats(0.1, np.pi))
def test_gradient_after_objective_equals_fresh_gradient(case, offset):
    # L-BFGS asks for the objective, then the gradient, at each trial point;
    # the gradient must reuse the objective's m and G m - h only when theta
    # is unchanged.
    prefix, suffix, xs, theta, ys = case
    template = compose(prefix, suffix)
    gram = gram_form(encode(template, xs), ys)
    suffix = _DenseSuffix(template)
    fresh = _GramObjective(suffix, gram).gradient(theta)
    same = _GramObjective(suffix, gram)
    same.loss(theta.copy())
    moved = _GramObjective(suffix, gram)
    moved.loss(theta + offset)
    assert np.array_equal(same.gradient(theta), fresh)
    assert np.array_equal(moved.gradient(theta), fresh)
    assert moved.loss(theta) == _GramObjective(suffix, gram).loss(theta)


def test_gradient_builds_the_observable_only_at_a_new_theta():
    rng = np.random.default_rng(76)
    model = build_model("QNN-8", init_seed=5)
    xs = rng.uniform(0, np.pi, size=(7, 4))
    ys = rng.uniform(-1, 1, size=7)
    objective = _GramObjective(model.suffix, _gram(model, xs, ys))
    built = []
    forward = objective.suffix.forward
    objective.suffix.forward = lambda theta: built.append(1) or forward(theta)
    objective.loss(model.parameters.copy())
    objective.gradient(model.parameters.copy())
    assert len(built) == 1  # an equal theta in a new array is a hit
    objective.gradient(model.parameters + 0.5)
    assert len(built) == 2


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_predictions_match_gate_level_evaluation(config_id):
    rng = np.random.default_rng(75)
    model = build_model(config_id, init_seed=47)
    xs = rng.uniform(0, np.pi, size=(9, 4))
    want = evaluate_batch(model.template, xs, model.parameters)
    np.testing.assert_allclose(predict_scaled(model, xs), want, rtol=0, atol=1e-12)
    shared = encode(model.template, xs)
    np.testing.assert_array_equal(predict_scaled(model, xs, shared),
                                  predict_scaled(model, xs))
    assert predict_scaled(model, xs[0], shared[0]) == predict_scaled(model, xs[0])


# --- training ----------------------------------------------------------------

def test_a_model_without_a_trainable_gate_reads_out_its_prefix():
    # no rotation layer: M is the parity itself, and there is nothing to train
    model = QnnModel(template=build_z_feature_map(2, 1), parameters=np.zeros(0))
    xs = np.random.default_rng(61).uniform(0, np.pi, size=(5, 2))
    ys = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(predict_scaled(model, xs),
                               evaluate_batch(model.template, xs, model.parameters),
                               rtol=0, atol=1e-12)
    assert gradient_parameter_shift(model, xs, ys).shape == (0,)
    result = train(model, _gram(model, xs, ys))
    assert result.status == "converged"
    assert result.trace == [(0, pytest.approx(loss_mse(model, xs, ys), abs=1e-12))]
    assert result.best_point.shape == (0,)


def test_train_already_optimal_stops_immediately():
    rng = np.random.default_rng(79)
    model = build_model("QNN-1", init_seed=31)
    xs = rng.uniform(0, np.pi, size=(5, 4))
    targets = predict_scaled(model, xs)
    result = train(model, _gram(model, xs, targets))
    assert result.status == "converged"
    assert len(result.trace) <= 2
    assert result.best_value == pytest.approx(0.0, abs=1e-12)


def test_train_honors_iteration_cap_and_descends():
    rng = np.random.default_rng(83)
    model = build_model("QNN-7", init_seed=37)
    xs = rng.uniform(0, np.pi, size=(12, 4))
    ys = rng.uniform(-1, 1, size=12)
    options = OptimizerOptions(max_iterations=5)
    result = train(model, _gram(model, xs, ys), options)
    assert len(result.trace) <= 6
    values = [v for _, v in result.trace]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-15
    assert result.best_value < values[0]


def test_train_reduces_loss_on_learnable_data():
    rng = np.random.default_rng(89)
    teacher = build_model("QNN-5", init_seed=41)
    xs = rng.uniform(0, np.pi, size=(20, 4))
    ys = predict_scaled(teacher, xs)
    student = build_model("QNN-5", init_seed=43)
    result = train(student, _gram(student, xs, ys), OptimizerOptions(max_iterations=25))
    assert result.best_value < 0.5 * result.trace[0][1]


def test_train_deterministic():
    rng = np.random.default_rng(97)
    xs = rng.uniform(0, np.pi, size=(8, 4))
    ys = rng.uniform(-1, 1, size=8)
    options = OptimizerOptions(max_iterations=4)
    a, b = (train(model, _gram(model, xs, ys), options)
            for model in (build_model("QNN-3", init_seed=7), build_model("QNN-3", init_seed=7)))
    np.testing.assert_array_equal(a.best_point, b.best_point)
    assert a.trace == b.trace
