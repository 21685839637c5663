"""The compiled feature-prefix encoding against the dense oracle.

``qnn.encode`` runs a prefix as constant blocks, phase groups and, for a
gate the compiler cannot place, single gates.  Every state must match the
dense matrix product of the prefix, and every row must come out as it
would alone, bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windqnn.circuit import (
    ENTANGLEMENTS,
    CircuitTemplate,
    ConstAngle,
    FeatureAngle,
    GateSpec,
    PairProductAngle,
    build_z_feature_map,
    build_zz_feature_map,
    feature_prefix_length,
)
from windqnn.qnn import _compile_prefix, build_model, encode

from oracles import dense_template_matrix

MAPS = [pytest.param(build_z_feature_map(4, reps), id=f"z-reps{reps}") for reps in (1, 2, 3)]
MAPS += [pytest.param(build_zz_feature_map(4, reps, entanglement), id=f"zz-{entanglement}-reps{reps}")
         for entanglement in ENTANGLEMENTS for reps in (1, 2, 3)]
BENCHMARK_MAPS = [pytest.param(build_model(c).template, id=c) for c in ("QNN-1", "QNN-7")]


def _assert_matches_dense_oracle(template, xs):
    want = [dense_template_matrix(template, x, [])[:, 0] for x in xs]
    np.testing.assert_allclose(encode(template, xs), np.reshape(want, (len(xs), -1)),
                               rtol=0, atol=1e-12)


def _assert_rows_independent(template, xs):
    batch = encode(template, xs)
    for i in range(len(xs)):
        assert batch[i].tobytes() == encode(template, xs[i:i + 1])[0].tobytes()


@pytest.mark.parametrize("template", MAPS)
def test_feature_maps_match_the_dense_oracle(template):
    xs = np.random.default_rng(11).uniform(0, np.pi, size=(6, 4))
    _assert_matches_dense_oracle(template, xs)


@st.composite
def feature_prefixes(draw):
    """A parameter-free gate list over 1-3 qubits and 1-3 features: H, CX,
    constant P and RY, P of one feature or of a feature pair, and RY of a
    feature, which the compiler leaves as a gate."""
    n_qubits = draw(st.integers(1, 3))
    n_features = draw(st.integers(1, 3))
    qubit = st.integers(0, n_qubits - 1)
    feature = st.integers(0, n_features - 1)
    angles = {
        "constant": lambda: ConstAngle(draw(st.floats(-np.pi, np.pi))),
        "feature": lambda: FeatureAngle(draw(feature)),
        "pair": lambda: PairProductAngle(draw(feature), draw(feature)),
    }
    kinds = [("H", None), ("P", "constant"), ("RY", "constant"), ("P", "feature"),
             ("P", "pair"), ("RY", "feature")]
    if n_qubits > 1:
        kinds += [("CX", None)] * 2
    gates = []
    for kind, source in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        if kind == "CX":
            gates.append(GateSpec("CX", tuple(draw(st.permutations(range(n_qubits)))[:2])))
        else:
            gates.append(GateSpec(kind, (draw(qubit),), source and angles[source]()))
    return CircuitTemplate(n_qubits, tuple(gates), n_feature_slots=n_features)


@st.composite
def bound_prefixes(draw):
    template = draw(feature_prefixes())
    width = template.n_feature_slots
    values = draw(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=3 * width,
                           max_size=3 * width))
    return template, np.reshape(values, (3, width))


@settings(max_examples=80, deadline=None)
@given(bound_prefixes())
def test_drawn_prefixes_match_the_dense_oracle(case):
    _assert_matches_dense_oracle(*case)


@pytest.mark.parametrize("rows", [1, 2, 65])
@settings(max_examples=30, deadline=None)
@given(template=feature_prefixes(), seed=st.integers(0, 2**32 - 1))
def test_drawn_prefix_rows_encode_as_they_would_alone(rows, template, seed):
    xs = np.random.default_rng(seed).uniform(-np.pi, 2 * np.pi,
                                             size=(rows, template.n_feature_slots))
    _assert_rows_independent(template, xs)


@pytest.mark.parametrize("rows", [1, 2, 65])
@pytest.mark.parametrize("template", BENCHMARK_MAPS)
def test_benchmark_rows_encode_as_they_would_alone(template, rows):
    _assert_rows_independent(template, np.random.default_rng(rows).uniform(0, np.pi, (rows, 4)))


@pytest.mark.parametrize("template", BENCHMARK_MAPS + MAPS[:1])
def test_no_rows_encode_to_no_states(template):
    assert encode(template, np.zeros((0, 4))).shape == (0, 16)


@pytest.mark.parametrize("template", BENCHMARK_MAPS)
def test_benchmark_prefixes_compile_to_two_blocks_and_two_phase_groups(template):
    # Both maps are H on every qubit, then a diagonal phase, twice.  The ZZ
    # map's CX pairs cancel, and its two phase groups are one distinct
    # group, so one call takes its exponentials once.
    encoding = _compile_prefix(template.gates[:feature_prefix_length(template)], 4)
    assert [kind for kind, _ in encoding.steps] == ["block", "phase", "block", "phase"]
    assert [value for kind, value in encoding.steps if kind == "phase"] == [0, 0]
    assert len(encoding.groups) == 1


def test_a_feature_rotation_stays_a_gate_between_blocks():
    template = CircuitTemplate(
        2, (GateSpec("H", (0,)), GateSpec("RY", (1,), FeatureAngle(0)), GateSpec("H", (1,)),
            GateSpec("P", (1,), FeatureAngle(1))), n_feature_slots=2)
    encoding = _compile_prefix(template.gates, 2)
    assert [kind for kind, _ in encoding.steps] == ["block", "gates", "block", "phase"]
    _assert_matches_dense_oracle(template, np.array([[0.3, 1.2], [2.5, -0.7]]))


def test_a_register_too_wide_to_compile_runs_gate_by_gate():
    # the blocks of a 9-qubit prefix would be 512 x 512
    template = build_z_feature_map(9, 1)
    assert {kind for kind, _ in _compile_prefix(template.gates, 9).steps} == {"gates"}
    _assert_matches_dense_oracle(template, np.random.default_rng(5).uniform(0, np.pi, (2, 9)))


def test_encode_compiles_a_prefix_once():
    template = build_model("QNN-9").template
    xs = np.random.default_rng(3).uniform(0, np.pi, size=(4, 4))
    encode(template, xs)
    misses = _compile_prefix.cache_info().misses
    encode(template, xs[:2])
    encode(build_model("QNN-12").template, xs)  # same map, another ansatz
    assert _compile_prefix.cache_info().misses == misses
