"""Gate-level circuit templates: feature maps, ansatz layers, composition.

A template is an ordered gate list over named angle sources.  Feature and
parameter values are bound at evaluation time, so one template serves every
sample and every optimizer step.  Gate application delegates to the batched
statevector kernels, hence ``evaluate_batch`` runs a whole dataset through
the circuit with one numpy op per gate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .statevector import (
    HADAMARD,
    Statevector,
    apply_1q_array,
    apply_cx_array,
    apply_phase_array,
    apply_ry_array,
    expect_z_all_array,
    new_zero_state,
    zero_states,
)

ENTANGLEMENTS = ("linear", "reverse_linear", "full", "circular", "sca", "pairwise")


@dataclass(frozen=True)
class ConstAngle:
    """Fixed angle in radians."""

    value: float


@dataclass(frozen=True)
class FeatureAngle:
    """2 * x[index], the single-feature encoding angle."""

    index: int


@dataclass(frozen=True)
class PairProductAngle:
    """2 * (pi - x[index_a]) * (pi - x[index_b]), the two-feature interaction angle."""

    index_a: int
    index_b: int


@dataclass(frozen=True)
class ParamAngle:
    """theta[index], a trainable rotation angle."""

    index: int


AngleSource = Union[ConstAngle, FeatureAngle, PairProductAngle, ParamAngle]


@dataclass(frozen=True)
class GateSpec:
    """One gate: kind in {H, P, RY, CX}, target qubits, optional angle source."""

    kind: str
    qubits: tuple
    angle: Optional[AngleSource] = None

    def __post_init__(self):
        if self.kind in ("H", "CX") and self.angle is not None:
            raise ValueError(f"{self.kind} carries no angle")
        if self.kind in ("P", "RY") and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle source")
        if self.kind == "CX":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"CX needs two distinct qubits, got {self.qubits}")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit, got {self.qubits}")


def _feature_indices(angle: Optional[AngleSource]) -> tuple:
    if isinstance(angle, FeatureAngle):
        return (angle.index,)
    if isinstance(angle, PairProductAngle):
        return (angle.index_a, angle.index_b)
    return ()


@dataclass(frozen=True)
class CircuitTemplate:
    """Immutable ordered gate list plus declared feature/parameter slot counts."""

    n_qubits: int
    gates: tuple
    n_feature_slots: int = 0
    n_parameter_slots: int = 0

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate qubit {q} outside 0..{self.n_qubits - 1}")
            for i in _feature_indices(g.angle):
                if not 0 <= i < self.n_feature_slots:
                    raise ValueError(f"feature slot {i} outside declared count")
            if isinstance(g.angle, ParamAngle):
                if not 0 <= g.angle.index < self.n_parameter_slots:
                    raise ValueError(
                        f"parameter slot {g.angle.index} outside declared count"
                    )


def entangler_pairs(strategy: str, n_qubits: int, block_index: int = 0) -> list:
    """Ordered (control, target) list for one entanglement layer.

    linear: (i, i+1) ascending.  reverse_linear: the same pairs descending.
    full: all i < j in lexicographic order.  circular: (n-1, 0) then linear.
    pairwise: even-start pairs then odd-start pairs.  sca: circular with
    every index shifted by block_index mod n, control and target swapped on
    odd blocks.
    """
    if n_qubits < 2:
        raise ValueError(f"entanglement needs n_qubits >= 2, got {n_qubits}")
    if block_index < 0:
        raise ValueError(f"block_index must be >= 0, got {block_index}")
    if strategy not in ENTANGLEMENTS:
        raise ValueError(f"unknown entanglement {strategy!r}, expected one of {ENTANGLEMENTS}")

    linear = [(i, i + 1) for i in range(n_qubits - 1)]
    if strategy == "linear":
        return linear
    if strategy == "reverse_linear":
        return linear[::-1]
    if strategy == "full":
        return [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    if strategy == "circular":
        return [(n_qubits - 1, 0)] + linear
    if strategy == "pairwise":
        evens = [(i, i + 1) for i in range(0, n_qubits - 1, 2)]
        odds = [(i, i + 1) for i in range(1, n_qubits - 1, 2)]
        return evens + odds
    # sca
    shift = block_index % n_qubits
    pairs = [((c + shift) % n_qubits, (t + shift) % n_qubits)
             for c, t in [(n_qubits - 1, 0)] + linear]
    if block_index % 2 == 1:
        pairs = [(t, c) for c, t in pairs]
    return pairs


def build_z_feature_map(n_qubits: int, reps: int) -> CircuitTemplate:
    """Per repetition and qubit: H then P(2*x_i). No trainable parameters."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    gates = []
    for _ in range(reps):
        for q in range(n_qubits):
            gates.append(GateSpec("H", (q,)))
            gates.append(GateSpec("P", (q,), FeatureAngle(q)))
    return CircuitTemplate(n_qubits, tuple(gates), n_feature_slots=n_qubits)


def build_zz_feature_map(
    n_qubits: int, reps: int, entanglement: str = "full"
) -> CircuitTemplate:
    """Z encoding plus CX-sandwiched interaction phases per entangler pair.

    Per repetition: H on every qubit, P(2*x_i) on every qubit, then for each
    (i, j) from the entanglement layout (block index = repetition index):
    CX(i, j), P(2*(pi - x_i)*(pi - x_j)) on j, CX(i, j).
    """
    if n_qubits < 2:
        raise ValueError(f"ZZ feature map needs n_qubits >= 2, got {n_qubits}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    gates = []
    for rep in range(reps):
        for q in range(n_qubits):
            gates.append(GateSpec("H", (q,)))
        for q in range(n_qubits):
            gates.append(GateSpec("P", (q,), FeatureAngle(q)))
        for i, j in entangler_pairs(entanglement, n_qubits, rep):
            gates.append(GateSpec("CX", (i, j)))
            gates.append(GateSpec("P", (j,), PairProductAngle(i, j)))
            gates.append(GateSpec("CX", (i, j)))
    return CircuitTemplate(n_qubits, tuple(gates), n_feature_slots=n_qubits)


def build_ansatz(n_qubits: int, reps: int, strategy: str) -> CircuitTemplate:
    """RY rotation layers alternating CX entanglement layers, plus a final
    rotation layer.  Parameter slots are layer-major, qubit-minor:
    slot = layer * n_qubits + qubit."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    gates = []
    for block in range(reps):
        for q in range(n_qubits):
            gates.append(GateSpec("RY", (q,), ParamAngle(block * n_qubits + q)))
        for i, j in entangler_pairs(strategy, n_qubits, block):
            gates.append(GateSpec("CX", (i, j)))
    for q in range(n_qubits):
        gates.append(GateSpec("RY", (q,), ParamAngle(reps * n_qubits + q)))
    return CircuitTemplate(
        n_qubits, tuple(gates), n_parameter_slots=n_qubits * (reps + 1)
    )


def _shift_angle(angle: Optional[AngleSource], f_off: int, p_off: int):
    if isinstance(angle, FeatureAngle):
        return FeatureAngle(angle.index + f_off)
    if isinstance(angle, PairProductAngle):
        return PairProductAngle(angle.index_a + f_off, angle.index_b + f_off)
    if isinstance(angle, ParamAngle):
        return ParamAngle(angle.index + p_off)
    return angle


def compose(first: CircuitTemplate, second: CircuitTemplate) -> CircuitTemplate:
    """Concatenate gate lists; the second template's slots are renumbered
    after the first's so both stay dense."""
    if first.n_qubits != second.n_qubits:
        raise ValueError(
            f"qubit counts differ: {first.n_qubits} vs {second.n_qubits}"
        )
    shifted = tuple(
        GateSpec(g.kind, g.qubits,
                 _shift_angle(g.angle, first.n_feature_slots, first.n_parameter_slots))
        for g in second.gates
    )
    return CircuitTemplate(
        first.n_qubits,
        first.gates + shifted,
        n_feature_slots=first.n_feature_slots + second.n_feature_slots,
        n_parameter_slots=first.n_parameter_slots + second.n_parameter_slots,
    )


def _resolve_angle(angle: AngleSource, features: np.ndarray, params: np.ndarray):
    # features has shape (..., n_feature_slots) and params (..., n_parameter_slots);
    # returns a scalar or an array over their leading axes
    if isinstance(angle, ConstAngle):
        return angle.value
    if isinstance(angle, FeatureAngle):
        return 2.0 * features[..., angle.index]
    if isinstance(angle, PairProductAngle):
        return 2.0 * (np.pi - features[..., angle.index_a]) * (
            np.pi - features[..., angle.index_b]
        )
    return params[..., angle.index]


def run_gates(amps: np.ndarray, gates, n_qubits: int,
              features: np.ndarray, params: np.ndarray) -> None:
    """Apply a gate sequence in place to amplitude array(s), last axis = state.

    features and params may carry leading axes that broadcast against the
    amplitude batch axes: amplitudes of shape (B, N, 2**n) with params of
    shape (B, 1, P) run B parameter vectors over N states in one pass.
    """
    for g in gates:
        if g.kind == "H":
            apply_1q_array(amps, HADAMARD, g.qubits[0], n_qubits)
        elif g.kind == "CX":
            apply_cx_array(amps, g.qubits[0], g.qubits[1], n_qubits)
        elif g.kind == "P":
            apply_phase_array(amps, _resolve_angle(g.angle, features, params),
                              g.qubits[0], n_qubits)
        else:  # RY
            apply_ry_array(amps, _resolve_angle(g.angle, features, params),
                           g.qubits[0], n_qubits)


def _check_bindings(template: CircuitTemplate, features, params) -> tuple:
    features = np.asarray(features, dtype=float)
    params = np.asarray(params, dtype=float)
    if features.ndim == 0:
        features = features.reshape(0)
    if features.shape[-1] != template.n_feature_slots:
        raise ValueError(
            f"expected {template.n_feature_slots} features, got {features.shape[-1]}"
        )
    if params.ndim != 1 or params.shape[0] != template.n_parameter_slots:
        raise ValueError(
            f"expected {template.n_parameter_slots} parameters, got shape {params.shape}"
        )
    return features, params


def simulate(template: CircuitTemplate, features, params) -> Statevector:
    """Run the bound template from |0...0> and return the final state."""
    features, params = _check_bindings(template, features, params)
    state = new_zero_state(template.n_qubits)
    run_gates(state.amplitudes, template.gates, template.n_qubits, features, params)
    return state


def evaluate(template: CircuitTemplate, features, params) -> float:
    """All-qubit Z expectation of the bound template, a value in [-1, 1]."""
    state = simulate(template, features, params)
    return float(expect_z_all_array(state.amplitudes))


def evaluate_batch(template: CircuitTemplate, features, params) -> np.ndarray:
    """Vectorized evaluate over a (n_samples, n_feature_slots) feature matrix."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    features, params = _check_bindings(template, features, params)
    amps = zero_states(features.shape[:1], template.n_qubits)
    run_gates(amps, template.gates, template.n_qubits, features, params)
    return expect_z_all_array(amps)


def feature_prefix_length(template: CircuitTemplate) -> Optional[int]:
    """Length of the leading parameter-free gate run, provided every gate
    after it is feature-free.  Returns None when feature gates appear after
    the first parameterized gate, which makes prefix caching unsafe."""
    k = len(template.gates)
    for i, g in enumerate(template.gates):
        if isinstance(g.angle, ParamAngle):
            k = i
            break
    for g in template.gates[k:]:
        if _feature_indices(g.angle):
            return None
    return k


def _angle_text(angle: AngleSource) -> str:
    if isinstance(angle, ConstAngle):
        return f"{angle.value:g}"
    if isinstance(angle, FeatureAngle):
        return f"2*x{angle.index}"
    if isinstance(angle, PairProductAngle):
        return f"2*(pi-x{angle.index_a})*(pi-x{angle.index_b})"
    return f"t{angle.index}"


def render(template: CircuitTemplate) -> str:
    """Deterministic text rendering, one line per gate."""
    lines = []
    for g in template.gates:
        if g.kind == "H":
            lines.append(f"H q{g.qubits[0]}")
        elif g.kind == "CX":
            lines.append(f"CX q{g.qubits[0]},q{g.qubits[1]}")
        else:
            lines.append(f"{g.kind}({_angle_text(g.angle)}) q{g.qubits[0]}")
    return "\n".join(lines)
