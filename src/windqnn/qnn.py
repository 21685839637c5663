"""The trainable quantum regressor: prediction, MSE loss, gradients, training.

A model pairs a composed feature-map + ansatz template with a parameter
vector and (optionally) the dataset scaler.  The twelve benchmark configs
pair each feature map (Z, ZZ) with each of the six entanglement layouts.

Training exploits the template split.  The feature-encoding prefix does not
depend on the parameters, so the state psi_s of every training row after the
prefix is computed once per dataset.  The trainable suffix acts on those
states as one 2**n x 2**n unitary U(theta), so the parity readout collapses
into one Hermitian observable per parameter vector:

    f_s(theta) = Re(psi_s^H M(theta) psi_s),   M = U^H diag(parity) U.

M is built by running the suffix gates over an identity stack, which costs
as much as running them over 2**n rows instead of every training row.

The gradient uses the parameter-shift rule (Mitarai et al. 2018,
arXiv:1803.00745; Schuld et al. 2019, arXiv:1811.11184): for a rotation
angle theta_k, df_s/dtheta_k = (f_s(theta + pi/2 e_k) - f_s(theta - pi/2 e_k)) / 2.
With residuals r_s = f_s - y_s, the MSE chain rule sums over the rows only
through rho_r = sum_s r_s psi_s psi_s^H, so

    dL/dtheta_k = Re tr(rho_r (M(theta + pi/2 e_k) - M(theta - pi/2 e_k))) / N.

One gradient is therefore one batched suffix pass over the 2P operators
M(theta +- pi/2 e_k), plus the residuals at theta and one contraction of the
rows into rho_r.  Templates with a feature gate after a parameterized gate
cannot be split; they run every shifted parameter vector through the full
circuit instead, still in one batched pass.

Each piece of that work runs once.  The prefix states depend only on the
feature map and the rows, so ``encode`` is public: a caller that trains
several models of one feature map on the same rows encodes them once and
hands the states to ``train`` and ``predict_scaled``.  L-BFGS asks for the
objective and then the gradient at every trial point, so the cache keeps
the readout of the last theta it saw (matched by value, not identity), and
the gradient at that theta takes its residuals from it instead of reading
every row out again.  Test predictions read out through the same collapsed
observable; ``evaluate_batch`` stays the gate-level reference that
``loss_mse`` and the tests use.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .circuit import (
    CircuitTemplate,
    build_ansatz,
    build_z_feature_map,
    build_zz_feature_map,
    compose,
    evaluate_batch,
    feature_prefix_length,
    run_gates,
)
from .data import ScalingSpec, invert_target, scale_features
from .optimizer import OptimizeResult, OptimizerOptions, minimize
from .statevector import _parity_signs, expect_z_all_array

N_QUBITS = 4  # one qubit per input feature

# config id -> (feature map, ansatz entanglement)
CONFIG_TABLE = {
    "QNN-1": ("z", "linear"),
    "QNN-2": ("z", "full"),
    "QNN-3": ("z", "circular"),
    "QNN-4": ("z", "sca"),
    "QNN-5": ("z", "reverse_linear"),
    "QNN-6": ("z", "pairwise"),
    "QNN-7": ("zz", "linear"),
    "QNN-8": ("zz", "full"),
    "QNN-9": ("zz", "circular"),
    "QNN-10": ("zz", "sca"),
    "QNN-11": ("zz", "reverse_linear"),
    "QNN-12": ("zz", "pairwise"),
}
CONFIG_IDS = tuple(CONFIG_TABLE)


@dataclass(frozen=True)
class QnnModel:
    template: CircuitTemplate
    parameters: np.ndarray
    config_id: str = ""
    scaling: Optional[ScalingSpec] = None

    def __post_init__(self):
        if self.parameters.shape != (self.template.n_parameter_slots,):
            raise ValueError(
                f"parameter vector shape {self.parameters.shape} does not match "
                f"{self.template.n_parameter_slots} template slots"
            )


@dataclass
class TrainedResult:
    parameters: np.ndarray
    trace: List[Tuple[int, float]]
    status: str

    @property
    def final_loss(self) -> float:
        return self.trace[-1][1]


def initial_parameters(n: int, seed: int) -> np.ndarray:
    """Seeded uniform draw on [-pi, pi], one value per slot in slot order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-np.pi, np.pi, size=n)


def build_model(
    config_id: str,
    feature_map_reps: int = 2,
    ansatz_reps: int = 3,
    zz_entanglement: str = "full",
    init_seed: int = 42,
    scaling: Optional[ScalingSpec] = None,
) -> QnnModel:
    """Construct one of the twelve benchmark configurations."""
    if config_id not in CONFIG_TABLE:
        raise ValueError(
            f"unknown config id {config_id!r}, expected one of {', '.join(CONFIG_IDS)}"
        )
    family, entanglement = CONFIG_TABLE[config_id]
    if family == "z":
        fm = build_z_feature_map(N_QUBITS, feature_map_reps)
    else:
        fm = build_zz_feature_map(N_QUBITS, feature_map_reps, zz_entanglement)
    template = compose(fm, build_ansatz(N_QUBITS, ansatz_reps, entanglement))
    params = initial_parameters(template.n_parameter_slots, init_seed)
    return QnnModel(template=template, parameters=params,
                    config_id=config_id, scaling=scaling)


def with_parameters(model: QnnModel, parameters: np.ndarray) -> QnnModel:
    return replace(model, parameters=np.asarray(parameters, dtype=float))


def predict_scaled(model: QnnModel, features_scaled,
                   states: Optional[np.ndarray] = None) -> np.ndarray:
    """Circuit expectation in [-1, 1]; accepts one sample or a matrix.

    ``states`` optionally gives the rows already run through the feature
    prefix, as returned by ``encode``.
    """
    features = np.asarray(features_scaled, dtype=float)
    if features.ndim == 1:
        return predict_scaled(model, features[None, :])[0]
    return _ObservableCache(model.template, features, states).predict(model.parameters)


def predict_physical(model: QnnModel, features_physical) -> np.ndarray:
    """Scale raw features, predict, and inverse-scale the output to kW."""
    if model.scaling is None:
        raise RuntimeError("model has no fitted scaling spec")
    scaled = scale_features(model.scaling, np.asarray(features_physical, dtype=float))
    return invert_target(model.scaling, predict_scaled(model, scaled))


def encode(template: CircuitTemplate, features: np.ndarray) -> Optional[np.ndarray]:
    """State of every row after the feature prefix, shape (N, 2**n).

    None when a parameterized gate comes before a feature gate, so the
    template cannot be split.
    """
    split = feature_prefix_length(template)
    if split is None:
        return None
    states = _zero_states(features.shape[:1], template.n_qubits)
    run_gates(states, template.gates[:split], template.n_qubits, features, np.zeros(0))
    return states


class _ObservableCache:
    """Rows encoded once by the feature prefix, read out through the suffix
    observable M(theta).

    Valid only for templates whose parameterized gates all come after the
    feature gates (true for every composed model here).  Otherwise
    ``states`` is None and every evaluation runs the full circuit.  The
    readout of the last theta is kept, so an objective and a gradient at the
    same point read the rows out once.
    """

    def __init__(self, template: CircuitTemplate, features: np.ndarray,
                 states: Optional[np.ndarray] = None):
        self.template = template
        self.features = features
        split = feature_prefix_length(template)
        self.suffix = None if split is None else template.gates[split:]
        self.states = encode(template, features) if states is None else states
        self._theta = None
        self._predictions = None

    def observables(self, thetas: np.ndarray) -> np.ndarray:
        """M(theta) for each row of a (B, P) parameter stack, shape (B, d, d)."""
        n_qubits = self.template.n_qubits
        dim = 2**n_qubits
        # columns[b, j] = U_b e_j, so columns[b] is the transpose of U_b
        columns = np.repeat(np.eye(dim, dtype=complex)[None], thetas.shape[0], axis=0)
        run_gates(columns, self.suffix, n_qubits, self.features, thetas[:, None, :])
        return (columns.conj() * _parity_signs(n_qubits)) @ np.swapaxes(columns, 1, 2)

    def predictions(self, thetas: np.ndarray) -> np.ndarray:
        """Readouts of every row for each of a (B, P) parameter stack, shape (B, N)."""
        if self.states is None:
            amps = _zero_states((thetas.shape[0],) + self.features.shape[:1],
                                self.template.n_qubits)
            run_gates(amps, self.template.gates, self.template.n_qubits,
                      self.features, thetas[:, None, :])
            return expect_z_all_array(amps)
        return np.array([self._readout(m) for m in self.observables(thetas)])

    def _readout(self, observable: np.ndarray) -> np.ndarray:
        return np.sum((self.states @ observable.T) * self.states.conj(), axis=1).real

    def predict(self, theta: np.ndarray) -> np.ndarray:
        """Readouts of every row at theta, reused while theta is unchanged."""
        if not np.array_equal(theta, self._theta):
            self._predictions = self.predictions(theta[None])[0]
            self._theta = np.array(theta, dtype=float)
        return self._predictions

    def shift_gradient(self, theta: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Exact dL/dtheta from the readout at theta and the 2P shifted
        parameter vectors, all shifts in one batch."""
        p = theta.shape[0]
        shift = np.pi / 2 * np.eye(p)
        thetas = theta + np.concatenate([shift, -shift])
        residuals = self.predict(theta) - targets
        n = targets.shape[0]
        if self.states is None:
            f = self.predictions(thetas)
            return (f[:p] - f[p:]) @ residuals / n
        m = self.observables(thetas)
        rho = self.states.T @ (residuals[:, None] * self.states.conj())
        return np.einsum("kij,ji->k", m[:p] - m[p:], rho).real / n

    def difference_gradient(self, theta: np.ndarray, targets: np.ndarray,
                            step: float) -> np.ndarray:
        """Forward-difference dL/dtheta from the readout at theta and the P
        stepped parameter vectors, all steps in one batch."""
        base = _loss_from_predictions(self.predict(theta), targets)
        thetas = theta + step * np.eye(theta.shape[0])
        stepped = np.array([_loss_from_predictions(f, targets)
                            for f in self.predictions(thetas)])
        return (stepped - base) / step


def _zero_states(batch_shape: tuple, n_qubits: int) -> np.ndarray:
    amps = np.zeros(batch_shape + (2**n_qubits,), dtype=complex)
    amps[..., 0] = 1.0
    return amps


def _check_batch(features_scaled, targets_scaled):
    features = np.asarray(features_scaled, dtype=float)
    targets = np.asarray(targets_scaled, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    if targets.shape != (features.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match {features.shape[0]} rows"
        )
    if features.shape[0] == 0:
        raise ValueError("loss needs at least one sample")
    return features, targets


def loss_mse(model: QnnModel, features_scaled, targets_scaled) -> float:
    """Mean squared error in scaled target space, fixed sample order."""
    features, targets = _check_batch(features_scaled, targets_scaled)
    return _loss_from_predictions(
        evaluate_batch(model.template, features, model.parameters), targets
    )


def _loss_from_predictions(predictions: np.ndarray, targets: np.ndarray) -> float:
    return float(np.mean((predictions - targets) ** 2))


def gradient_parameter_shift(model: QnnModel, features_scaled, targets_scaled) -> np.ndarray:
    """Exact dL/dtheta via the parameter-shift rule for RY angles.

    Per sample, df/dtheta_k = (f(theta_k + pi/2) - f(theta_k - pi/2)) / 2;
    the MSE chain rule then gives (2/N) sum_s (f_s - y_s) * df_s/dtheta_k.
    """
    features, targets = _check_batch(features_scaled, targets_scaled)
    cache = _ObservableCache(model.template, features)
    return cache.shift_gradient(model.parameters, targets)


def gradient_finite_difference(
    model: QnnModel, features_scaled, targets_scaled, step: float = 1e-8
) -> np.ndarray:
    """Forward-difference dL/dtheta with the given step."""
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    features, targets = _check_batch(features_scaled, targets_scaled)
    cache = _ObservableCache(model.template, features)
    return cache.difference_gradient(model.parameters, targets, step)


def train(
    model: QnnModel,
    features_scaled,
    targets_scaled,
    options: Optional[OptimizerOptions] = None,
    gradient_mode: str = "parameter_shift",
    finite_difference_step: float = 1e-8,
    states: Optional[np.ndarray] = None,
) -> TrainedResult:
    """Minimize the MSE over the model parameters; the model is not mutated.

    gradient_mode selects the exact parameter-shift gradient (default) or
    the forward finite-difference gradient with the given step.  ``states``
    optionally gives the rows already run through the feature prefix, as
    returned by ``encode``.
    """
    if gradient_mode not in ("parameter_shift", "finite_difference"):
        raise ValueError(
            f"gradient_mode must be 'parameter_shift' or 'finite_difference', "
            f"got {gradient_mode!r}"
        )
    features, targets = _check_batch(features_scaled, targets_scaled)
    cache = _ObservableCache(model.template, features, states)

    def objective(theta):
        return _loss_from_predictions(cache.predict(theta), targets)

    if gradient_mode == "parameter_shift":
        gradient = lambda theta: cache.shift_gradient(theta, targets)
    else:
        gradient = lambda theta: cache.difference_gradient(
            theta, targets, finite_difference_step
        )

    result: OptimizeResult = minimize(objective, gradient, model.parameters, options)
    return TrainedResult(
        parameters=result.best_point, trace=result.trace, status=result.status
    )
