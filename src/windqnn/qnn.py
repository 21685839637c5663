"""The trainable quantum regressor: prediction, MSE loss, gradients, training.

A model pairs a composed feature-map + ansatz template with a parameter
vector, and works in scaled units only.  The twelve benchmark configs
pair each feature map (Z, ZZ) with each of the six entanglement layouts.

Training exploits the template split.  The feature-encoding prefix has no
parameters and the trainable suffix has no features, so with psi_s the
state of row s after the prefix and U(theta) the suffix unitary, the parity
readout is linear in the encoded density matrix (Schuld 2021,
arXiv:2101.11020):

    f_s(theta) = Re(psi_s^H M(theta) psi_s) = phi_s . m(theta),
    M = U^T diag(parity) U.

The suffix holds only RY and real constant gates, so U is real orthogonal
and M real symmetric: m holds the d(d+1)/2 entries of M on and above the
diagonal (136 for d = 2**4), and phi_s those of Re(psi_s psi_s^H), with
the off-diagonal ones doubled.  The MSE is then a quadratic form in m,

    L(theta) = m^T G m - 2 h^T m + c,  G = Phi^T Phi / N, h = Phi^T y / N,
    c = y^T y / N,

and the parameter-shift rule (Mitarai et al. 2018, arXiv:1803.00745;
Schuld et al. 2019, arXiv:1811.11184) gives the exact gradient

    dL/dtheta_k = (G m - h) . (m(theta + pi/2 e_k) - m(theta - pi/2 e_k)).

So the work splits three ways.

* Once per feature map and row set: ``encode`` runs the prefix over the
  rows, and ``gram_form`` folds the training rows into (G, h, c) in row
  chunks.  ``windqnn run`` does both once for the six QNNs of a map.
* Once per model: the constant blocks K_j and L_j below, which
  ``build_model`` makes and the model's training and predictions share.
* Once per theta: M(theta) and the 2P shifted M come from dense real
  2**n x 2**n products.  RY_q(t) = cos(t/2) I + sin(t/2) RY_q(pi) and every
  other suffix gate is constant, so U(theta) is a product of P factors
  cos(t_j/2) K_j + sin(t_j/2) L_j; prefix and suffix products of those
  factors give every shifted U at once.  The objective keeps m and G m - h
  of the last theta, so the gradient at a point the objective has just
  seen builds no M(theta) again.  No step of training touches a row.
* Per row: only the test predictions, read out through M(theta) by
  ``predict_scaled``.

A template with a feature gate after a parameterized gate has no such
split; ``encode`` and ``_DenseSuffix`` reject it, and so ``train``,
``predict_scaled`` and the gradients do.  ``evaluate_batch`` and ``loss_mse``
still run any template gate by gate: the reference for the fast path.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .circuit import (
    CircuitTemplate,
    ConstAngle,
    ParamAngle,
    build_ansatz,
    build_z_feature_map,
    build_zz_feature_map,
    compose,
    evaluate_batch,
    feature_prefix_length,
    run_gates,
)
from .optimizer import OptimizeResult, OptimizerOptions, minimize
from .statevector import expect_z_all_array, zero_states

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
    # the template's constant suffix blocks; with_parameters keeps them
    suffix: Optional[_DenseSuffix] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.parameters.shape != (self.template.n_parameter_slots,):
            raise ValueError(
                f"parameter vector shape {self.parameters.shape} does not match "
                f"{self.template.n_parameter_slots} template slots"
            )


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
    return QnnModel(template=template, parameters=params, suffix=_DenseSuffix(template))


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
    if states is None:
        states = encode(model.template, features)
    observable = (model.suffix or _DenseSuffix(model.template)).observable(model.parameters)
    return np.sum((states @ observable.T) * states.conj(), axis=1).real


def _split(template: CircuitTemplate) -> int:
    split = feature_prefix_length(template)
    if split is None:
        raise ValueError(
            "a feature gate follows a parameterized gate, so the template has no "
            "parameter-free prefix to encode"
        )
    return split


def encode(template: CircuitTemplate, features) -> np.ndarray:
    """State of every row after the feature prefix, shape (N, 2**n).

    Raises ValueError unless ``features`` is (N, n_feature_slots), and when
    a feature gate follows a parameterized gate (the template has no split).
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    if features.shape[1] != template.n_feature_slots:
        raise ValueError(f"expected {template.n_feature_slots} features, got {features.shape[1]}")
    split = _split(template)
    states = zero_states(features.shape[:1], template.n_qubits)
    run_gates(states, template.gates[:split], template.n_qubits, features, np.zeros(0))
    return states


def _coordinates(symmetric: np.ndarray) -> np.ndarray:
    """Coordinates of real symmetric matrices (..., d, d), shape
    (..., d(d+1)/2): the entries on and above the diagonal, row by row."""
    rows, cols = np.triu_indices(symmetric.shape[-1])
    return symmetric[..., rows, cols]


class Gram(NamedTuple):
    """The MSE over a fixed set of rows as a quadratic form in the real
    coordinates m of the observable: L = m^T g m - 2 h^T m + c."""

    g: np.ndarray
    h: np.ndarray
    c: float


GRAM_CHUNK_ROWS = 64  # rows per Phi block; bounds the temporaries, not the result


def gram_form(states: np.ndarray, targets) -> Gram:
    """(G, h, c) of the encoded rows ``states`` and their scaled targets.

    Row s contributes phi_s, the coordinates of Re(psi_s psi_s^H) with the
    off-diagonal ones doubled, so that phi_s . m = psi_s^H M psi_s for a
    real symmetric M.  Raises ValueError unless each of N >= 1 rows has one target.
    """
    n, d = states.shape
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match {n} rows")
    if n == 0:
        raise ValueError("the Gram form needs at least one sample")
    weights = _coordinates(2.0 - np.eye(d))
    g = np.zeros((weights.shape[0],) * 2)
    h = np.zeros(weights.shape[0])
    for start in range(0, n, GRAM_CHUNK_ROWS):
        psi = states[start:start + GRAM_CHUNK_ROWS]
        phi = _coordinates((psi[:, :, None] * psi.conj()[:, None, :]).real) * weights
        g += phi.T @ phi
        h += phi.T @ targets[start:start + GRAM_CHUNK_ROWS]
    return Gram(g / n, h / n, float(targets @ targets) / n)


class _DenseSuffix:
    """U(theta) of a template's trainable suffix as P dense factors.

    With t_j the angle of the j-th parameterized RY and C_j the constant
    gates between it and the next one, U = F_P ... F_1 C_0 where
    F_j = C_j RY(t_j) = cos(t_j/2) K_j + sin(t_j/2) L_j, K_j = C_j and
    L_j = C_j RY(pi), since RY(t) = cos(t/2) I + sin(t/2) RY(pi).  The
    constant matrices are built once per template by running the gates over
    the identity, and kept real: a constant gate after the first trainable
    RY must be real (H, CX, RY), so that M(theta) is real symmetric.
    """

    def __init__(self, template: CircuitTemplate):
        n_qubits = template.n_qubits
        self._n_qubits = n_qubits
        runs, turns, slots = [[]], [], []
        for g in template.gates[_split(template):]:
            if not isinstance(g.angle, ParamAngle):
                runs[-1].append(g)
                continue
            if g.kind != "RY":
                raise ValueError(f"only RY gates may carry a trainable angle, got {g.kind}")
            turns.append(replace(g, angle=ConstAngle(np.pi)))
            slots.append(g.angle.index)
            runs.append([])
        dim = 2**n_qubits
        self._lead = self._matrix(runs[0])
        self._cos = np.array([self._matrix(run) for run in runs[1:]]).reshape(-1, dim, dim)
        self._sin = self._cos @ np.array([self._matrix([t]) for t in turns]).reshape(-1, dim, dim)
        self.slots = np.array(slots, dtype=int)
        self.n_slots = template.n_parameter_slots
        # parity readout of each basis state: the diagonal of Z x ... x Z
        self._signs = expect_z_all_array(np.eye(dim))

    def _matrix(self, gates) -> np.ndarray:
        columns = np.eye(2**self._n_qubits, dtype=complex)  # row j becomes U e_j
        run_gates(columns, gates, self._n_qubits, np.zeros(0), np.zeros(0))
        if np.any(columns.imag):
            kinds = ", ".join(sorted({g.kind for g in gates}))
            raise ValueError(f"the trainable suffix must be real, but its constant "
                             f"gates ({kinds}) give a complex matrix")
        return columns.real.T

    def _factors(self, angles: np.ndarray) -> np.ndarray:
        """F_j for angles (..., P) of the parameterized gates, shape (..., P, d, d)."""
        half = angles[..., None, None] / 2.0
        return np.cos(half) * self._cos + np.sin(half) * self._sin

    def _observe(self, unitaries: np.ndarray) -> np.ndarray:
        return np.swapaxes(unitaries, -1, -2) @ (self._signs[:, None] * unitaries)

    def observable(self, theta: np.ndarray) -> np.ndarray:
        """M(theta), shape (d, d)."""
        u = self._lead
        for factor in self._factors(theta[self.slots]):
            u = factor @ u
        return self._observe(u)

    def shifted_observables(self, theta: np.ndarray) -> np.ndarray:
        """M with the angle of parameterized gate j moved by +pi/2 (row 0)
        and -pi/2 (row 1), shape (2, P, d, d).

        before[j] is the product of every factor ahead of F_j and after[j]
        of every factor behind it, so each shifted U is after @ F_j' @ before.
        """
        angles = theta[self.slots]
        factors = self._factors(angles)
        before = np.empty_like(factors)
        after = np.empty_like(factors)
        u = self._lead
        for j in range(factors.shape[0]):
            before[j] = u
            u = factors[j] @ u
        u = np.eye(self._lead.shape[0])
        for j in reversed(range(factors.shape[0])):
            after[j] = u
            u = u @ factors[j]
        shifted = self._factors(angles + np.array([[np.pi / 2], [-np.pi / 2]]))
        return self._observe(after @ shifted @ before)


class _GramObjective:
    """Training loss and gradients from a Gram form; no step reads a row.

    The real coordinates m of the last theta and the vector G m - h are
    kept, so a gradient at the point the objective has just seen reuses
    them.  Thetas are matched by value, not identity.
    """

    def __init__(self, template: CircuitTemplate, gram: Gram,
                 suffix: Optional[_DenseSuffix] = None):
        self.suffix = suffix or _DenseSuffix(template)
        self.gram = gram
        self._theta = None

    def _at(self, theta: np.ndarray):
        if not np.array_equal(theta, self._theta):
            m = _coordinates(self.suffix.observable(theta))
            self._m, self._r = m, self.gram.g @ m - self.gram.h
            self._theta = np.array(theta, dtype=float)
        return self._m, self._r

    def loss(self, theta: np.ndarray) -> float:
        # m^T G m - 2 h^T m + c written through r = G m - h
        m, r = self._at(theta)
        return float(np.sum(m * (r - self.gram.h)) + self.gram.c)

    def shift_gradient(self, theta: np.ndarray) -> np.ndarray:
        """Exact dL/dtheta: (G m - h) . (m_+k - m_-k), every shift in one batch."""
        _, r = self._at(theta)
        plus, minus = self.suffix.shifted_observables(theta)
        per_gate = _coordinates(plus - minus) @ r
        return np.bincount(self.suffix.slots, weights=per_gate,
                           minlength=self.suffix.n_slots)


def loss_mse(model: QnnModel, features_scaled, targets_scaled) -> float:
    """Mean squared error in scaled target space, fixed sample order."""
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
    predictions = evaluate_batch(model.template, features, model.parameters)
    return float(np.mean((predictions - targets) ** 2))


def gradient_parameter_shift(model: QnnModel, features_scaled, targets_scaled) -> np.ndarray:
    """Exact dL/dtheta via the parameter-shift rule for RY angles.

    Per sample, df/dtheta_k = (f(theta_k + pi/2) - f(theta_k - pi/2)) / 2;
    the MSE chain rule then gives (2/N) sum_s (f_s - y_s) * df_s/dtheta_k.
    """
    gram = gram_form(encode(model.template, features_scaled), targets_scaled)
    return _GramObjective(model.template, gram, model.suffix).shift_gradient(model.parameters)


def train(model: QnnModel, gram: Gram,
          options: Optional[OptimizerOptions] = None) -> OptimizeResult:
    """Minimize the training MSE ``gram`` (see ``gram_form``) over the
    parameters with the exact parameter-shift gradient.  Returns minimize's
    result; ``best_point`` is the fitted parameter vector."""
    objective = _GramObjective(model.template, gram, model.suffix)
    return minimize(objective.loss, objective.shift_gradient, model.parameters, options)
