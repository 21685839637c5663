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
  ``encode`` compiles a prefix once into constant blocks, each a 2**n x
  2**n product of constant gates, and phase groups, each a diagonal
  exp(i theta(x) @ incidence) of feature P gates whose CX gates are folded
  into the incidence (``_compile_prefix``).  Both benchmark maps at two
  repetitions become block, phase, block, phase; the ZZ map's CX pairs
  cancel, and its two equal groups take their exponentials once.
* Once per model: the rotation layers and constant runs below, which a
  ``QnnModel`` makes and its training and predictions share.  A run of
  constant gates is simulated once per gate tuple and cached read-only
  (``_run_matrix``), one cache for the prefix's blocks and the suffix's
  runs, so QNN-7..12 reuse the runs of QNN-1..6 and both maps share their
  leading H block; an empty run is the identity, and the RY(pi) turns are
  signed permutations in closed form.  ``windqnn run`` trains a model only
  when no earlier model of its group has equal runs, layers, qubits, slots
  and initial parameters (``same_training``), so QNN-5 and QNN-11 take the
  results of QNN-2 and QNN-8.
* Once per theta: one forward pass of dense real 2**n x 2**n products.
  The suffix's RYs fall into rotation layers, each a Kronecker product of
  RYs on distinct qubits followed by a run of constant gates, so U(theta)
  is a product of one factor per layer (4 for the benchmark ansaetze, which
  hold 16 RYs).  One sine of the angles and one gather build every layer's
  rotation; the pass keeps M(theta) and the factors' prefix products.  No
  shifted circuit is built: each gate's shift difference is a closed form
  in those (``_DenseSuffix.shift_differences``), so a gradient at the theta
  the objective has just seen costs one commutator and two batched
  products over the layer starts.  No step of training touches a row.
* Per row: only the test predictions, read out through M(theta) by
  ``predict_scaled``.

A template with a feature gate after a parameterized gate has no such
split, and ``encode`` rejects it, as it rejects an RY that reads a feature:
every feature enters through a P gate, as in both benchmark maps.  A
``QnnModel`` builds its dense suffix when it is made, so it refuses such a
template, a trainable gate that is not RY and a complex constant in the
suffix, all at once.  ``evaluate_batch``
still runs any template gate by gate: the reference for the fast path.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .circuit import (
    CircuitTemplate,
    ParamAngle,
    build_ansatz,
    build_z_feature_map,
    build_zz_feature_map,
    compose,
    evaluate_batch,
    feature_indices,
    feature_prefix_length,
    resolve_angle,
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
    """A template and its parameters.  The dense suffix is built when the
    model is made, and ``with_parameters`` passes it on; so a template with no
    feature prefix, a trainable gate that is not RY or a complex suffix
    constant raises ValueError here."""

    template: CircuitTemplate
    parameters: np.ndarray
    suffix: _DenseSuffix = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.parameters.shape != (self.template.n_parameter_slots,):
            raise ValueError(
                f"parameter vector shape {self.parameters.shape} does not match "
                f"{self.template.n_parameter_slots} template slots"
            )
        if self.suffix is None:
            object.__setattr__(self, "suffix", _DenseSuffix(self.template))


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
    return QnnModel(template=template, parameters=params)


def with_parameters(model: QnnModel, parameters: np.ndarray) -> QnnModel:
    return replace(model, parameters=np.asarray(parameters, dtype=float))


def predict_scaled(model: QnnModel, features_scaled,
                   states: Optional[np.ndarray] = None) -> np.ndarray:
    """Circuit expectation in [-1, 1]; accepts one sample or a matrix.

    ``states`` optionally gives the rows already run through the feature
    prefix, as returned by ``encode``; ValueError unless it holds one row
    per feature row.
    """
    features = np.asarray(features_scaled, dtype=float)
    if features.ndim == 1:
        return predict_scaled(model, features[None, :],
                              None if states is None else np.atleast_2d(states))[0]
    if states is None:
        states = encode(model.template, features)
    elif states.shape[0] != features.shape[0]:
        raise ValueError(
            f"got {states.shape[0]} state rows for {features.shape[0]} feature rows")
    observable = model.suffix.observable(model.parameters)
    # Re(conj(a) b) = Re(a conj(b)) bit for bit, and conj(a) b can be formed
    # in place in a = states @ M^T: one (N, d) temporary, not three
    readout = states @ observable.T
    np.conjugate(readout, out=readout)
    readout *= states
    return np.sum(readout, axis=1).real


@lru_cache(maxsize=32)  # the twelve benchmark QNNs hold 11 distinct runs
def _run_matrix(gates: tuple, n_qubits: int) -> np.ndarray:
    """U^T of a run of constant gates, complex and read-only: row j is U e_j,
    the gates run over the identity, so an empty run is the identity.  The
    prefix's blocks and the suffix's runs both come from this one cache."""
    rows = np.eye(2**n_qubits, dtype=complex)
    run_gates(rows, gates, n_qubits, np.zeros(0), np.zeros(0))
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)  # a run compiles one prefix per feature map
def _compile_prefix(gates: tuple, n_qubits: int) -> tuple:
    """The steps of a parameter-free gate list, in order: ("block", R)
    multiplies every row by R = U^T of a run of constant gates, from
    ``_run_matrix``; ("phase", (angle sources, (K, 2**n) 0/1 incidence)) by
    a phase group's diagonal, equal groups being one object.

    A phase group is a run of P and CX gates opened by a feature P.  Its CX
    gates permute basis states and its P gates multiply them by a phase, so
    it takes a basis state z to C z, C its CX network, times
    exp(i sum_k theta_k bit_{q_k}(z_k)), where z_k is what z has become when
    the k-th P, on qubit q_k, acts.  The group is thus C D(x) with D(x)
    diagonal, D_zz = exp(i sum_k theta_k(x) incidence_kz), and C opens the
    next block.  A constant gate on a qubit that no gate of the open group
    touches commutes with the group and joins the block before it; any
    other constant gate closes the group.  A block whose product is the
    identity, such as the ZZ map's CX network (a CX pair around each
    interaction phase), is dropped.  An RY that reads a feature has no place
    in either, so it raises ValueError naming its qubit.
    """
    dim = 2**n_qubits
    steps, groups, block, group = [], {}, [], []

    def flush_block():
        if block:
            rows = _run_matrix(tuple(block), n_qubits)
            if not np.array_equal(rows, np.eye(dim)):
                steps.append(("block", rows))
            block.clear()

    def close_group():
        if not group:
            return
        flush_block()
        image, angles, incidence = np.arange(dim), [], []
        for g in group:
            if g.kind == "CX":
                control, target = g.qubits
                image = image ^ (((image >> control) & 1) << target)
                block.append(g)
            else:
                angles.append(g.angle)
                incidence.append((image >> g.qubits[0]) & 1)
        angles, incidence = tuple(angles), np.array(incidence, dtype=float)
        incidence.flags.writeable = False
        steps.append(("phase", groups.setdefault((angles, incidence.tobytes()),
                                                 (angles, incidence))))
        group.clear()

    for g in gates:
        if g.kind == "RY" and feature_indices(g.angle):
            raise ValueError(f"the RY on qubit {g.qubits[0]} reads a feature; only P "
                             f"gates may encode one")
        if g.kind == "P" and (group or feature_indices(g.angle)) or g.kind == "CX" and group:
            group.append(g)
        else:
            if any(g.qubits[0] in h.qubits for h in group):
                close_group()
            block.append(g)
    close_group()
    flush_block()
    return tuple(steps)


def _phase_diagonal(group: tuple, features: np.ndarray) -> np.ndarray:
    """exp(i theta(x) @ incidence) of every row, shape (N, 2**n)."""
    angles, incidence = group
    theta = np.empty((features.shape[0], len(angles)))
    for k, angle in enumerate(angles):
        theta[:, k] = resolve_angle(angle, features, np.zeros(0))
    diagonal = np.zeros((features.shape[0], incidence.shape[1]), dtype=complex)
    diagonal.imag = (theta[:, None, :] @ incidence)[:, 0]
    return np.exp(diagonal, out=diagonal)


def encode(template: CircuitTemplate, features) -> np.ndarray:
    """State of every row after the feature prefix, shape (N, 2**n).

    Raises ValueError unless ``features`` is (N, n_feature_slots), when a
    feature gate follows a parameterized gate (the template has no split),
    and when an RY reads a feature.  The prefix is compiled once per gate
    list, at any width, into constant blocks and phase groups only
    (``_compile_prefix``).  Every product is a stack of one-row products, so
    a row's state does not depend on the other rows, bit for bit.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {features.shape}")
    if features.shape[1] != template.n_feature_slots:
        raise ValueError(f"expected {template.n_feature_slots} features, got {features.shape[1]}")
    split = feature_prefix_length(template)
    states = zero_states(features.shape[:1], template.n_qubits)
    diagonals = {}  # id of a distinct phase group -> its diagonal
    for i, (kind, value) in enumerate(_compile_prefix(template.gates[:split], template.n_qubits)):
        if kind == "block" and i == 0:
            states[:] = value[0]  # |0...0> @ R: every row is R's first row
        elif kind == "block":
            states = (states[:, None, :] @ value)[:, 0]
        else:  # a phase group
            if id(value) not in diagonals:
                diagonals[id(value)] = _phase_diagonal(value, features)
            states *= diagonals[id(value)]
    return states


@lru_cache(maxsize=None)
def _triangle(d: int) -> tuple:
    """np.triu_indices(d), made once per dimension and read-only."""
    rows, cols = np.triu_indices(d)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _coordinates(symmetric: np.ndarray) -> np.ndarray:
    """Coordinates of real symmetric matrices (..., d, d), shape
    (..., d(d+1)/2): the entries on and above the diagonal, row by row."""
    rows, cols = _triangle(symmetric.shape[-1])
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


class _Forward(NamedTuple):
    """One pass of a dense suffix at theta."""

    before: np.ndarray  # before[g] = W_g = F_{g-1} ... F_1, I for g = 1, shape (G, d, d)
    observable: np.ndarray  # M(theta) = U^T diag(parity) U, U = F_G ... F_1, shape (d, d)


# RY(t) row by row is (cos, -sin, sin, cos)(t/2) = sin(t * _RY_HALF_SIGNS + _RY_PHASES),
# and sin(0 * t + _RY_PHASES) is the identity exactly
_RY_HALF_SIGNS = np.array([0.5, -0.5, 0.5, 0.5])
_RY_PHASES = np.array([np.pi / 2, 0.0, 0.0, np.pi / 2])


class _DenseSuffix:
    """U(theta) of a template's trainable suffix as G dense layer factors.

    A rotation layer is a maximal run of parameterized RYs on distinct
    qubits with no constant gate between them; a repeated qubit or a
    constant gate opens the next layer.  With C_g the constant gates after
    layer g and R_g the Kronecker product of its RYs, the identity on a
    qubit it does not turn, U = F_G ... F_1 where F_g = C_g R_g.  Entry
    (a, b) of R_g is the product over the qubits q of RY_q[bit_q(a),
    bit_q(b)], so one sine of the angles, one gather through a (G, n, 4**n)
    index and one product over the qubits make every R_g.  The benchmark
    ansaetze have 4 layers of 4 RYs.  The suffix starts at the first
    trainable gate, since the prefix takes every gate before it.

    Each run is simulated once per gate tuple (``_run_matrix``), so models
    of one ansatz share it; a model keeps its own copy of C_g, which must be
    real (H, CX, RY), so that M(theta) is real symmetric.  The RY(pi) turn
    T_j of gate j is a signed permutation in closed form: column a has its
    one entry 1 - 2 bit_q(a) in row a ^ 2**q, q the gate's qubit.
    """

    def __init__(self, template: CircuitTemplate):
        n_qubits, dim = template.n_qubits, 2**template.n_qubits
        runs, layers, qubits, slots, taken = [], [], [], [], set()
        for g in template.gates[feature_prefix_length(template):]:
            if not isinstance(g.angle, ParamAngle):
                runs[-1].append(g)
                continue
            if g.kind != "RY":
                raise ValueError(f"only RY gates may carry a trainable angle, got {g.kind}")
            if not runs or runs[-1] or g.qubits[0] in taken:
                runs.append([])
                taken = set()
            taken.add(g.qubits[0])
            layers.append(len(runs) - 1)
            qubits.append(g.qubits[0])
            slots.append(g.angle.index)
        transposes = np.array([_run_matrix(tuple(run), n_qubits)
                               for run in runs]).reshape(-1, dim, dim)
        if transposes.imag.any():
            run = runs[np.argmax(transposes.imag.any(axis=(1, 2)))]
            kinds = ", ".join(sorted({g.kind for g in run}))
            raise ValueError(f"the trainable suffix must be real, but its constant "
                             f"gates ({kinds}) give a complex matrix")
        self._runs = transposes.real.transpose(0, 2, 1).copy()
        self.layers, self.qubits, self.slots = (np.array(v, dtype=int)
                                                for v in (layers, qubits, slots))
        self.n_slots = template.n_parameter_slots
        # row j of forward's (P + 1, 4) table holds gate j's RY and row P, whose
        # angle (gate 0's, absent with no gate) is multiplied by 0, the identity:
        # a qubit without a gate in a layer reads row P, and entry (a, b) of R_g
        # reads entry (bit_q(a), bit_q(b)) of qubit q's row
        self._angles = np.concatenate((self.slots, self.slots[:1]))
        self._half_signs = np.zeros((len(slots) + 1, 4))
        self._half_signs[:-1] = _RY_HALF_SIGNS
        rows = np.full((len(runs), n_qubits), len(slots))
        rows[self.layers, self.qubits] = np.arange(len(slots))
        columns = np.arange(dim)
        bits = (columns >> np.arange(n_qubits)[:, None]) & 1
        entries = (2 * bits[:, :, None] + bits[:, None, :]).reshape(n_qubits, -1)
        self._rotations = rows[:, :, None] * 4 + entries
        # T_j[a ^ 2**q, a] = turn_signs[j, a], and turn_entries[j, a] is
        # (g_j, a, a ^ 2**q) in a raveled (G, d, d) stack
        self._turn_entries = ((self.layers[:, None] * dim + columns) * dim
                              + (columns ^ (1 << self.qubits[:, None])))
        self._turn_signs = 1.0 - 2.0 * bits[self.qubits]
        # parity readout of each basis state: the diagonal of Z x ... x Z
        self._signs = expect_z_all_array(np.eye(dim))

    def factors(self, theta: np.ndarray) -> np.ndarray:
        """The layer factors F_g = C_g R_g at theta, shape (G, d, d)."""
        table = np.sin(theta[self._angles][:, None] * self._half_signs + _RY_PHASES)
        rotations = np.multiply.reduce(table.reshape(-1)[self._rotations], axis=1)
        return self._runs @ rotations.reshape(self._runs.shape)

    def forward(self, theta: np.ndarray) -> _Forward:
        """The prefix products of the layer factors at theta and M(theta)."""
        factors = self.factors(theta)
        products = np.empty((factors.shape[0] + 1,) + factors.shape[1:])
        products[0] = np.eye(factors.shape[-1])
        for g, factor in enumerate(factors):
            np.matmul(factor, products[g], out=products[g + 1])
        u = products[-1]
        return _Forward(products[:-1], u.T @ (self._signs[:, None] * u))

    def observable(self, theta: np.ndarray) -> np.ndarray:
        """M(theta), shape (d, d)."""
        return self.forward(theta).observable

    def shift_differences(self, forward: _Forward, r: np.ndarray) -> np.ndarray:
        """r . (m_+j - m_-j) for every parameterized gate j, shape (P,), where
        m_+-j are the coordinates of M with gate j's angle moved by +-pi/2.

        RY(t +- pi/2) = RY(t) (I +- T_j)/sqrt(2), and T_j commutes with the
        other RYs of gate j's layer g, so the shifted U is U (I +- Q_j)/sqrt(2)
        with Q_j = W_g^T T_j W_g antisymmetric, W_g = before[g], and
        M_+j - M_-j = M Q_j - Q_j M.  With R the symmetric matrix of
        coordinates r, those off the diagonal halved, that is
        tr(W_g [R, M] W_g^T T_j): one conjugation per layer, not per gate.
        No shifted circuit is built.
        """
        rows, cols = _triangle(forward.observable.shape[0])
        upper = np.zeros_like(forward.observable)
        upper[rows, cols] = r / 2.0
        rm = (upper + upper.T) @ forward.observable
        turned = forward.before @ (rm - rm.T) @ np.swapaxes(forward.before, 1, 2)
        return np.sum(turned.reshape(-1)[self._turn_entries] * self._turn_signs, axis=1)


class _GramObjective:
    """Training loss and gradients from a Gram form; no step reads a row.

    The forward pass, the real coordinates m and the vector G m - h of the
    last theta are kept, so a gradient at the point the objective has just
    seen reuses them.  Thetas are matched by value, not identity.
    """

    def __init__(self, suffix: _DenseSuffix, gram: Gram):
        self.suffix = suffix
        self.gram = gram
        self._theta = None

    def _at(self, theta: np.ndarray):
        if not np.array_equal(theta, self._theta):
            forward = self.suffix.forward(theta)
            m = _coordinates(forward.observable)
            self._forward, self._m, self._r = forward, m, self.gram.g @ m - self.gram.h
            self._theta = np.array(theta, dtype=float)
        return self._forward, self._m, self._r

    def loss(self, theta: np.ndarray) -> float:
        # m^T G m - 2 h^T m + c written through r = G m - h
        _, m, r = self._at(theta)
        return float(np.sum(m * (r - self.gram.h)) + self.gram.c)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Exact dL/dtheta_k: (G m - h) . (m_+k - m_-k), summed over slot k's gates."""
        forward, _, r = self._at(theta)
        return np.bincount(self.suffix.slots, weights=self.suffix.shift_differences(forward, r),
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
    return _GramObjective(model.suffix, gram).gradient(model.parameters)


def same_training(a: QnnModel, b: QnnModel) -> bool:
    """True when ``train`` takes a and b through the same steps on any Gram
    form: their initial parameters are equal, and their suffixes have equal
    constant runs, and gates of equal layers, qubits and slots.  QNN-5 and
    QNN-11 match QNN-2 and QNN-8."""
    sa, sb = a.suffix, b.suffix
    return all(np.array_equal(x, y) for x, y in (
        (a.parameters, b.parameters), (sa._runs, sb._runs), (sa.layers, sb.layers),
        (sa.qubits, sb.qubits), (sa.slots, sb.slots)))


def train(model: QnnModel, gram: Gram,
          options: Optional[OptimizerOptions] = None) -> OptimizeResult:
    """Minimize the training MSE ``gram`` (see ``gram_form``) over the
    parameters with the exact parameter-shift gradient.  Returns minimize's
    result; ``best_point`` is the fitted parameter vector."""
    objective = _GramObjective(model.suffix, gram)
    return minimize(objective.loss, objective.gradient, model.parameters, options)
