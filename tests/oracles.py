"""Dense matrix oracles for cross-checking the statevector kernels.

These build full 2**n x 2**n operators with Kronecker products and apply
them by plain matrix-vector multiplication.  Deliberately slow and memory
hungry: they exist only to validate the stride-based kernels at small n,
and the QNN's Gram-form loss and gradient against a row-by-row reading.

The kNN and CART oracles are the plain forms of the baselines: a full
stable sort of every distance row, and a tree grown depth first, one node
and one feature at a time.  The ingest and shuffle oracles at the end read
a CSV through ``csv.DictReader`` one row at a time, and draw one swap index
per step; the table writer oracle writes through ``csv.writer``.  The fast
forms must match them bit for bit.
"""
from __future__ import annotations

import csv
from dataclasses import replace

import numpy as np

I2 = np.eye(2, dtype=complex)


def dense_1q_operator(u: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Full operator for a 2x2 gate on one qubit, little-endian index order."""
    # kron composes high qubit first so that qubit 0 lands on the least
    # significant index bit.
    op = np.array([[1.0]], dtype=complex)
    for q in reversed(range(n_qubits)):
        op = np.kron(op, u if q == qubit else I2)
    return op


def dense_cx_operator(control: int, target: int, n_qubits: int) -> np.ndarray:
    """Full CX operator built from the permutation it induces on basis states."""
    dim = 2**n_qubits
    op = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        dest = b ^ (1 << target) if (b >> control) & 1 else b
        op[dest, b] = 1.0
    return op


def dense_z_all_operator(n_qubits: int) -> np.ndarray:
    z = np.diag([1.0, -1.0]).astype(complex)
    op = np.array([[1.0]], dtype=complex)
    for _ in range(n_qubits):
        op = np.kron(op, z)
    return op


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized state for property checks."""
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return amps / np.linalg.norm(amps)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Random 2x2 unitary via QR of a complex Gaussian matrix."""
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_lbfgs_direction(gradient: np.ndarray, history: list) -> np.ndarray:
    """-H*g with H built by explicit dense BFGS updates from gamma*I."""
    d = len(gradient)
    if history:
        s_last, y_last = history[-1]
        gamma = float(s_last @ y_last) / float(y_last @ y_last)
    else:
        gamma = 1.0
    h = gamma * np.eye(d)
    eye = np.eye(d)
    for s, y in history:
        rho = 1.0 / float(s @ y)
        left = eye - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    return -h @ np.asarray(gradient, dtype=float)


H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def phase_2x2(t: float) -> np.ndarray:
    """P(t) = diag(1, e^{it})."""
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * t)]], dtype=complex)


def ry_2x2(t: float) -> np.ndarray:
    """RY(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _oracle_angle(angle, features, params) -> float:
    # Independent re-derivation of every angle-source formula.
    from windqnn.circuit import ConstAngle, FeatureAngle, PairProductAngle, ParamAngle

    if isinstance(angle, ConstAngle):
        return float(angle.value)
    if isinstance(angle, FeatureAngle):
        return 2.0 * float(features[angle.index])
    if isinstance(angle, PairProductAngle):
        return 2.0 * (np.pi - float(features[angle.index_a])) * (
            np.pi - float(features[angle.index_b])
        )
    if isinstance(angle, ParamAngle):
        return float(params[angle.index])
    raise TypeError(f"unknown angle source {angle!r}")


def dense_template_matrix(template, features, params) -> np.ndarray:
    """Full 2**n x 2**n matrix of a bound template via matrix-chain products."""
    dim = 2**template.n_qubits
    op = np.eye(dim, dtype=complex)
    for g in template.gates:
        if g.kind == "H":
            m = dense_1q_operator(H2, g.qubits[0], template.n_qubits)
        elif g.kind == "CX":
            m = dense_cx_operator(g.qubits[0], g.qubits[1], template.n_qubits)
        elif g.kind == "P":
            t = _oracle_angle(g.angle, features, params)
            m = dense_1q_operator(phase_2x2(t), g.qubits[0], template.n_qubits)
        elif g.kind == "RY":
            t = _oracle_angle(g.angle, features, params)
            m = dense_1q_operator(ry_2x2(t), g.qubits[0], template.n_qubits)
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
        op = m @ op
    return op


def dense_suffix_observable(suffix, params) -> np.ndarray:
    """M = U^H (Z x ... x Z) U of a feature-free template, by dense products."""
    u = dense_template_matrix(suffix, np.zeros(0), params)
    return u.conj().T @ dense_z_all_operator(suffix.n_qubits) @ u


def dense_suffix_blocks(template) -> tuple:
    """(lead, runs, turns) of a template's trainable suffix: C_0, the
    constant gates ahead of its first trainable RY, then per trainable RY j
    the run K_j of constant gates after it and T_j = RY(pi) on its qubit,
    with every run, empty or not, and every turn run through the simulator
    over the identity.  Gate j's factor is cos(t_j/2) K_j + sin(t_j/2) K_j T_j."""
    from windqnn.circuit import ConstAngle, ParamAngle, feature_prefix_length, run_gates

    dim = 2**template.n_qubits

    def matrix(gates):
        columns = np.eye(dim, dtype=complex)  # row j becomes U e_j
        run_gates(columns, gates, template.n_qubits, np.zeros(0), np.zeros(0))
        assert not np.any(columns.imag)
        return columns.real.T

    runs, turns = [[]], []
    for g in template.gates[feature_prefix_length(template):]:
        if isinstance(g.angle, ParamAngle):
            turns.append(replace(g, angle=ConstAngle(np.pi)))
            runs.append([])
        else:
            runs[-1].append(g)
    blocks = np.array([matrix(run) for run in runs[1:]]).reshape(-1, dim, dim)
    return matrix(runs[0]), blocks, np.array([matrix([t]) for t in turns]).reshape(-1, dim, dim)


def rowwise_loss_and_shift_gradient(prefix, suffix, features, params, targets):
    """MSE and parameter-shift gradient of prefix + suffix, row by row.

    Every row's state psi_s after the prefix and every observable come from
    dense matrices.  The gradient sums the rows through the residual-weighted
    density matrix rho_r = sum_s r_s psi_s psi_s^H:

        dL/dtheta_k = Re tr(rho_r (M(theta + pi/2 e_k) - M(theta - pi/2 e_k))) / N.
    """
    states = np.array([dense_template_matrix(prefix, x, np.zeros(0))[:, 0] for x in features])
    readouts = np.einsum("si,ij,sj->s", states.conj(), dense_suffix_observable(suffix, params),
                         states).real
    residuals = readouts - targets
    rho = states.T @ (residuals[:, None] * states.conj())
    gradient = np.empty(params.shape[0])
    for k in range(params.shape[0]):
        shift = np.zeros_like(params)
        shift[k] = np.pi / 2
        difference = (dense_suffix_observable(suffix, params + shift)
                      - dense_suffix_observable(suffix, params - shift))
        gradient[k] = np.trace(rho @ difference).real / targets.shape[0]
    return float(np.mean(residuals**2)), gradient


def knn_predict_oracle(features, targets, k: int, queries) -> np.ndarray:
    """kNN by a full stable sort of every query's distance row.

    The stable sort breaks distance ties toward the lower training index.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out = np.empty(queries.shape[0])
    # chunked so the (chunk, n_train, n_features) difference array stays small
    chunk = max(1, 10**6 // features.shape[0])
    for start in range(0, queries.shape[0], chunk):
        q = queries[start : start + chunk]
        d2 = ((q[:, None, :] - features[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start : start + chunk] = targets[nearest].mean(axis=1)
    return out


def cart_split_oracle(features, targets):
    """Best (sse, feature, threshold, order, position) by a per-feature scan.

    Prefix sums give each candidate's child SSEs; ties resolve to the lowest
    feature index, then the lowest threshold, by scan order.
    """
    n = targets.shape[0]
    best = None
    for f in range(features.shape[1]):
        order = np.argsort(features[:, f], kind="stable")
        values = features[order, f]
        t = targets[order]
        s1 = np.cumsum(t)
        s2 = np.cumsum(t * t)
        total1, total2 = s1[-1], s2[-1]
        cut = np.nonzero(values[1:] > values[:-1])[0] + 1  # split before index i
        if cut.size == 0:
            continue
        left1, left2 = s1[cut - 1], s2[cut - 1]
        n_left = cut.astype(float)
        n_right = n - n_left
        sse = (left2 - left1**2 / n_left) + (
            (total2 - left2) - (total1 - left1) ** 2 / n_right
        )
        i = int(np.argmin(sse))  # first minimum = lowest threshold
        if best is None or sse[i] < best[0]:
            thr = 0.5 * (values[cut[i] - 1] + values[cut[i]])
            best = (float(sse[i]), f, thr, order, int(cut[i]))
    return best


def cart_tree_oracle(features, targets, max_depth=None, min_samples_split=2, depth=0):
    """Depth-first CART built node by node on cart_split_oracle, as nested tuples.

    A leaf is its training mean; a split is (mean, feature, threshold, left,
    right), so every node's value is there to compare.  Children keep the
    rows in the split feature's sorted order, as fit_cart does, so each
    mean sums in the same order.
    """
    value = float(targets.mean())
    if (
        targets.shape[0] < min_samples_split
        or np.all(targets == targets[0])
        or (max_depth is not None and depth >= max_depth)
    ):
        return value
    found = cart_split_oracle(features, targets)
    if found is None:
        return value
    _, f, thr, order, pos = found
    left, right = order[:pos], order[pos:]
    return (
        value,
        f,
        thr,
        cart_tree_oracle(features[left], targets[left], max_depth, min_samples_split, depth + 1),
        cart_tree_oracle(features[right], targets[right], max_depth, min_samples_split, depth + 1),
    )


def cart_model_tree(model, node: int = 0):
    """A fitted CartModel's node arrays as cart_tree_oracle's nested tuples:
    a leaf is its value, a split node (value, feature, threshold, left,
    right), the right child being node left + 1."""
    if model.feature[node] == -1:
        return float(model.value[node])
    left = int(model.left[node])
    return (float(model.value[node]), int(model.feature[node]), float(model.threshold[node]),
            cart_model_tree(model, left), cart_model_tree(model, left + 1))


def load_csv_oracle(path: str, column_names=None):
    """(dataset, dropped) of a CSV read row by row through csv.DictReader.

    Every row is parsed and filtered on its own: a missing, unparseable or
    non-finite cell, or a negative power, drops it.
    """
    from windqnn.data import FEATURE_COLUMNS, TARGET_COLUMN, DataError, Dataset

    columns = FEATURE_COLUMNS + (TARGET_COLUMN,)
    names = {c: c for c in columns}
    names.update(column_names or {})
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for canonical in columns:
            if names[canonical] not in header:
                raise DataError(f"{path}: missing column {names[canonical]!r}")
        rows = []
        dropped = 0
        for record in reader:
            try:
                values = [float(record[names[c]]) for c in columns]
            except (TypeError, ValueError, KeyError):
                dropped += 1
                continue
            if not all(np.isfinite(values)) or values[-1] < 0:
                dropped += 1
                continue
            rows.append(values)
    if not rows:
        raise DataError(f"no valid rows in {path} ({dropped} dropped)")
    table = np.array(rows, dtype=float)
    return Dataset(features=table[:, :4], power=table[:, 4]), dropped


def write_table_oracle(path: str, columns, rows) -> None:
    """A CSV file written row by row through csv.writer's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def fisher_yates_oracle(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n), one scalar PCG64 draw per swap."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order
