"""Shared random-matrix generators and small oracles for the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np

from pingpong.cartan import SLMatrix, _cartan_padic, apply_point
from pingpong.errors import DomainError, PrecisionExhaustedError
from pingpong.fields import Kind, PadicScalar, _vp, matmul, valuation
from pingpong.projective import _norms, canonical_rows
from pingpong.sampling import padic_point_chunks
from pingpong.separation import SeparatingSet, best_separator, sample_configuration


def random_sl_arch(rng, field, n, spread=1.0):
    """Random SL_n(R) or SL_n(C) matrix: gaussian entries scaled to det 1."""
    while True:
        m = rng.normal(size=(n, n)) * spread
        if field.kind is Kind.COMPLEX:
            m = m + 1j * rng.normal(size=(n, n)) * spread
        det = np.linalg.det(m)
        if abs(det) < 1e-6:
            continue
        if field.kind is Kind.REAL:
            if det < 0:
                m[0] = -m[0]
                det = -det
            return SLMatrix(field, m / float(det) ** (1.0 / n))
        return SLMatrix(field, m / complex(det) ** (1.0 / n))


def random_sl_padic(rng, field, n, ops=8, val_range=2, integral=False):
    """Random SL_n(Q_p) matrix: integer shears around a p-power diagonal.

    integral=True keeps every entry in Z_p (unit shears, no diagonal part),
    which makes the result a projective isometry.
    """
    p = field.prime
    if integral:
        val_range = 0
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def shear():
        i, j = rng.sample(range(n), 2)
        lam = Fraction(rng.randint(-9, 9))
        if not integral:
            lam *= Fraction(p) ** rng.randint(-1, 1)
        if lam:
            for c in range(n):
                rows[j][c] += lam * rows[i][c]

    for _ in range(ops // 2):
        shear()
    exps = [rng.randint(-val_range, val_range) for _ in range(n - 1)]
    exps.append(-sum(exps))
    for i in range(n):
        rows[i] = [x * Fraction(p) ** exps[i] for x in rows[i]]
    for _ in range(ops - ops // 2):
        shear()
    return SLMatrix(field, rows)


def fraction_det(rows):
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            term = rows[0][j] * fraction_det(minor)
            total += term if j % 2 == 0 else -term
    return total


def adjugate_oracle(rows):
    """Exact adjugate by cofactors: entry (i, j) is (-1)^(i+j) times the
    determinant of rows without row j and column i."""
    n = len(rows)
    return [[(-1) ** (i + j) * fraction_det([[rows[r][c] for c in range(n) if c != i]
                                              for r in range(n) if r != j])
             for j in range(n)] for i in range(n)]


def smith_valuations_oracle(g):
    """Diagonal valuations via minors: j_k = m_k - m_(k-1), m_k the least
    valuation of a k x k minor."""
    n = g.n
    entries = [[c.value for c in row] for row in g.entries]
    mins = []
    for k in range(1, n + 1):
        best = math.inf
        for rows_ in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                d = fraction_det([[entries[i][j] for j in cols] for i in rows_])
                if d:
                    best = min(best, valuation(d, g.field))
        mins.append(best)
    out = [mins[0]]
    for k in range(1, n):
        out.append(mins[k] - mins[k - 1])
    return out


def bilip_constant_by_smith(g):
    """cartan.bilip_constant over Q_p as the Smith form gives it: |a_1/a_n|^2
    from the diagonal valuations of a fresh decomposition of g."""
    t = _cartan_padic(g)
    return float(g.field.prime) ** (2 * (t.a[-1].valuation - t.a[0].valuation))


# The PadicScalar operators with every result built by __init__, an oracle
# for the operators that take their results' valuations from the operands.
# x is a PadicScalar, y the other operand.

def _coerce_by_init(x, y):
    if isinstance(y, PadicScalar):
        if y.field != x.field:
            raise DomainError(f"mixed fields: {x.field} and {y.field}")
        return y
    if isinstance(y, (int, Fraction)):
        return PadicScalar(x.field, y)
    raise DomainError(f"cannot treat {type(y).__name__} as a p-adic scalar")


def padic_add_by_init(x, y):
    """x + y and y + x."""
    y = _coerce_by_init(x, y)
    abs_prec = min(x.valuation + x.digits, y.valuation + y.digits)
    value = x.value + y.value
    if not value:
        return PadicScalar(x.field, 0)
    v = _vp(value, x.field.prime)
    digits = abs_prec - v
    if digits < 1:
        raise PrecisionExhaustedError(
            f"cancellation left a result of valuation {v} known only modulo "
            f"{x.field.prime}^{abs_prec}")
    return PadicScalar(x.field, value, min(int(digits), x.field.precision))


def padic_neg_by_init(x):
    """-x."""
    return PadicScalar(x.field, -x.value, x.digits)


def padic_sub_by_init(x, y):
    """x - y."""
    return padic_add_by_init(x, padic_neg_by_init(_coerce_by_init(x, y)))


def padic_rsub_by_init(x, y):
    """y - x."""
    return padic_add_by_init(padic_neg_by_init(x), y)


def padic_mul_by_init(x, y):
    """x * y and y * x."""
    y = _coerce_by_init(x, y)
    return PadicScalar(x.field, x.value * y.value, min(x.digits, y.digits))


def padic_div_by_init(x, y):
    """x / y."""
    y = _coerce_by_init(x, y)
    if not y.value:
        raise DomainError("division by zero")
    return PadicScalar(x.field, x.value / y.value, min(x.digits, y.digits))


def padic_rdiv_by_init(x, y):
    """y / x."""
    if not x.value:
        raise DomainError("division by zero")
    return padic_div_by_init(_coerce_by_init(x, y), x)


def power_iteration_norm(m, iters=400):
    """Largest singular value of a numpy matrix, independent of the SVD."""
    m = np.asarray(m)
    x = np.ones(m.shape[1], dtype=m.dtype) / math.sqrt(m.shape[1])
    for _ in range(iters):
        y = m.conj().T @ (m @ x)
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 0.0
        x = y / nrm
    return float(math.sqrt(np.linalg.norm(m.conj().T @ (m @ x))))


def wedge_coordinates(v, w):
    """v ^ w in the basis e_i ^ e_j, pairs (i, j) with i < j in lex order."""
    # scalar products: numpy's array loops round a complex product differently
    n = len(v)
    return [v[i] * w[j] - v[j] * w[i] for i in range(n) for j in range(i + 1, n)]


# The scalar metric: one pair of rows at a time, with np.linalg.norm over R
# and C, an oracle written apart from the kernels of pingpong.projective.

def scalar_norm(field, v):
    """np.linalg.norm of one row over R and C, its sup norm over Q_p."""
    if field.is_padic:
        return max((c.abs() for c in v), default=0.0)
    return float(np.linalg.norm(v))


def scalar_proj_dist(P, Q):
    """d([v], [w]) = ||v ^ w|| / (||v|| ||w||) from the canonical rows."""
    v, w = P.rep, Q.rep
    # p-adic canonical reps have sup norm exactly 1.0: the power of p stays exact
    return (scalar_norm(P.field, np.array(wedge_coordinates(v, w)))
            / (scalar_norm(P.field, v) * scalar_norm(P.field, w)))


def scalar_dist_to_hyperplane(P, H):
    """d([v], [ker f]) = |f(v)| / (||f|| ||v||), the form applied unconjugated."""
    v, f = P.rep, H.form
    # item() gives a Python float or complex, or the PadicScalar itself
    return (abs(np.sum(f * v, keepdims=True).item())
            / (scalar_norm(P.field, v) * scalar_norm(P.field, f)))


# The PadicScalar route of the p-adic kernels, an oracle for the integer arm
# of pingpong.projective: the same distances by PadicScalar arithmetic, with
# the products of fields.matmul.

def padic_hyperplane_distances(field, points, forms, matrices=None):
    """hyperplane_distances over Q_p: d([g v], [ker f]) as the abs of
    f(g v) for canonical PadicScalar rows g v and f."""
    if matrices is not None:
        points = matmul(points, matrices.swapaxes(-1, -2))
    points, forms = canonical_rows(field, points), canonical_rows(field, forms)
    return np.abs(matmul(points, forms.swapaxes(-1, -2))).astype(float)


def padic_point_distances(field, points, w, matrices=None):
    """point_distances over Q_p: the sup norm of the PadicScalar wedge of
    canonical g v and w."""
    if matrices is not None:
        points = matmul(points, matrices.swapaxes(-1, -2))
    v, w = canonical_rows(field, points), canonical_rows(field, w)
    i, j = np.triu_indices(len(w), 1)
    return np.abs(v[..., i] * w[j] - v[..., j] * w[i]).astype(float).max(axis=-1, initial=0.0)


def padic_margins(field, pairs, batch):
    """separation._margins by the PadicScalar route."""
    distances = padic_hyperplane_distances(field, batch.points[:, None, None],
                                           batch.forms[:, None, None], pairs)
    return distances.min(axis=(2, 3, 4), initial=math.inf)


def padic_verify_contracting(cert, g, samples, seed):
    """contraction.verify_contracting over Q_p by the PadicScalar route."""
    field = g.field
    for points in padic_point_chunks(field, g.n, samples, seed):
        to_plane = padic_hyperplane_distances(field, points, cert.repelling.form[None])[:, 0]
        to_point = padic_point_distances(field, points, cert.attracting.rep, g.entries)
        if ((to_plane >= cert.epsilon) & (to_point > cert.epsilon)).any():
            return False
    return True


def batch_proj_dist(u, v):
    """Rowwise projective distances between two stacks of vectors."""
    uu = np.einsum("ij,ij->i", u.conj(), u).real
    vv = np.einsum("ij,ij->i", v.conj(), v).real
    uv = np.abs(np.einsum("ij,ij->i", u.conj(), v)) ** 2
    return np.sqrt(np.clip(1.0 - uv / (uu * vv), 0.0, 1.0))


def condition_distances(f, condition):
    """d([f^side v], H) for every point v and hyperplane H of a selection
    condition (text, side, points, hyperplanes), one scalar oracle call each."""
    _, side, points, hyperplanes = condition
    g = f if side == 1 else f.inverse()
    return [scalar_dist_to_hyperplane(apply_point(g, P), H)
            for P in points for H in hyperplanes]


def first_by_scalar_reference(F, conditions):
    """The scan of pingpong._first on the scalar metric: the first f in F
    meeting every condition, or None, and per condition the number of
    rejected candidates it was the first to fail."""
    failures = [0] * len(conditions)
    for f in F.elements:
        for idx, condition in enumerate(conditions):
            if not all(d > F.r for d in condition_distances(f, condition)):
                failures[idx] += 1
                break
        else:
            return f, failures
    return None, failures


def grown_by_gather(layer, letters, magnitudes=None):
    """The next layer's products and magnitudes as one gather of both
    operands, products[parents] @ letters[last]: the reference the blocks of
    separation._grow must match bit for bit."""
    parents, last = np.nonzero(np.arange(len(letters)) != (layer.trail[-1][1][:, None] ^ 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return (matmul(layer.products[parents], letters[last]),
                None if magnitudes is None else layer.magnitudes[parents] @ magnitudes[last])


def adjugate_loop(entries):
    """Float adjugate one cofactor at a time: the reference the stacked
    cartan._adjugate must match bit for bit."""
    n = entries.shape[0]
    out = np.empty_like(entries)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(entries, j, axis=0), i, axis=1)
            out[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return out


def radius_by_trials(elements, m, trials, seed):
    """(r, wins) of estimate_radius from one best_separator call per
    sample_configuration trial: the batched pass must equal it bit for bit."""
    F = SeparatingSet(tuple(elements), m, 1.0)
    worst, wins = math.inf, [0] * len(F.elements)
    for trial in range(trials):
        g, margin = best_separator(F, sample_configuration(F.elements, m, trial, seed))
        wins[next(i for i, h in enumerate(F.elements) if h is g)] += 1
        worst = min(worst, margin)
    zero_tol = 0.0 if F.elements[0].field.is_padic else 1e-12
    return (0.0 if worst <= zero_tol else worst), tuple(wins)


def deflate_row(field, u, w, vanishing):
    """One row of separation._deflate, as the per-row loop computed it."""
    k0 = int(np.argmax(np.abs(u)))
    f = w.copy()
    f[k0] -= (w @ u) / u[k0]
    if _norms(field, f) <= vanishing * _norms(field, w):
        k1 = (k0 + 1) % len(u)
        f = np.full_like(w, field.zero())
        f[k1] = field.one()
        f[k0] = -u[k1] / u[k0]
    return f
