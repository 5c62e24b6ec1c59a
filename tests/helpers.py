"""Shared random-matrix generators and small oracles for the test suite."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from pingpong.cartan import GaussianInt, SLMatrix, _cartan_padic, apply_point
from pingpong.errors import DomainError, PrecisionExhaustedError
from pingpong.fields import FieldSpec, Kind, PadicScalar, matmul, valuation
from pingpong.projective import _norms, as_field_array, canonical_rows
from pingpong.sampling import padic_point_chunks, stream_rows
from pingpong.separation import SeparatingSet, best_separator, sample_configuration


def _vp(x, p: int):
    """Exact p-adic valuation of an int or a Fraction, +inf for zero,
    found apart from the fields module."""
    x = Fraction(x)
    if not x:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


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


def leibniz_det(rows):
    """Exact determinant by the Leibniz formula, with +, * and unary - only
    (tiny matrices of any exact scalars)."""
    n = len(rows)
    terms = []
    for perm in itertools.permutations(range(n)):
        term = functools.reduce(operator.mul, (rows[i][perm[i]] for i in range(n)))
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        terms.append(-term if inversions % 2 else term)
    return functools.reduce(operator.add, terms)


def adjugate_oracle(rows, det=fraction_det):
    """Exact adjugate by cofactors: entry (i, j) is (-1)^(i+j) times the
    determinant of rows without row j and column i, by fraction_det, or by
    leibniz_det for scalars that do not add to a Fraction."""
    n = len(rows)
    return [[det([[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
             * (-1) ** (i + j) for j in range(n)] for i in range(n)]


def _operand(op):
    """op with an int or Fraction operand read as a GaussianRational, and
    NotImplemented for any other, a numpy array say."""
    @functools.wraps(op)
    def wrapped(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        elif not isinstance(other, GaussianRational):
            return NotImplemented
        return op(self, other)
    return wrapped


class GaussianRational:
    """a + bi with Fraction a and b, the exact value of a complex entry, for
    the oracle below: +, -, *, /, ==, complex(), and abs |a| + |b|, the
    upper bound on the modulus that the determinant gate reads."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        self.real = Fraction(real)
        self.imag = Fraction(imag)

    @_operand
    def __add__(self, other):
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    @_operand
    def __sub__(self, other):
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    @_operand
    def __mul__(self, other):
        return GaussianRational(self.real * other.real - self.imag * other.imag,
                                self.real * other.imag + self.imag * other.real)

    @_operand
    def __truediv__(self, other):
        norm = other.real ** 2 + other.imag ** 2
        return GaussianRational((self.real * other.real + self.imag * other.imag) / norm,
                                (self.imag * other.real - self.real * other.imag) / norm)

    @_operand
    def __eq__(self, other):
        return self.real == other.real and self.imag == other.imag

    def __bool__(self):
        return bool(self.real or self.imag)

    def __abs__(self) -> Fraction:
        return abs(self.real) + abs(self.imag)

    def __complex__(self):
        return complex(float(self.real), float(self.imag))


def exact_form(entries):
    """Object array of the exact values of a matrix: Fractions for the values
    of p-adic entries and the dyadic rationals a float matrix holds,
    GaussianRationals for a complex one."""
    if entries.dtype == object:
        return np.array([[x.value for x in row] for row in entries.tolist()], dtype=object)
    if np.iscomplexobj(entries):
        return np.array([[GaussianRational(x.real, x.imag) for x in row]
                         for row in entries.tolist()], dtype=object)
    return np.array([[Fraction(x) for x in row] for row in entries.tolist()], dtype=object)


def gauss_jordan(a):
    """(det, inverse) of a square object array of Fractions,
    GaussianRationals or PadicScalars by one Gauss-Jordan elimination on
    [a | I]; inverse is None when a is exactly singular.  Fractions and
    GaussianRationals pivot on the first nonzero entry of the column,
    PadicScalars on its least valuation; det is the signed product of the
    pivots.  The exact oracle of cartan.bareiss and of the p-adic digits."""
    n = len(a)
    if isinstance(a[0, 0], PadicScalar):
        zero, one = a[0, 0].field.zero(), a[0, 0].field.one()
        size = operator.attrgetter("valuation")
    else:
        exact = GaussianRational if isinstance(a[0, 0], GaussianRational) else Fraction
        zero, one = exact(0), exact(1)
        size = operator.not_  # nonzero first
    m = [row + [one if i == j else zero for j in range(n)] for i, row in enumerate(a.tolist())]
    det = one
    for t in range(n):
        pivot_row = min(range(t, n), key=lambda i: size(m[i][t]))
        if not m[pivot_row][t]:
            return zero, None
        if pivot_row != t:
            m[t], m[pivot_row] = m[pivot_row], m[t]
            det = -det
        det = det * m[t][t]
        inv = one / m[t][t]
        # a step on a zero entry would return the same value and digits: skip it
        m[t] = [x * inv if x else x for x in m[t]]
        for i in range(n):
            if i != t and m[i][t]:
                f = m[i][t]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[t])]
    return det, np.array([row[n:] for row in m], dtype=object)


def over_denominator(a):
    """(rows, D) of a square object array of Fractions or GaussianRationals:
    its values times D, the lcm of the denominators of every part, as rows
    of ints or GaussianInts, the input of cartan.bareiss."""
    parts = [(x.real, x.imag) for x in a.flat]
    den = math.lcm(*[Fraction(y).denominator for pair in parts for y in pair])
    gaussian = isinstance(a.flat[0], GaussianRational)
    flat = [GaussianInt(int(x * den), int(y * den)) if gaussian else int(x * den)
            for x, y in parts]
    n = len(a)
    return [flat[i:i + n] for i in range(0, n * n, n)], den


def over(x, den):
    """x / den for an int or a GaussianInt x: a Fraction or a GaussianRational."""
    if isinstance(x, GaussianInt):
        return GaussianRational(Fraction(x.real, den), Fraction(x.imag, den))
    return Fraction(x, den)


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
    """Largest singular value of a numpy matrix, independent of the SVD: a
    float for one (n, n) matrix, a list of floats for a (k, n, n) stack,
    whose matrices iterate together."""
    m = np.asarray(m)
    mh = m.conj().swapaxes(-1, -2)
    x = np.ones(m.shape[:-1] + (1,), dtype=m.dtype) / math.sqrt(m.shape[-1])
    for _ in range(iters):
        y = mh @ (m @ x)
        nrm = np.linalg.norm(y, axis=-2, keepdims=True)
        # a zero matrix keeps x = 0, and its norm comes out 0
        x = np.divide(y, nrm, out=np.zeros_like(y), where=nrm > 0)
    norms = np.sqrt(np.linalg.norm(mh @ (m @ x), axis=(-2, -1)))
    return norms.tolist() if m.ndim == 3 else float(norms)


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


def arch_hyperplane_distances(field, points, forms, matrices=None):
    """hyperplane_distances over R and C as one broadcast numpy expression,
    an oracle for the per-matrix products of pingpong.projective: numpy
    makes one small matmul per (trial, element, direction) for g v and one
    for f(g v)."""
    if matrices is not None:
        points = points @ matrices.swapaxes(-1, -2)
    values = np.abs(points @ forms.swapaxes(-1, -2))
    return values / (_norms(field, points)[..., None] * _norms(field, forms)[..., None, :])


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


def padic_margins(field, pairs, points, forms):
    """separation._margins by the PadicScalar route."""
    distances = padic_hyperplane_distances(field, points[:, None, None],
                                           forms[:, None, None], pairs)
    return distances.min(axis=(2, 3, 4), initial=math.inf)


def padic_configurations(field, entries, m, trials, seed):
    """separation._configurations over Q_p by the PadicScalar route: the
    sampled ints as PadicScalars, their canonical rows, the images g v as
    the object product, their deflation and the canonical forms: (points,
    forms), PadicScalar arrays.  The deflation is that of deflate_row at
    vanishing 0, but batched as the kernel batches it: every dot w . u
    first, then every correction, so a precision error is the one the
    kernel raises first."""
    n = entries.shape[-1]
    rows = stream_rows(field, n, [seed + t for t in trials.tolist()], 4 * m)
    rows = as_field_array(field, rows.reshape(-1, n), 2).reshape(len(trials), 2, 2 * m, n)
    points, forms = canonical_rows(field, rows[:, 0]), rows[:, 1].copy()
    odd = np.flatnonzero(trials % 2)
    if len(odd):
        adversaries = entries[trials[odd] // 2 % len(entries)]
        images = canonical_rows(field, matmul(adversaries[:, None], points[odd][..., None])[..., 0])
        u, f = images.reshape(-1, n), forms[odd].reshape(-1, n)
        rows = np.arange(len(u))
        k0 = np.abs(u).argmax(-1)
        f[rows, k0] -= matmul(f[:, None, :], u[:, :, None])[:, 0, 0] / u[rows, k0]
        flat = _norms(field, f) == 0
        if flat.any():
            rows, k0 = rows[flat], k0[flat]
            k1 = (k0 + 1) % n
            f[rows] = field.zero()
            f[rows, k1] = field.one()
            f[rows, k0] = -u[rows, k1] / u[rows, k0]
        forms[odd] = f.reshape(images.shape)
    return points, canonical_rows(field, forms)


def padic_verify_contracting(cert, g, samples, seed):
    """contraction.verify_contracting over Q_p by the PadicScalar route, on
    the sampled ints read as PadicScalars with as_field_array."""
    field = g.field
    for points in padic_point_chunks(field, g.n, samples, seed):
        points = as_field_array(field, points, 2)
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
    """One row of separation._deflate at vanishing 1e-9, or of
    _padic_deflate at 0, as the per-row loop computed it."""
    k0 = int(np.argmax(np.abs(u)))
    f = w.copy()
    f[k0] -= (w @ u) / u[k0]
    if _norms(field, f) <= vanishing * _norms(field, w):
        k1 = (k0 + 1) % len(u)
        f = np.full_like(w, field.zero())
        f[k1] = field.one()
        f[k0] = -u[k1] / u[k0]
    return f


# PadicScalar as it stood on fractions.Fraction, before it held two ints:
# the class verbatim, renamed, an oracle for the int arithmetic of
# pingpong.fields.PadicScalar.

class FractionPadicScalar:
    """Element of Q_p: an exact rational plus known-digit bookkeeping.

    ``digits`` counts known significant base-p digits; a full-precision
    scalar has ``field.precision`` of them.  Addition can destroy digits
    through cancellation, multiplication keeps the minimum of the two
    counts.  Instances are immutable.

    __init__ reads any int or Fraction and finds its valuation.  The
    operators +, -, *, / and unary - build their results with _known
    instead: v(xy) = v(x) + v(y), v(x/y) = v(x) - v(y), v(-x) = v(x), and
    v(x + y) = min(v(x), v(y)) when v(x) != v(y); only a sum of equal
    valuations reads the valuation off its value.  Each result has the
    value, digits and valuation __init__ would give it.
    """

    __slots__ = ("field", "value", "digits", "valuation")

    def __init__(self, field: FieldSpec, value, digits: int | None = None):
        if not field.is_padic:
            raise DomainError("PadicScalar needs a p-adic field")
        if isinstance(value, float):
            raise DomainError("floats cannot be read as p-adic scalars; use ints or Fractions")
        try:
            value = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"cannot read {value!r} as a p-adic scalar") from exc
        if digits is None or not value:
            digits = field.precision
        if digits < 1:
            raise PrecisionExhaustedError(
                f"p-adic scalar with {digits} known digits (need at least 1)")
        self.field = field
        self.value = value
        self.digits = digits
        self.valuation = _vp(value, field.prime)

    @classmethod
    def from_unit_digits(cls, field: FieldSpec, val: int, unit_digits: list[int]) -> "FractionPadicScalar":
        """Rebuild p^val * (sum of unit_digits[i] * p^i) from little-endian digits."""
        p = field.prime
        if not unit_digits or unit_digits[0] % p == 0:
            raise DomainError("unit digits must start with a nonzero digit mod p")
        unit = sum(d % p * p ** i for i, d in enumerate(unit_digits))
        return cls(field, Fraction(unit) * Fraction(p) ** val, len(unit_digits))

    @classmethod
    def _known(cls, field: FieldSpec, value: Fraction, digits: int, valuation) -> "FractionPadicScalar":
        """An operator's result, built from what its operands tell: value is
        already a Fraction and valuation is exact.  A zero gets full digits
        and valuation +inf, as __init__ gives it."""
        x = object.__new__(cls)
        x.field = field
        x.value = value
        if value:
            x.digits, x.valuation = digits, valuation
        else:
            x.digits, x.valuation = field.precision, math.inf
        return x

    def _coerce(self, other) -> "FractionPadicScalar":
        if isinstance(other, FractionPadicScalar):
            if other.field is not self.field and other.field != self.field:
                raise DomainError(f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPadicScalar(self.field, other)
        raise DomainError(f"cannot treat {type(other).__name__} as a p-adic scalar")

    def __add__(self, other):
        other = self._coerce(other)
        field = self.field
        value = self.value + other.value
        if not value:
            return FractionPadicScalar._known(field, value, field.precision, math.inf)
        # |x + y| = max(|x|, |y|) unless the two valuations are equal
        if self.valuation == other.valuation:
            v = _vp(value, field.prime)
        else:
            v = min(self.valuation, other.valuation)
        # abs_prec = valuation + digits of the least precisely known operand
        abs_prec = min(self.valuation + self.digits, other.valuation + other.digits)
        digits = abs_prec - v
        if digits < 1:
            raise PrecisionExhaustedError(
                f"cancellation left a result of valuation {v} known only modulo "
                f"{field.prime}^{abs_prec}")
        return FractionPadicScalar._known(field, value, min(digits, field.precision), v)

    __radd__ = __add__

    def __neg__(self):
        return FractionPadicScalar._known(self.field, -self.value, self.digits, self.valuation)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return FractionPadicScalar._known(self.field, self.value * other.value,
                                  min(self.digits, other.digits),
                                  self.valuation + other.valuation)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if not other.value:
            raise DomainError("division by zero")
        return FractionPadicScalar._known(self.field, self.value / other.value,
                                  min(self.digits, other.digits),
                                  self.valuation - other.valuation)

    def __rtruediv__(self, other):
        if not self.value:
            raise DomainError("division by zero")
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, FractionPadicScalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return bool(self.value)

    def abs(self) -> float:
        if not self.value:
            return 0.0
        return float(self.field.prime) ** (-self.valuation)

    __abs__ = abs

    def unit_digits(self, count: int | None = None) -> list[int]:
        """Little-endian base-p digits of the unit part, to ``count`` places."""
        if not self.value:
            raise DomainError("zero has no unit part")
        if count is None:
            count = self.digits
        p = self.field.prime
        unit = self.value / Fraction(p) ** self.valuation
        m = p ** count
        u = unit.numerator * pow(unit.denominator, -1, m) % m
        out = []
        for _ in range(count):
            out.append(u % p)
            u //= p
        return out

    def __repr__(self):
        return f"PadicScalar({self.value}, p={self.field.prime}, digits={self.digits})"
