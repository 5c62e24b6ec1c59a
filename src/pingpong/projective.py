"""Projective points, hyperplanes and the standard metric on P^(n-1)(k).

Distances are d([v],[w]) = ||v ^ w|| / (||v|| ||w||) and, against the kernel
of a linear form f, d([v],[ker f]) = |f(v)| / (||f|| ||v||).  Norms are the
euclidean/hermitian 2-norm over R and C and the sup of coordinate absolute
values over Q_p.  canonical_rows normalizes the rows of an array so equal
lines yield coordinate-identical representatives.  ProjPoint and
ProjHyperplane are a field and one such row, read-only (P.rep, H.form),
and callers read the row itself.

hyperplane_distances and point_distances, the array form of the metric, are
its only implementation; proj_dist, dist_to_hyperplane and the equality of
points and hyperplanes call them on a batch of one.  They take the matrices
g of the images g v as well, so a caller never forms g v itself.  They split
by field once.  Over R and C they are one numpy expression.  Over Q_p they
run on exact Python ints and int64 digit counts, with no PadicScalar
arithmetic: they form g v, take its pivot and sum f(g v) under the digit
rule of PadicScalar addition, so every distance is the float p^-v and every
PrecisionExhaustedError is the one PadicScalar products would raise.  The
split is for speed: a PadicScalar product normalises a Fraction and recounts
a valuation, where the kernel only needs the valuation of each sum.
"""

import functools
import math

import numpy as np

from .errors import DomainError, PrecisionExhaustedError
from .fields import FieldSpec, Kind, PadicScalar, _vp, relative_tolerance

# coordinates this much below the largest one are treated as zero when
# picking the archimedean phase pivot
_PIVOT_CUTOFF = 1e-12


def as_field_array(field: FieldSpec, values, ndim: int) -> np.ndarray:
    """Read-only array of field scalars nested ``ndim`` deep, shape unchecked:
    float64 over R, complex128 over C, PadicScalar objects over Q_p.  An
    ndarray already in that form is taken as one copy."""
    if field.is_padic:
        scalar = field.scalar
        if (isinstance(values, np.ndarray) and values.dtype == object and values.ndim == ndim
                and all(isinstance(x, PadicScalar) and (x.field is field or x.field == field)
                        for x in values.flat)):
            arr = values.copy()
        elif ndim == 1:
            arr = np.array([scalar(x) for x in values], dtype=object)
        else:
            arr = np.array([[scalar(x) for x in row] for row in values], dtype=object)
    else:
        if isinstance(values, np.ndarray) and values.dtype.kind in "biufc":
            arr = values  # the astype below makes the private copy
        else:
            arr = np.array(list(values) if ndim == 1 else [list(row) for row in values])
        if field.kind is Kind.COMPLEX:
            arr = arr.astype(np.complex128)
        else:
            if np.iscomplexobj(arr):
                if np.abs(arr.imag).max() > 0:
                    raise DomainError("real field cannot hold complex entries")
                arr = arr.real
            arr = arr.astype(np.float64)
    arr.setflags(write=False)
    return arr


def _norms(field: FieldSpec, rows) -> np.ndarray:
    """Norm of each row (..., n): the 2-norm over R and C, the sup norm over Q_p."""
    if field.is_padic:
        return np.abs(rows).astype(float).max(axis=-1, initial=0.0)
    return np.sqrt(np.einsum("...i,...i->...", rows, rows.conj()).real)


@functools.lru_cache
def _pairs(n: int):
    # the coordinate pairs (i, j), i < j, of the wedge basis e_i ^ e_j; cached,
    # since np.triu_indices costs as much as the rest of a small kernel call
    return np.triu_indices(n, 1)


def _dot(x, y) -> np.ndarray:
    # row-by-row dot products of (k, n) arrays, summed as np.linalg.norm sums
    # one vector (einsum rounds differently)
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def canonical_rows(field: FieldSpec, rows) -> np.ndarray:
    """Canonical representative of each row (..., n) of a field array, so
    that equal lines give coordinate-identical rows; a zero row raises
    DomainError.

    Over Q_p a row is divided by its first coordinate of least valuation.
    Over R and C it is scaled to unit norm with its first coordinate above
    _PIVOT_CUTOFF times the largest one real and positive.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    if field.is_padic:
        pivots = np.array([min(row, key=lambda c: c.valuation) for row in flat], dtype=object)
        if not all(pivots):
            raise DomainError("projective representative must be nonzero")
        # dividing a row by a pivot of exactly 1 known to at least each
        # nonzero entry's digits would change no value and no digit count
        todo = np.array([not (pivot == 1 and all(not c or c.digits <= pivot.digits
                                                  for c in row))
                         for row, pivot in zip(flat, pivots)], dtype=bool)
        out = flat.copy()
        out[todo] = flat[todo] / pivots[todo, None]
        return out.reshape(rows.shape)
    mags = np.abs(flat)
    biggest = mags.max(-1, keepdims=True)
    if not biggest.all():
        raise DomainError("projective representative must be nonzero")
    pivot = flat[np.arange(len(flat)), (mags > _PIVOT_CUTOFF * biggest).argmax(-1)][:, None]
    scaled = flat / biggest
    if field.kind is Kind.COMPLEX:
        # libm hypot, as the scalar abs() takes it; the array np.abs of a
        # complex can differ in the last bit
        phase = pivot / np.hypot(pivot.real, pivot.imag)
        squares = _dot(scaled.real, scaled.real) + _dot(scaled.imag, scaled.imag)
    else:
        phase = np.sign(pivot)
        squares = _dot(scaled, scaled)
    return (flat / (phase * np.sqrt(squares)[:, None] * biggest)).reshape(rows.shape)


def _canonical_row(field: FieldSpec, coords) -> np.ndarray:
    row = as_field_array(field, coords, 1)
    if row.ndim != 1 or not len(row):
        raise DomainError("projective coordinates must be one nonempty row")
    row = canonical_rows(field, row)
    row.setflags(write=False)
    return row


class ProjPoint:
    """Point [v] of projective space, held as the read-only canonical row
    ``rep``: over R and C of unit norm with a positive (real) pivot
    coordinate; over Q_p in Z_p^n with its first unit coordinate 1.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldSpec, coords):
        self.field = field
        self.rep = _canonical_row(field, coords)

    def __len__(self):
        return len(self.rep)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return _same_line(self, other, self.rep, other.rep)

    def __repr__(self):
        return f"ProjPoint({self.field}, {self.rep.tolist()!r})"


class ProjHyperplane:
    """Projective hyperplane ker f, held as the read-only canonical row
    ``form`` of the linear form f."""

    __slots__ = ("field", "form")

    def __init__(self, field: FieldSpec, coords):
        self.field = field
        self.form = _canonical_row(field, coords)

    def __len__(self):
        return len(self.form)

    def contains(self, P: ProjPoint) -> bool:
        d = dist_to_hyperplane(P, self)
        return d == 0.0 if self.field.is_padic else d <= relative_tolerance()

    def __eq__(self, other):
        if not isinstance(other, ProjHyperplane):
            return NotImplemented
        return _same_line(self, other, self.form, other.form)

    def __repr__(self):
        return f"ProjHyperplane({self.field}, {self.form.tolist()!r})"


def _same_line(X, Y, v, w) -> bool:
    # canonical rows v, w of X and Y: equal over Q_p, within the tolerance over R and C
    if X.field != Y.field or len(v) != len(w):
        return False
    if X.field.is_padic:
        return all(a == b for a, b in zip(v, w))
    return point_distances(X.field, v[None], w)[0] <= relative_tolerance()


def _check_compatible(X, Y):
    if X.field != Y.field:
        raise DomainError(f"mixed fields: {X.field} and {Y.field}")
    if len(X) != len(Y):
        raise DomainError(f"mixed dimensions: {len(X)} and {len(Y)}")


def proj_dist(P: ProjPoint, Q: ProjPoint) -> float:
    """Standard metric; values in [0,1], an ultrametric over Q_p."""
    _check_compatible(P, Q)
    return float(point_distances(P.field, P.rep[None], Q.rep)[0])


def dist_to_hyperplane(P: ProjPoint, H: ProjHyperplane) -> float:
    """d([v], [ker f]) = |f(v)| / (||f|| ||v||), f(v) = sum f_i v_i with no
    conjugation: forms are linear."""
    _check_compatible(P, H)
    return float(hyperplane_distances(P.field, P.rep[None], H.form[None])[0, 0])


def hyperplane_distances(field: FieldSpec, points, forms, matrices=None) -> np.ndarray:
    """d([g v], [ker f]) for every row v of points (..., P, n) and every row
    f of forms (..., H, n), as a float array (..., P, H); g is the matrix of
    matrices (..., n, n) or the identity when None.  The leading axes
    broadcast, so a stack of points may meet its own forms and matrices.

    Over Q_p every distance is float(p) ** -v, v the exact valuation of
    f(g v) for canonical g v and f, and every digit count is that of
    PadicScalar arithmetic: a sum that keeps less than one known digit raises
    PrecisionExhaustedError, as the same products of PadicScalars would.
    """
    if field.is_padic:
        images, image_pivots = _padic_images(field, points, matrices)
        rows, row_pivots = _padic_canonical(_padic_rows(field, forms, 1)[0])
        terms = [_padic_product(images, rows, np.s_[..., :, None, k], np.s_[..., None, :, k])
                 for k in range(forms.shape[-1])]
        # f(g v) / (pivot of g v * pivot of f) is the value of the canonical rows
        shift = -(image_pivots[..., :, None] + row_pivots[..., None, :])
        _, vals, _, zero = _padic_sum(field, terms, shift)
        return _padic_abs(field, vals + shift, zero)
    if matrices is not None:
        points = points @ matrices.swapaxes(-1, -2)
    values = np.abs(points @ forms.swapaxes(-1, -2))
    return values / (_norms(field, points)[..., None] * _norms(field, forms)[..., None, :])


def point_distances(field: FieldSpec, points, w, matrices=None) -> np.ndarray:
    """d([g v], [w]) for every row v of points (..., n), as a float array
    (...); g is the matrix of matrices (..., n, n) or the identity when None.
    Over Q_p exact as in hyperplane_distances."""
    if field.is_padic:
        images, image_pivots = _padic_images(field, points, matrices)
        row, row_pivot = _padic_canonical(_padic_rows(field, w, 1)[0])
        i, j = _pairs(len(w))
        # v_i w_j - v_j w_i, summed as v_i w_j + (-(v_j w_i))
        minus = _padic_product(images, row, np.s_[..., j], i)
        terms = [_padic_product(images, row, np.s_[..., i], j), (-minus[0],) + minus[1:]]
        shift = -(image_pivots[..., None] + row_pivot)
        _, vals, _, zero = _padic_sum(field, terms, shift)
        # the sup norm: the least valuation of a nonzero wedge coordinate
        smallest = np.where(zero, _INF, vals + shift).min(-1, initial=_INF)
        return _padic_abs(field, smallest, smallest == _INF)
    if matrices is not None:
        points = points @ matrices.swapaxes(-1, -2)
    i, j = _pairs(len(w))
    wedge = points[..., i] * w[j] - points[..., j] * w[i]
    return _norms(field, wedge) / (_norms(field, points) * _norms(field, w))


# The p-adic arm of the kernels runs on Python ints, never on PadicScalars.
# An entry is one int of an object array times a scale: one power of p and
# one unit per row, or per whole matrix, never per row of a matrix, which
# would move the pivot of g v.  The scale cancels in a canonical row and
# shifts every valuation of one sum alike, so it changes no digit count; it
# is kept as a p-power shift only to report absolute valuations.  Each term
# is (ints, valuations, digits, zero), the valuations and digits int64.

# the valuation and absolute precision of an exact zero
_INF = np.iinfo(np.int64).max


def _valuations(p: int, ints: np.ndarray) -> np.ndarray:
    """v_p of each int of an object array, as int64; 0 for a zero.  A loop
    over the ints: on object arrays numpy calls the same int operations, at
    a fixed cost per call that a batch of one pays many times over."""
    out = []
    for x in ints.ravel().tolist():
        v = 0
        while x and not x % p:
            x //= p
            v += 1
        out.append(v)
    return np.array(out, dtype=np.int64).reshape(ints.shape)


def _padic_rows(field: FieldSpec, arr, axes: int) -> tuple:
    """(term, shift) of a p-adic field array: the term of its entries scaled
    to ints per block of the last `axes` axes (1: rows, 2: matrices), and per
    block the valuation of the scale the ints are divided by."""
    blocks = arr.reshape(-1, math.prod(arr.shape[arr.ndim - axes:]))
    ints, vals, digits, shifts = [], [], [], []
    for block in blocks.tolist():
        den = math.lcm(*[c.den for c in block])
        shift = -_vp(den, field.prime)
        ints.append([c.num * (den // c.den) for c in block])
        vals.append([c.valuation - shift if c.num else 0 for c in block])
        digits.append([c.digits for c in block])
        shifts.append(shift)
    ints = np.array(ints, dtype=object).reshape(arr.shape)
    term = (ints, np.array(vals, dtype=np.int64).reshape(arr.shape),
            np.array(digits, dtype=np.int64).reshape(arr.shape), ints == 0)
    return term, np.array(shifts, dtype=np.int64).reshape(arr.shape[:arr.ndim - axes])


def _padic_product(a: tuple, b: tuple, at_a, at_b) -> tuple:
    """The term of the products of a's entries at index at_a and b's at
    at_b, broadcast: the valuations add, the digits are the fewer of the
    two, and a product with a zero factor is an exact zero."""
    (x, x_vals, x_digits, x_zero), (y, y_vals, y_digits, y_zero) = (
        [part[at_a] for part in a], [part[at_b] for part in b])
    return x * y, x_vals + y_vals, np.minimum(x_digits, y_digits), x_zero | y_zero


def _padic_sum(field: FieldSpec, terms: list, shift) -> tuple:
    """The term of the left-to-right sums of the terms under the digit rule
    of PadicScalar.__add__: absolute precision is the min of the operands',
    an exact zero has full digits, digits are capped at the precision, and a
    nonzero sum known to less than one digit raises PrecisionExhaustedError.
    shift broadcasts to the sums: the valuation of their scale, for the
    message."""
    total, vals, digits, zero = terms[0]
    known = np.where(zero, _INF, vals + digits)
    for ints, vals_k, digits_k, zero_k in terms[1:]:
        precision = np.minimum(known, np.where(zero_k, _INF, vals_k + digits_k))
        total = total + ints
        zero = total == 0
        vals = _valuations(field.prime, total)
        digits = precision - vals
        short = ~zero & (digits < 1)
        if short.any():
            at = np.argmax(short)
            moved = np.broadcast_to(shift, short.shape).flat[at]
            raise PrecisionExhaustedError(
                f"cancellation left a result of valuation {vals.flat[at] + moved} known "
                f"only modulo {field.prime}^{precision.flat[at] + moved}")
        known = np.where(zero, _INF, vals + np.minimum(digits, field.precision))
    return total, vals, known - vals, zero


def _padic_canonical(term: tuple) -> tuple:
    """(term, pivot valuations) of canonical rows: each row divided by its
    first entry of least valuation, which leaves its ints as they are and
    takes each entry's digits down to the pivot's; the valuations stay those
    of the ints, and the pivot's is subtracted by the caller."""
    ints, vals, digits, zero = term
    key = np.where(zero, _INF, vals)
    least = key.min(-1, initial=_INF)
    if (least == _INF).any():
        raise DomainError("projective representative must be nonzero")
    pivot = key.argmin(-1).reshape(-1)
    rows = digits.reshape(len(pivot), digits.shape[-1])
    pivot_digits = rows[np.arange(len(pivot)), pivot].reshape(least.shape + (1,))
    return (ints, vals, np.minimum(digits, pivot_digits), zero), least


def _padic_images(field: FieldSpec, points, matrices) -> tuple:
    """(term, pivot valuations) of the canonical rows g v, g v = v when
    matrices is None; g v is summed as the object product v @ g^T."""
    term, shift = _padic_rows(field, points, 1)
    if matrices is not None:
        g, g_shift = _padic_rows(field, matrices, 2)
        terms = [_padic_product(term, g, np.s_[..., :, None, k], np.s_[..., None, :, k])
                 for k in range(points.shape[-1])]
        term = _padic_sum(field, terms, shift[..., :, None] + g_shift[..., None, None])
    return _padic_canonical(term)


def _padic_abs(field: FieldSpec, vals, zero) -> np.ndarray:
    """float(p) ** -v for each valuation, 0.0 where zero: the float power
    PadicScalar.abs takes, which numpy's array power can miss by an ulp."""
    vals = np.where(zero, 0, vals)
    low = int(vals.min(initial=0))
    powers = [float(field.prime) ** -k for k in range(low, int(vals.max(initial=0)) + 1)]
    return np.where(zero, 0.0, np.array(powers)[vals - low])
