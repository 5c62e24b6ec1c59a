"""Projective points, hyperplanes and the standard metric on P^(n-1)(k).

Distances are d([v],[w]) = ||v ^ w|| / (||v|| ||w||) and, against the kernel
of a linear form f, d([v],[ker f]) = |f(v)| / (||f|| ||v||).  Norms are the
euclidean/hermitian 2-norm over R and C and the sup of coordinate absolute
values over Q_p.  canonical_rows normalizes the rows of an array so equal
lines yield coordinate-identical representatives.  ProjPoint and
ProjHyperplane are a field and one such row, read-only (P.rep, H.form),
and callers read the row itself.

hyperplane_distances and point_distances, the array form of the metric, are
its implementation; proj_dist, dist_to_hyperplane and the equality of points
and hyperplanes call them on a batch of one.  They take the matrices g of
the images g v as well, so a caller never forms g v itself.  They split by
field once.  Over R and C, hyperplane_distances makes its products with
_by_matrix: the images g v by one matmul per matrix g over every point that
meets it, and the values f(g v) by one per stack of forms over every image
that meets it.  separation's (T, E, 2) tables so take one matmul per letter
and one per trial, not two per (trial, letter) pair.  Each matmul has the B
operand of the broadcast product's matmul for one pair and only more rows,
so every distance has that product's bits (tests/helpers holds it as the
oracle).  Other forms of the same products can round otherwise: over C,
one matmul over all letters at once (more columns) does at n = 2, 3 and 5.
point_distances is one numpy expression.  Over Q_p every distance, digit
count and first error is the one PadicScalar arithmetic gives
(tests/helpers holds that route as the oracle), by one of two routes:
- A call on one block of PadicScalar rows (no leading axes) that makes fewer
  than _SCALAR_PRODUCTS scalar products runs on the PadicScalar operators
  over Python lists: every g v summed left to right in C order, each row
  made canonical by fields._canonical_padic_row, then f(g v) or the wedge
  coordinates summed left to right and abs taken.  The flag distances and
  the candidate scans of the certificate pipeline make such calls.
- Larger calls, int arrays and int terms run on the int-term primitives of
  fields: they form g v, take its pivot and sum f(g v) under PadicScalar's
  digit rule and magnitude.  separation and contraction read an array they
  score more than once into those terms (_kernel_form) and hand them on.
The bound is the measured crossover.  The kernel pays about 100 us of numpy
calls whatever the size, the operators a few us per product: on canonical
Q_5 rows of 40 digits, 1-6 points, 1-8 forms, n = 2-4, with and without g,
the operators took 0.16-0.50 of the kernel's time under 16 products,
0.33-0.77 at 16-31, 0.49-1.03 at 32-47, and from 48 on 1.02-1.67 without g
and 0.63-1.61 with it (timeit, best of 7, Python 3.11, 2-core x86-64 host).
On many rows the ints win by far: one separation._margins call on
tests/data/sep_f_q5.json (m = 2, 2 trials, given as terms) takes
0.63-0.70 ms, and 6.8-7.3 ms by the PadicScalar route of
tests/helpers.padic_margins (best of 7 in each of 3 processes).
"""

import functools
import itertools
import math
import operator

import numpy as np

from .errors import DomainError
from .fields import (_INF, FieldSpec, Kind, PadicScalar, _canonical_padic_row, _padic_abs,
                     _padic_canonical, _padic_product, _padic_read, _padic_sum, magnitude,
                     relative_tolerance)

# coordinates this much below the largest one are treated as zero when
# picking the archimedean phase pivot
_PIVOT_CUTOFF = 1e-12

# a Q_p distance call on one block of PadicScalar rows making fewer scalar
# products than this runs on the PadicScalar operators: the crossover with
# the int-term kernel, measured as the module docstring says
_SCALAR_PRODUCTS = 48

_valuation = operator.attrgetter("valuation")


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


def _kernel_form(field: FieldSpec, arr, axes: int):
    """arr as the distance kernels read it, for a caller that passes it to
    several kernel calls: itself over R and C, over Q_p its int terms
    (fields._padic_read, per block of the last `axes` axes)."""
    return _padic_read(field, arr, axes) if field.is_padic else arr


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
        canonical = [_canonical_padic_row(row) for row in flat.tolist()]
        return np.array(canonical, dtype=object).reshape(rows.shape)
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
    if field.is_padic:
        # the per-row rule on a list, without canonical_rows' array round trip
        row = [field.scalar(x) for x in coords]
        if not row:
            raise DomainError("projective coordinates must be one nonempty row")
        row = np.array(_canonical_padic_row(row), dtype=object)
    else:
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

    Over Q_p every distance is fields.magnitude of v, the exact valuation
    of f(g v) for canonical g v and f, and every digit count is that of
    PadicScalar arithmetic: a sum that keeps less than one known digit raises
    the error the same products of PadicScalars would.
    """
    if field.is_padic:
        n = points.shape[-1]
        # n products for each coordinate of an image g v and for each f(g v)
        products = len(points) * n * (len(forms) + (0 if matrices is None else n))
        if _by_scalars(products, points, forms, matrices):
            images = _scalar_images(points, matrices)
            forms = [_canonical_padic_row(f) for f in forms.tolist()]
            values = [_scalar_dot(u, f) for u in images for f in forms]
            return np.array(_magnitudes(field, values)).reshape(len(images), len(forms))
        images, image_pivots = _padic_images(field, points, matrices)
        rows, row_pivots = _padic_canonical(_padic_read(field, forms, 1).term)
        terms = [_padic_product(images, rows, np.s_[..., :, None, k], np.s_[..., None, :, k])
                 for k in range(rows[0].shape[-1])]
        # f(g v) / (pivot of g v * pivot of f) is the value of the canonical rows
        shift = -(image_pivots[..., :, None] + row_pivots[..., None, :])
        _, vals, _, zero = _padic_sum(field, terms, shift)
        return _padic_abs(field, vals + shift, zero)
    if matrices is not None:
        points = _by_matrix(points, matrices)
    values = np.abs(_by_matrix(points, forms))
    norms, form_norms = _norms(field, points), _norms(field, forms)
    # ||g v|| ||f|| a form at a time, over runs of points rather than of forms
    scale = np.empty(values.shape)
    for k in range(values.shape[-1]):
        np.multiply(norms, form_norms[..., k, None], out=scale[..., k])
    return np.divide(values, scale, out=values)


def _by_matrix(x, y) -> np.ndarray:
    """x @ y^T for stacks x (..., R, n) and y (..., C, n) whose leading axes
    broadcast, C-contiguous, by one matmul per matrix of y over every row of
    x that meets it.  Each has the B operand y^T of the broadcast product's
    matmul for one pair and only more rows, so every entry keeps its bits.
    A single row makes that matmul a matrix-vector product, whose bits more
    rows would change, so R = 1 takes the broadcast product."""
    if x.shape[-2] <= 1:
        return x @ y.swapaxes(-1, -2)
    k = max(x.ndim, y.ndim) - 2
    x = x.reshape((1,) * (k + 2 - x.ndim) + x.shape)
    y = y.reshape((1,) * (k + 2 - y.ndim) + y.shape)
    # the axes along which y's matrices differ go first
    own = [axis for axis in range(k) if y.shape[axis] > 1]
    order = own + [axis for axis in range(k + 2) if axis not in own]
    x, y = x.transpose(order), y.transpose(order)
    heads, rows = y.shape[:len(own)], x.shape[len(own):-1]
    if any(size > 1 for size in x.shape[:len(own)]):  # rows of x of their own per matrix
        x = np.broadcast_to(x, heads + x.shape[len(own):])
    out = np.matmul(x.reshape(math.prod(x.shape[:len(own)]), math.prod(rows), x.shape[-1]),
                    y.reshape(math.prod(heads), *y.shape[-2:]).swapaxes(-1, -2))
    out = out.reshape(heads + rows + y.shape[-2:-1])
    return np.ascontiguousarray(out.transpose([order.index(axis) for axis in range(k + 2)]))


def point_distances(field: FieldSpec, points, w, matrices=None) -> np.ndarray:
    """d([g v], [w]) for every row v of points (..., n), as a float array
    (...); g is the matrix of matrices (..., n, n) or the identity when None.
    Over Q_p exact as in hyperplane_distances."""
    if field.is_padic:
        n = points.shape[-1]
        # n products for each coordinate of an image g v, two for each wedge coordinate
        products = len(points) * n * (n - 1 + (0 if matrices is None else n))
        if _by_scalars(products, points, w[None], matrices):
            images, w = _scalar_images(points, matrices), _canonical_padic_row(w.tolist())
            wedges = [[v[i] * w[j] - v[j] * w[i] for i, j in itertools.combinations(range(n), 2)]
                      for v in images]
            # the sup norm: the wedge coordinate of least valuation (none for n = 1)
            return np.array(_magnitudes(field, [min(wedge, key=_valuation, default=None)
                                                for wedge in wedges]))
        images, image_pivots = _padic_images(field, points, matrices)
        row, row_pivot = _padic_canonical(_padic_read(field, w, 1).term)
        i, j = _pairs(row[0].shape[-1])
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


def _padic_images(field: FieldSpec, points, matrices) -> tuple:
    """(term, pivot valuations) of the canonical rows g v, g v = v when
    matrices is None; g v is summed as the object product v @ g^T."""
    points = _padic_read(field, points, 1)
    term = points.term
    if matrices is not None:
        g = _padic_read(field, matrices, 2)
        terms = [_padic_product(term, g.term, np.s_[..., :, None, k], np.s_[..., None, :, k])
                 for k in range(term[0].shape[-1])]
        term = _padic_sum(field, terms, points.shift[..., :, None] + g.shift[..., None, None])
    return _padic_canonical(term)


def _by_scalars(products: int, *arrays) -> bool:
    """Whether a Q_p distance call of this many scalar products takes the
    PadicScalar route: fewer than _SCALAR_PRODUCTS, on 2-D PadicScalar
    arrays (one block, no leading axes) or None for the matrices."""
    return products < _SCALAR_PRODUCTS and all(
        a is None or (type(a) is np.ndarray and a.ndim == 2 and a.size
                      and type(a.flat[0]) is PadicScalar) for a in arrays)


def _scalar_dot(x, y):
    # sum x_k y_k left to right from the first product, as numpy's object sums add
    return functools.reduce(operator.add, map(operator.mul, x, y))


def _scalar_images(points, matrices) -> list:
    """The canonical rows g v of a (P, n) PadicScalar array as lists, g v = v
    when matrices is None; every image is summed, in C order, before any
    row is made canonical, as the kernel and the object product do it."""
    rows = points.tolist()
    if matrices is not None:
        g = matrices.tolist()
        rows = [[_scalar_dot(v, row) for row in g] for v in rows]
    return [_canonical_padic_row(v) for v in rows]


def _magnitudes(field: FieldSpec, scalars: list) -> list:
    """The abs of each PadicScalar of a list, 0.0 for a zero or None; a
    valuation with no float magnitude raises first at the largest, as
    fields._padic_abs raises."""
    magnitude(field.prime, max([0] + [x.valuation for x in scalars if x]))
    return [x.abs() if x else 0.0 for x in scalars]
