"""Projective points, hyperplanes and the standard metric on P^(n-1)(k).

Distances are d([v],[w]) = ||v ^ w|| / (||v|| ||w||) and, against the kernel
of a linear form f, d([v],[ker f]) = |f(v)| / (||f|| ||v||).  Norms are the
euclidean/hermitian 2-norm over R and C and the sup of coordinate absolute
values over Q_p.  canonical_rows normalizes the rows of an array so equal
lines yield coordinate-identical representatives.  ProjPoint and
ProjHyperplane are a field and one such row, read-only (P.rep, H.form),
and callers read the row itself.

hyperplane_distances and point_distances, the array form of the metric, are
written once for every field and are its only implementation; the norm and
the p-adic canonical rows are the only splits.  proj_dist,
dist_to_hyperplane and the equality of points and hyperplanes call them on
a batch of one.
"""

import functools

import numpy as np

from .errors import DomainError
from .fields import FieldSpec, Kind, relative_tolerance

# coordinates this much below the largest one are treated as zero when
# picking the archimedean phase pivot
_PIVOT_CUTOFF = 1e-12


def as_field_array(field: FieldSpec, values, ndim: int) -> np.ndarray:
    """Read-only array of field scalars nested ``ndim`` deep, shape unchecked:
    float64 over R, complex128 over C, PadicScalar objects over Q_p."""
    if field.is_padic:
        scalar = field.scalar
        if ndim == 1:
            arr = np.array([scalar(x) for x in values], dtype=object)
        else:
            arr = np.array([[scalar(x) for x in row] for row in values], dtype=object)
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


def _pivoted(field: FieldSpec, rows: np.ndarray) -> tuple:
    """(rows, norms) for the kernels.  p-adic rows made canonical have sup
    norm exactly 1.0, so every p-adic distance is an exact power of p."""
    if field.is_padic:
        return canonical_rows(field, rows), np.ones(rows.shape[:-1])
    return rows, _norms(field, rows)


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
        todo = np.array([not (pivot.value == 1 and all(not c or c.digits <= pivot.digits
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


def hyperplane_distances(field: FieldSpec, points, forms) -> np.ndarray:
    """d([v], [ker f]) for every row v of points (..., P, n) and every row f
    of forms (..., H, n), as a float array (..., P, H); the leading axes
    broadcast, so a stack of points may meet its own forms."""
    points, point_norms = _pivoted(field, points)
    forms, form_norms = _pivoted(field, forms)
    # np.abs gives floats for every field; over Q_p in an object array
    values = np.abs(points @ forms.swapaxes(-1, -2)).astype(float, copy=False)
    return values / (point_norms[..., None] * form_norms[..., None, :])


def point_distances(field: FieldSpec, points, w) -> np.ndarray:
    """d([v], [w]) for every row v of points (..., n), as a float array (...)."""
    v, v_norms = _pivoted(field, points)
    w, w_norm = _pivoted(field, w)
    i, j = _pairs(len(w))
    return _norms(field, v[..., i] * w[j] - v[..., j] * w[i]) / (v_norms * w_norm)
