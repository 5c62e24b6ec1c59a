"""Dense-generation criterion for matrix Lie groups.

Near the identity, log and exp convert group elements to Lie-algebra
elements; a tuple of elements passes the criterion when the brackets of
their logarithms span all of sl_n.  Rank decisions use a fixed singular
value threshold on unit-normalized inputs; borderline decisions are
reported as warnings rather than silently resolved, since the test is a
genericity check where a false negative is the safer failure.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .cartan import SLMatrix
from .errors import ConstructionError, DomainError, PrecisionExhaustedError
from .fields import FieldSpec, Kind

__all__ = [
    "LieElement",
    "SubalgebraBasis",
    "dense_pair_test",
    "derived_series",
    "generated_subalgebra",
    "matrix_exp",
    "matrix_log",
]

_RANK_THRESHOLD = 1e-8
_GAP_RATIO = 10.0
_SERIES_REMAINDER = 1e-12


@dataclass(frozen=True)
class LieElement:
    """Traceless n x n matrix over R or C."""

    field: FieldSpec
    entries: np.ndarray

    def __post_init__(self):
        if self.field.is_padic:
            raise DomainError("Lie algebra computations are archimedean only")
        dtype = complex if self.field.kind is Kind.COMPLEX else float
        arr = np.array(self.entries, dtype=dtype)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConstructionError(f"expected a square matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if abs(np.trace(arr)) > 1e-9 * scale:
            raise ConstructionError(f"trace {np.trace(arr)} is not zero to 1e-9")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SubalgebraBasis:
    """Linearly independent spanning set, bracket-closure flag, dimension."""

    elements: tuple
    dimension: int
    closed: bool
    warnings: tuple = dataclass_field(default=())

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        if len(self.elements) != self.dimension:
            raise ConstructionError(
                f"dimension {self.dimension} does not match basis size "
                f"{len(self.elements)}")


def _operator_norm(arr: np.ndarray) -> float:
    return float(np.linalg.norm(arr, 2))


def matrix_log(g: SLMatrix) -> LieElement:
    """Principal logarithm by the alternating series in (g - I).

    Truncation is certified: the tail after K terms is below 1e-12 in
    operator norm.  Requires ||g - I|| < 1.
    """
    if g.field.is_padic:
        raise DomainError("matrix_log requires an archimedean field")
    arr = np.asarray(g.entries)
    n = g.n
    a = arr - np.eye(n)
    t = _operator_norm(a)
    if not t < 1.0:
        raise DomainError(f"||g - I|| = {t} is not below 1; log series diverges")
    total = np.zeros_like(a)
    power = np.eye(n)
    k = 0
    while True:
        k += 1
        power = power @ a
        total = total + ((-1) ** (k + 1) / k) * power
        # remaining tail is bounded by t^(k+1) / ((k+1)(1-t))
        if t ** (k + 1) / ((k + 1) * (1.0 - t)) <= _SERIES_REMAINDER:
            break
        if k > 10_000:
            raise PrecisionExhaustedError(
                f"log series did not certify its tail within 10000 terms (||g-I|| = {t})")
    # the exact log of a det-1 matrix is traceless; remove series roundoff
    total = total - (np.trace(total) / n) * np.eye(n)
    return LieElement(g.field, total)


def matrix_exp(x: LieElement) -> SLMatrix:
    arr = np.asarray(x.entries)
    n = x.n
    total = np.eye(n, dtype=arr.dtype)
    term = np.eye(n, dtype=arr.dtype)
    t = _operator_norm(arr)
    k = 0
    while True:
        k += 1
        term = term @ arr / k
        total = total + term
        if t ** (k + 1) / math.factorial(k + 1) <= 1e-16 and k >= 3:
            break
    return SLMatrix(x.field, total)


def _vectorize(elements) -> np.ndarray:
    rows = [np.asarray(x.entries).ravel() for x in elements]
    return np.array(rows)


def _devectorize(field, rows, n):
    return tuple(LieElement(field, row.reshape(n, n)) for row in rows)


def _span_basis(field, vectors, n):
    """Orthonormal basis of the row span with the fixed rank threshold;
    returns (basis elements, dimension, warnings)."""
    norms = np.linalg.norm(vectors, axis=1)
    keep = norms > 0
    if not np.any(keep):
        return (), 0, ()
    scaled = vectors[keep] / norms[keep, None]
    _, sigma, vh = np.linalg.svd(scaled, full_matrices=False)
    rank = int(np.sum(sigma > _RANK_THRESHOLD))
    warnings = ()
    if rank < len(sigma) and rank > 0:
        gap = sigma[rank - 1] / sigma[rank] if sigma[rank] > 0 else math.inf
        if gap < _GAP_RATIO:
            warnings = (f"rank decision is borderline: gap ratio {gap:.3g} between "
                        f"kept ({sigma[rank - 1]:.3g}) and dropped ({sigma[rank]:.3g}) "
                        "singular values",)
    basis_rows = vh[:rank]
    # an orthonormal basis row may pick up a spurious trace component of
    # roundoff size; project it away so LieElement accepts the rows
    traceless = []
    for row in basis_rows:
        mat = row.reshape(n, n)
        mat = mat - (np.trace(mat) / n) * np.eye(n)
        traceless.append(mat.ravel())
    return _devectorize(field, traceless, n), rank, warnings


def _brackets(elements) -> list:
    """[a, b] = ab - ba for every pair a, b of elements, in list order."""
    mats = [np.asarray(x.entries) for x in elements]
    return [a @ b - b @ a for i, a in enumerate(mats) for b in mats[i + 1:]]


def generated_subalgebra(X) -> SubalgebraBasis:
    """Bracket closure of the span of X.

    Adjoins brackets of current basis pairs and re-ranks until the
    dimension stops growing.
    """
    X = tuple(X)
    if not X:
        raise DomainError("need at least one Lie element")
    field = X[0].field
    n = X[0].n
    for x in X:
        if x.field != field or x.n != n:
            raise DomainError("all elements must share one field and size")
    basis, dim, warnings = _span_basis(field, _vectorize(X), n)
    while True:
        brackets = _brackets(basis)
        if not brackets:
            break
        stacked = np.vstack([_vectorize(basis), np.array([c.ravel() for c in brackets])])
        new_basis, new_dim, new_warnings = _span_basis(field, stacked, n)
        warnings = warnings + tuple(w for w in new_warnings if w not in warnings)
        if new_dim == dim:
            break
        basis, dim = new_basis, new_dim
    return SubalgebraBasis(basis, dim, True, warnings)


def dense_pair_test(x: SLMatrix, y: SLMatrix) -> bool:
    """True iff log x and log y generate all of sl_n."""
    if x.field != y.field or x.n != y.n:
        raise DomainError("both elements must share one field and size")
    algebra = generated_subalgebra([matrix_log(x), matrix_log(y)])
    return algebra.dimension == x.n * x.n - 1


def derived_series(B: SubalgebraBasis):
    """Descending series g, [g, g], [[g, g], [g, g]], ... until the
    dimension stabilizes; the stabilization index is len(result) - 1."""
    if not B.closed:
        raise DomainError("derived series needs a bracket-closed input")
    series = [B]
    current = B
    while True:
        if current.dimension == 0:
            break
        field = current.elements[0].field
        n = current.elements[0].n
        brackets = _brackets(current.elements)
        if brackets:
            vectors = np.array([c.ravel() for c in brackets])
            basis, dim, warnings = _span_basis(field, vectors, n)
        else:
            basis, dim, warnings = (), 0, ()
        nxt = SubalgebraBasis(basis, dim, True, warnings)
        if nxt.dimension == current.dimension:
            break
        series.append(nxt)
        current = nxt
    return series
