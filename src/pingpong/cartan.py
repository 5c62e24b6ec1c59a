"""KAK decomposition of SL_n over R, C and Q_p.

Archimedean decompositions come from the singular value decomposition with a
deterministic phase convention; non-archimedean ones from Smith normal form
over Z_p with minimal-valuation pivoting.  Both produce g = k * diag(a) * k'
with |a_1| >= ... >= |a_n|, k and k' in the maximal compact subgroup, and the
norm identities ||g|| = |a_1|, ||wedge^2 g|| = |a_1 a_2|.  bilip_constants
needs only |a_1| and |a_n| and makes no decomposition: over R and C one
stacked SVD gives them for a whole set, over Q_p the entries of each g and
of its inverse, every inverse of the set from one inverses call.  inverses
fills the inverse of a whole set from one stacked _adjugate.
determinant_failure is the one determinant gate: it checks a whole stack,
over R and C with one stacked np.linalg.det, over Q_p matrix by matrix, and
SLMatrix._check_det runs it on a stack of one.

Exact det and adjugate have one core, bareiss, on ints: integral_form reads
a matrix's stored values over their common denominator D, as Python ints
over R and Q_p and as GaussianInts over C, and bareiss gives det D^n and
adj D^(n-1), by the closed forms for n = 2 and by fraction-free elimination
for n >= 3.  It serves the Q_p gate, the gate's exact arm over R and C, on
the stored dyadic entries when the float gate is too wide to decide det = 1
(over C the phase of the det as well as its modulus), and the falsifier's
letters.  The p-adic n >= 3 cofactors of the inverse, which is the adjugate
for every field, and the minors of exterior_power come from _dets, a
forward elimination on PadicScalars that keeps their digit counts.
The Smith form keeps its own loop: it pivots on the whole remaining block
rather than one column and records the row and column operations as k and k'.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DecompositionError, DomainError, PrecisionExhaustedError
from .fields import (FieldSpec, Kind, PadicScalar, _over_common_denominator, magnitude, matmul,
                     relative_tolerance, valuation)
from .projective import ProjHyperplane, ProjPoint, as_field_array


def _operand(op):
    """op with an int operand read as a GaussianInt, and NotImplemented for
    any other, a numpy array say."""
    @functools.wraps(op)
    def wrapped(self, other):
        if isinstance(other, int):
            other = GaussianInt(other)
        elif not isinstance(other, GaussianInt):
            return NotImplemented
        return op(self, other)
    return wrapped


class GaussianInt:
    """a + bi with int a and b: over C, a stored entry times the common
    denominator of the real and imaginary parts of its matrix.

    It has the operators bareiss and the falsifier's words use, // an exact
    division, one whose quotient is a Gaussian integer, and no more.
    abs is |a| + |b|: an upper bound on the modulus, within a factor sqrt(2)
    of it, and an int, so that sums of abs values stay exact.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        self.real = real
        self.imag = imag

    @_operand
    def __add__(self, other):
        return GaussianInt(self.real + other.real, self.imag + other.imag)

    @_operand
    def __sub__(self, other):
        return GaussianInt(self.real - other.real, self.imag - other.imag)

    def __neg__(self):
        return GaussianInt(-self.real, -self.imag)

    @_operand
    def __mul__(self, other):
        return GaussianInt(self.real * other.real - self.imag * other.imag,
                           self.real * other.imag + self.imag * other.real)

    @_operand
    def __floordiv__(self, other):
        norm = other.real ** 2 + other.imag ** 2
        return GaussianInt((self.real * other.real + self.imag * other.imag) // norm,
                           (self.imag * other.real - self.real * other.imag) // norm)

    @_operand
    def __eq__(self, other):
        return self.real == other.real and self.imag == other.imag

    def __bool__(self):
        return bool(self.real or self.imag)

    def __abs__(self) -> int:
        return abs(self.real) + abs(self.imag)


def integral_form(entries: np.ndarray) -> tuple:
    """(rows, D) of a square matrix: the stored values times D, the lcm of
    their denominators, as lists of Python ints, over C of GaussianInts
    whose real and imaginary parts share the one D.  A float is the dyadic
    rational it holds, a PadicScalar its value."""
    n = len(entries)
    flat = entries.ravel().tolist()
    if entries.dtype.kind == "c":
        ints, den = _over_common_denominator([z.real for z in flat] + [z.imag for z in flat])
        flat = [GaussianInt(x, y) for x, y in zip(ints, ints[n * n:])]
    else:
        flat, den = _over_common_denominator(flat)
    return [flat[i:i + n] for i in range(0, n * n, n)], den


def bareiss(a: list) -> tuple:
    """(det, adj) of a square matrix given as rows of ints or GaussianInts,
    adj = det a^-1 as rows, adj None when det = 0 and n >= 3.

    For n = 2 the closed forms ad - bc and [[d, -b], [-c, a]].  For n >= 3
    Bareiss's fraction-free Gauss-Jordan elimination on [a | I] (E. H.
    Bareiss, Math. Comp. 22, 1968): the k-th step pivots on the first nonzero
    entry of column k from row k down, p_k, and sets every other row to
    (p_k row - a_ik row_k) // p_(k-1), p_(-1) = 1.  Each entry is then a minor
    of the row-swapped [a | I], so each division is exact, and at the end
    p_(n-1) and the right block are det a and adj a times the swaps' sign.
    """
    n = len(a)
    if n == 2:
        (p, q), (r, s) = a
        return p * s - q * r, [[s, -q], [-r, p]]
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        # m holds columns k.. of [a | I]; the left columns before k are
        # p_(k-1) I and stay out of the loop
        pivot_row = next((i for i in range(k, n) if m[i][0]), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot, top = m[k][0], m[k][1:]
        m = [top if i == k else [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
             for i, row in enumerate(m)]
        prev = pivot
    return prev * sign, [[x * sign for x in row] for row in m]


class SLMatrix:
    """Square matrix of determinant one over a supported field.

    Entries live in a read-only numpy array from as_field_array, for every
    field alike.  Instances are immutable; the inverse and the Cartan
    decomposition are computed once and cached.  ``check=False`` skips
    determinant validation for matrices that are products of validated ones.
    """

    __slots__ = ("field", "entries", "_inverse", "_cartan")

    def __init__(self, field: FieldSpec, rows, check: bool = True):
        entries = as_field_array(field, rows, 2)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] < 2:
            raise DomainError("matrix must be square of size at least 2")
        self.field = field
        self.entries = entries
        self._inverse = None
        self._cartan = None
        if check:
            self._check_det()

    @classmethod
    def _view(cls, field: FieldSpec, entries: np.ndarray) -> "SLMatrix":
        """An unchecked SLMatrix on entries, not copied: a read-only square
        array in as_field_array's form, such as one of a private stack."""
        g = cls.__new__(cls)
        g.field, g.entries, g._inverse, g._cartan = field, entries, None, None
        return g

    def _check_det(self):
        """DomainError unless det = 1 as far as the stored entries tell: the
        gate of determinant_failure on this matrix alone."""
        failure = determinant_failure(self.field, self.entries[None])
        if failure is not None:
            raise DomainError(failure[1])

    @property
    def n(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "SLMatrix") -> "SLMatrix":
        if not isinstance(other, SLMatrix):
            return NotImplemented
        if self.field != other.field or self.n != other.n:
            raise DomainError("matrix product needs matching fields and sizes")
        product = matmul(self.entries, other.entries)
        product.setflags(write=False)
        return SLMatrix._view(self.field, product)

    def inverse(self) -> "SLMatrix":
        return self._inverse or inverses((self,))[0]

    def cartan(self) -> "CartanTriple":
        """Cached Cartan decomposition of this matrix."""
        return cartan_decompose(self)

    def __repr__(self):
        rows = [list(r) for r in self.entries]
        return f"SLMatrix({self.field}, {rows!r})"


def determinant_failure(field: FieldSpec, stack: np.ndarray):
    """(index, message) of the first matrix of a (k, n, n) stack whose det is
    not 1 as far as its stored entries tell, or None when every one passes.

    Over Q_p, matrix by matrix, det = 1 to the digits held, the exact det of
    the values from bareiss on integral_form's ints, det D^n against D^n.
    Over R and C
    one stacked np.linalg.det gives the float det of each matrix, which must
    lie within _float_gates' width of 1; where that width reaches 1, the exact
    det d of the dyadic entries A decides: d must be nonzero with
    |d - 1| <= tol sum_ij |a_ij| |adj(A)_ji|, the first-order move of d when
    each entry is off by a relative tol = relative_tolerance() (over C,
    |a + bi| is read as |a| + |b|, GaussianInt's abs).  One rounding per
    entry, u = 2^-53, would be too tight: the generators that
    build_pingpong_tuple multiplies out need up to about 2e3 u for tol.
    """
    if field.is_padic:
        for index, entries in enumerate(stack):
            a, den = integral_form(entries)
            det, one = bareiss(a)[0], den ** len(a)
            if det != one:
                det = Fraction(det, one)
                # digit-truncated input may miss 1 by something beyond its precision
                slack = min(c.digits for row in entries for c in row)
                if valuation(det - 1, field) < slack:
                    return index, f"determinant is {det}, not 1"
        return None
    for index, (det, gate) in enumerate(_float_gates(stack)):
        if gate is None:
            return index, "matrix entries must be finite"
        if not abs(det - 1) <= gate:
            return index, f"determinant is {det:.12g}, not 1"
        if gate >= 1:
            # a gate this wide admits det = 0 and det = 2: the stored entries decide
            failure = _stored_det_failure(field, stack[index])
            if failure is not None:
                return index, failure
    return None


def _stored_det_failure(field: FieldSpec, entries: np.ndarray):
    """determinant_failure's exact arm: why the exact det d of the entries A
    fails, d = 0 or |d - 1| > tol sum_ij |a_ij| |adj(A)_ji|, or None.  It
    decides on integral_form's ints a = D A, as the Q_p gate does: d D^n is
    bareiss's det against D^n, the reach times D^n is
    tol sum_ij |a_ij| |adj(a)_ji|, and d is a Fraction only in the message."""
    tol, tol_den = relative_tolerance().as_integer_ratio()
    a, den = integral_form(entries)
    det, adj = bareiss(a)
    if not det:
        return "determinant is exactly 0, not 1"
    one = den ** len(a)
    reach = sum(abs(x) * abs(y) for row, col in zip(a, zip(*adj)) for x, y in zip(row, col))
    if abs(det - one) * tol_den > tol * reach:
        value = complex(Fraction(det.real, one), Fraction(det.imag, one))
        return f"determinant of the stored entries is {field.scalar(value):.12g}, not 1"
    return None


def _float_gates(stack: np.ndarray) -> list:
    """(det, gate) of each matrix of a (k, n, n) float or complex stack: its
    float det as a complex, from one stacked np.linalg.det, and the gate
    max(tol, max(1, s)^n n 8 eps) at entry scale s; the gate is None for a
    matrix with an entry that is not finite.

    A det-1 matrix stored at entry scale s cannot carry a float det closer to
    1 than ~s^n eps, so the gate widens with the scale; it still catches
    every actually-unnormalized input.  Each gate is a Python float
    expression, so s^n beyond the float range raises OverflowError, not a
    numpy warning, and makes the gate infinite: any det is in it.
    """
    n = stack.shape[-1]
    tol = relative_tolerance()
    eps = float(np.finfo(float).eps)
    gates = []
    for det, scale in zip(np.linalg.det(stack).tolist(), np.abs(stack).max(axis=(1, 2)).tolist()):
        gate = None
        if math.isfinite(scale):
            try:
                gate = max(tol, max(1.0, scale) ** n * n * 8 * eps)
            except OverflowError:
                gate = math.inf
        gates.append((complex(det), gate))
    return gates


def _dets(stack: np.ndarray) -> np.ndarray:
    """Determinant of each matrix of a (..., m, m) stack: numpy's for float
    and complex arrays, _eliminated_det of each p-adic one."""
    if stack.dtype != object:
        return np.linalg.det(stack)
    dets = [_eliminated_det(m.tolist()) for m in stack.reshape(-1, *stack.shape[-2:])]
    return np.array(dets, dtype=object).reshape(stack.shape[:-2])


def _eliminated_det(m: list) -> PadicScalar:
    """det of a square matrix given as rows of PadicScalars, with its digits:
    the signed product of the pivots of one forward elimination that pivots
    on the least valuation in each column, so that the fewest digits go.
    The elimination runs on m's rows in place."""
    n = len(m)
    field = m[0][0].field
    det = one = field.one()
    for t in range(n):
        pivot_row = min(range(t, n), key=lambda i: m[i][t].valuation)
        if not m[pivot_row][t]:
            return field.zero()
        if pivot_row != t:
            m[t], m[pivot_row] = m[pivot_row], m[t]
            det = -det
        det = det * m[t][t]
        inv = one / m[t][t]
        # a step on a zero entry would return the same value and digits: skip it
        m[t] = [x * inv if x else x for x in m[t]]
        for i in range(t + 1, n):
            if m[i][t]:
                f = m[i][t]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[t])]
    return det


def _adjugate(entries: np.ndarray) -> np.ndarray:
    """Adjugate of each matrix of a (..., n, n) stack."""
    n = entries.shape[-1]
    if n == 2:
        out = np.empty_like(entries)
        out[..., 0, 0], out[..., 1, 1] = entries[..., 1, 1], entries[..., 0, 0]
        out[..., 0, 1], out[..., 1, 0] = -entries[..., 0, 1], -entries[..., 1, 0]
        return out
    # keep[k] lists 0..n-1 without k; minors[..., i, j, :, :] drops row j and column i
    keep = np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])
    minors = entries[..., keep[None, :, :, None], keep[:, None, None, :]]
    out = _dets(minors)
    odd = np.add.outer(np.arange(n), np.arange(n)) % 2 == 1
    out[..., odd] = -out[..., odd]
    return out


def inverses(matrices) -> list:
    """The cached inverse of each SLMatrix of one field and size, every
    missing one from one _adjugate call: det = 1 makes it the inverse, for
    n = 2 exact however large the entries, and over Q_p with no pivot division."""
    matrices = tuple(matrices)
    missing = list(dict.fromkeys(g for g in matrices if g._inverse is None))
    if missing:
        adjugates = _adjugate(np.array([g.entries for g in missing]))
        adjugates.setflags(write=False)
        for g, entries in zip(missing, adjugates):
            g._inverse = SLMatrix._view(g.field, entries)
            g._inverse._inverse = g
    return [g._inverse for g in matrices]


def identity(field: FieldSpec, n: int) -> SLMatrix:
    return SLMatrix(field, [[int(i == j) for j in range(n)] for i in range(n)], check=False)


def diagonal(field: FieldSpec, diag) -> SLMatrix:
    diag = list(diag)
    n = len(diag)
    return SLMatrix(field, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class CartanTriple:
    """g = k * diag(a) * k_prime with |a_1| >= ... >= |a_n|."""

    k: SLMatrix
    a: tuple
    k_prime: SLMatrix

    @property
    def field(self) -> FieldSpec:
        return self.k.field

    @property
    def a_abs(self) -> tuple:
        return tuple(abs(x) for x in self.a)

    @property
    def ratio(self) -> float:
        """|a_2/a_1|, the contraction ratio; an exact power of p over Q_p."""
        return abs(self.a[1] / self.a[0])

    def reconstruct(self) -> SLMatrix:
        field = self.field
        n = self.k.n
        diag = SLMatrix(field, [[self.a[i] if i == j else 0 for j in range(n)]
                                for i in range(n)], check=False)
        return self.k @ diag @ self.k_prime

    def attracting_point(self) -> ProjPoint:
        """[k(e_1)], the image of the top singular direction."""
        return ProjPoint(self.field, self.k.entries[:, 0])

    def repulsive_hyperplane(self) -> ProjHyperplane:
        """[span of k'^(-1)(e_i), i >= 2], i.e. the kernel of the first row of k'."""
        return ProjHyperplane(self.field, self.k_prime.entries[0])


def _svd(stack: np.ndarray) -> tuple:
    # vectors computed: without them LAPACK rounds the singular values differently
    try:
        return np.linalg.svd(stack)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"singular value decomposition failed: {exc}") from exc


def _cartan_archimedean(g: SLMatrix) -> CartanTriple:
    u, s, vh = _svd(g.entries)
    u = u.astype(np.complex128)
    vh = vh.astype(np.complex128)
    # phase convention: first entry of largest magnitude in each of the
    # first n-1 columns of k is made positive real; the last column's phase
    # is pinned by det k = 1; k' absorbs every adjustment
    n = g.n
    for i in range(n - 1):
        col = u[:, i]
        lead = col[int(np.argmax(np.abs(col)))]
        phase = lead / abs(lead)
        u[:, i] /= phase
        vh[i, :] *= phase
    du = complex(np.linalg.det(u))
    du /= abs(du)
    u[:, -1] /= du
    vh[-1, :] *= du
    if g.field.kind is Kind.REAL:
        u = u.real
        vh = vh.real
    k = SLMatrix(g.field, u, check=False)
    k_prime = SLMatrix(g.field, vh, check=False)
    return CartanTriple(k, tuple(float(x) for x in s), k_prime)


def _check_digits(g: SLMatrix):
    """PrecisionExhaustedError unless every entry of the p-adic g carries at
    least n + 1 digits, the floor of the decomposition."""
    n = g.n
    worst = min(c.digits for row in g.entries for c in row)
    if worst < n + 1:
        raise PrecisionExhaustedError(
            f"matrix entries carry {worst} digits; decomposition in dimension {n} "
            f"needs at least {n + 1}")


def _cartan_padic(g: SLMatrix) -> CartanTriple:
    field = g.field
    n = g.n
    _check_digits(g)
    m = [list(row) for row in g.entries]
    k = [[field.scalar(int(i == j)) for j in range(n)] for i in range(n)]
    k2 = [[field.scalar(int(i == j)) for j in range(n)] for i in range(n)]

    def swap_rows(t, i):
        # M <- EM with signed swap E; k <- kE^(-1): (col t, col i) <- (col i, -col t)
        m[t], m[i] = m[i], [-x for x in m[t]]
        for r in range(n):
            k[r][t], k[r][i] = k[r][i], -k[r][t]

    def swap_cols(t, j):
        for r in range(n):
            m[r][t], m[r][j] = m[r][j], -m[r][t]
        k2[t], k2[j] = k2[j], [-x for x in k2[t]]

    for t in range(n):
        best = None
        for i in range(t, n):
            for j in range(t, n):
                v = m[i][j].valuation
                if best is None or v < best[0]:
                    best = (v, i, j)
        if best[0] == math.inf:
            raise DecompositionError("matrix is singular to working precision")
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        pivot = m[t][t]
        for i in range(t + 1, n):
            if m[i][t]:
                f = m[i][t] / pivot
                m[i] = [a - f * b for a, b in zip(m[i], m[t])]
                for r in range(n):
                    k[r][t] = k[r][t] + f * k[r][i]
        for j in range(t + 1, n):
            if m[t][j]:
                f = m[t][j] / pivot
                for i in range(t, n):
                    m[i][j] = m[i][j] - f * m[i][t]
                k2[t] = [a + f * b for a, b in zip(k2[t], k2[j])]

    # pull unit parts of the diagonal into k', leaving exact powers of p
    a = [field.scalar(Fraction(field.prime) ** m[t][t].valuation) for t in range(n)]
    for t in range(n):
        unit = m[t][t] / a[t]
        k2[t] = [unit * x for x in k2[t]]
    return CartanTriple(SLMatrix(field, k, check=False), tuple(a),
                        SLMatrix(field, k2, check=False))


def cartan_decompose(g: SLMatrix) -> CartanTriple:
    """Decompose g = k * diag(a) * k' with the module's conventions."""
    if g._cartan is None:
        if g.field.is_padic:
            g._cartan = _cartan_padic(g)
        else:
            g._cartan = _cartan_archimedean(g)
    return g._cartan


def exterior_power(g: SLMatrix, i: int) -> SLMatrix:
    """Matrix of wedge^i g on the lex-ordered basis of i-subsets."""
    n = g.n
    if not 1 <= i <= n - 1:
        raise DomainError(f"exterior power index must be in [1, {n - 1}], got {i}")
    # minors[s, t] keeps the rows of the s-th subset and the columns of the t-th
    subsets = np.array(list(itertools.combinations(range(n), i)))
    minors = g.entries[subsets[:, None, :, None], subsets[None, :, None, :]]
    return SLMatrix(g.field, _dets(minors), check=False)


def bilip_constant(g: SLMatrix) -> float:
    """|a_1/a_n|^2, a Lipschitz constant for [g] and [g^(-1)] on all of
    P^(n-1): bilip_constants of g alone."""
    return bilip_constants((g,))[0]


def bilip_constants(matrices) -> list:
    """|a_1/a_n|^2 of each SLMatrix of one field and size, with no Cartan
    decomposition: (||g|| ||g^(-1)||)^2, as |a_1| = ||g||, 1/|a_n| = ||g^(-1)||.

    Over R and C one SVD of the stack gives the singular values, and each
    ratio is squared as a Python float, as the decomposition's are.  Over Q_p
    k and k' lie in GL_n(Z_p) and keep the sup norm, so the constant is
    p^(-2 (min v(g_ij) + min v((g^(-1))_ij))), read off g and its cached
    inverse: the Smith form's exponent 2 (v(a_n) - v(a_1)), so the same
    float.  One pass over the stack reads each element's digits, for the
    decomposition's floor, and its valuations, and a second its inverse's.
    One inverses call fills the inverses of the elements before the first
    that fails the floor, so the error raised is the one a loop over the
    elements, floor then inverse, would raise first.
    """
    matrices = tuple(matrices)
    if not matrices:
        return []
    if not matrices[0].field.is_padic:
        s = _svd(np.array([g.entries for g in matrices]))[1]
        return [(a / b) ** 2 for a, b in zip(s[:, 0].tolist(), s[:, -1].tolist())]
    fewest, tops = _digits_and_tops(matrices)
    short = [i for i, d in enumerate(fewest) if d < matrices[0].n + 1]
    inverses(matrices[:short[0]] if short else matrices)
    if short:
        _check_digits(matrices[short[0]])  # raises the floor's error
    _, inverse_tops = _digits_and_tops([g._inverse for g in matrices])
    p = matrices[0].field.prime
    return [magnitude(p, 2 * (a + b)) for a, b in zip(tops, inverse_tops)]


def _digits_and_tops(matrices) -> tuple:
    """Per p-adic SLMatrix, the fewest digits and the least valuation of an
    entry, as int lists, from one pass over the entries of the stack."""
    scalars = [c for g in matrices for c in g.entries.flat]
    digits = np.array([c.digits for c in scalars]).reshape(len(matrices), -1).min(1)
    # a zero's valuation is inf, and a det-1 matrix has a nonzero entry
    vals = np.array([c.valuation for c in scalars], dtype=float).reshape(len(matrices), -1)
    return digits.tolist(), [int(v) for v in vals.min(1).tolist()]


def operator_norm(g: SLMatrix) -> float:
    return g.cartan().a_abs[0]


def wedge_operator_norm(g: SLMatrix) -> float:
    """||wedge^2 g|| = |a_1 a_2|."""
    a = g.cartan().a_abs
    return a[0] * a[1]


def _check_space(g: SLMatrix, X):
    if X.field != g.field or len(X) != g.n:
        raise DomainError(f"{type(X).__name__} does not match the matrix")


def apply_point(g: SLMatrix, P: ProjPoint) -> ProjPoint:
    """[g(v)]."""
    _check_space(g, P)
    return ProjPoint(g.field, matmul(g.entries, P.rep))


def apply_hyperplane(g: SLMatrix, H: ProjHyperplane) -> ProjHyperplane:
    """[g(ker f)] = [ker f o g^(-1)]."""
    _check_space(g, H)
    return ProjHyperplane(g.field, matmul(H.form, g.inverse().entries))
