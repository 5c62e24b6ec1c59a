"""Constructing and verifying ping-pong tuples.

The three manufacturing steps turn an epsilon-contracting element and a
separating set F into proximal, very contracting, and very proximal
elements, with certificate parameters given by exact formulas in (r, C,
epsilon).  build_pingpong_tuple runs the inductive construction x_1 =
gamma a_1 h_1, x_i = g_i gamma a_i h_i, selecting h_i, g_i in F by explicit
distance conditions against the previously built transformations.  A
condition is data, (text, side, points, hyperplanes), met by f when every
d([f^side v], H) > r; _first scores it with one hyperplane_distances call.
A valid certificate implies the x_i freely generate F_m; freeness_falsifier
is the independent brute-force check of that conclusion.  It decides one
word length at a time on the stacks of separation.word_layers, for the
stored matrices: _letters gives each letter's exact value, bareiss's ints
over the common denominator of the entries, GaussianInts over C.  Over Q_p
the int letters build the words, which are tested exactly, so no digit
count can stop the search.  Over R and C the float words are decided by a
rigorous componentwise bound on the rounding of each product, with an exact
recheck of the first word the bound leaves open.  When that word is not
exactly scalar, UndecidedError says how far the search was decided.
"""

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartan import (SLMatrix, apply_hyperplane, apply_point, bareiss, bilip_constant,
                     bilip_constants, integral_form)
from .contraction import (
    ContractionCert,
    ProximalCert,
    cartan_cert,
    contraction_coefficient,
    contraction_data,
)
from .errors import (ConstructionError, DomainError, NoSeparatorError, PreconditionError,
                     UndecidedError)
from .fields import Kind, relative_tolerance
# dist_to_hyperplane is unused here; perfbench/test_oracle.py reads it as pingpong.pingpong's
from .projective import ProjPoint, _pairs, dist_to_hyperplane, hyperplane_distances  # noqa: F401
from .sampling import probe_offset
from .separation import _GROW_ROWS, SeparatingSet, letter_stack, word_layers

__all__ = [
    "PingPongCert",
    "ProximalElement",
    "VeryContractingElement",
    "Word",
    "build_pingpong_tuple",
    "certify_free_generators",
    "freeness_falsifier",
    "make_proximal",
    "make_very_contracting",
    "make_very_proximal",
    "separation_table",
    "tighten_very_contracting",
    "verify_pingpong",
]

_PROBE_ATTEMPTS = 32


@dataclass(frozen=True)
class ProximalElement:
    """A transformation together with its proximality certificate."""

    matrix: SLMatrix
    cert: ProximalCert


@dataclass(frozen=True)
class VeryContractingElement:
    """A transformation contracting in both directions, with one
    certificate per direction (common epsilon)."""

    matrix: SLMatrix
    forward: ContractionCert
    backward: ContractionCert

    @property
    def epsilon(self) -> float:
        return max(self.forward.epsilon, self.backward.epsilon)


@dataclass(frozen=True)
class Word:
    """Reduced word in the generators: letters are (index, +-1)."""

    letters: tuple

    def __post_init__(self):
        letters = tuple((int(i), int(e)) for i, e in self.letters)
        object.__setattr__(self, "letters", letters)
        if not letters:
            raise ConstructionError("a word needs at least one letter")
        for i, e in letters:
            if e not in (1, -1) or i < 0:
                raise ConstructionError(f"bad letter ({i}, {e})")
        for (i, e), (j, f) in zip(letters, letters[1:]):
            if i == j and e == -f:
                raise ConstructionError("word is not reduced")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(f"g{i}" if e == 1 else f"g{i}^-1" for i, e in self.letters)


@dataclass(frozen=True)
class PingPongCert:
    """m generators with very-proximal certificates at common parameters
    (r, epsilon) and the recorded cross-separation distances.

    Validity of the distances is checked by verify_pingpong, not at
    construction, so that refutable certificates can exist as data.
    """

    generators: tuple
    certificates: tuple
    r: float
    epsilon: float
    separations: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "certificates", tuple(self.certificates))
        object.__setattr__(self, "separations", tuple(self.separations))
        if not self.generators:
            raise ConstructionError("a ping-pong tuple needs at least one generator")
        if len(self.generators) != len(self.certificates):
            raise ConstructionError("one certificate per generator is required")
        if not self.r > 2 * self.epsilon > 0:
            raise ConstructionError(
                f"parameters must satisfy r > 2 epsilon > 0, got r = {self.r}, "
                f"epsilon = {self.epsilon}")

    @property
    def m(self) -> int:
        return len(self.generators)


def _check_field(g: SLMatrix, F: SeparatingSet):
    if F.elements and (g.field != F.elements[0].field or g.n != F.elements[0].n):
        raise DomainError("element and separating set live over different spaces")


def make_proximal(g: SLMatrix, cert: ContractionCert, F: SeparatingSet) -> ProximalElement:
    """First f in F with d([f] v_g, H_g) > r turns g into the (r, C epsilon)-
    proximal element f g."""
    _check_field(g, F)
    if not cert.epsilon < F.r / (2 * F.C):
        raise PreconditionError(
            f"need epsilon < r/(2C) = {F.r / (2 * F.C)}, got {cert.epsilon}")
    f = _select(F, "f", [("d([f] v, H) > r for the flags of g", 1, [cert.attracting],
                          [cert.repelling])])
    matrix = f @ g
    forward = ContractionCert(F.C * cert.epsilon, apply_point(f, cert.attracting),
                              cert.repelling, matrix.cartan().ratio)
    return ProximalElement(matrix, ProximalCert(F.r, F.C * cert.epsilon, forward, None))


def make_very_contracting(g: SLMatrix, cert: ContractionCert, F: SeparatingSet,
                          seed: int = 0) -> VeryContractingElement:
    """g f g^-1 for the first f in F clearing both probe conditions.

    The probe point u is the attracting point of g^-1 moved by
    probe_offset(seed + attempt), retried when no f qualifies.  Both output
    certificates carry epsilon' = sqrt(2Cd) epsilon / r with the conjugate's
    own Cartan flags.
    """
    _check_field(g, F)
    d_const = float(g.field.d)
    if not cert.epsilon < F.r / math.sqrt(2 * F.C * d_const):
        raise PreconditionError(
            f"need epsilon < r/sqrt(2Cd) = {F.r / math.sqrt(2 * F.C * d_const)}, "
            f"got {cert.epsilon}")
    eps_out = math.sqrt(2 * F.C * d_const) * cert.epsilon / F.r
    ginv = g.inverse()
    anchor = ginv.cartan().attracting_point()
    for attempt in range(_PROBE_ATTEMPTS):
        probe = ProjPoint(g.field, anchor.rep + probe_offset(g.field, g.n, seed + attempt))
        pulled = [apply_point(ginv, probe)]
        f, _ = _first(F, (("d([f] u, H) > r", 1, pulled, [cert.repelling]),
                          ("d([f^-1] u, H) > r", -1, pulled, [cert.repelling])))
        if f is not None:
            matrix = g @ f @ ginv
            return VeryContractingElement(matrix, cartan_cert(matrix, eps_out),
                                          cartan_cert(matrix.inverse(), eps_out))
    raise NoSeparatorError(
        f"no f in F cleared both probe conditions after {_PROBE_ATTEMPTS} probes")


def make_very_proximal(g: SLMatrix, forward: ContractionCert,
                       backward: ContractionCert, F: SeparatingSet) -> ProximalElement:
    """g f for the first f in F moving both flags: the result is
    (r/C, C epsilon)-very proximal."""
    _check_field(g, F)
    eps = max(forward.epsilon, backward.epsilon)
    if not eps < F.r / (2 * F.C ** 2):
        raise PreconditionError(
            f"need epsilon < r/(2C^2) = {F.r / (2 * F.C ** 2)}, got {eps}")
    f = _select(F, "f", (
        ("d([f] v, H) > r for the forward flags of g",
         1, [forward.attracting], [forward.repelling]),
        ("d([f^-1] v', H') > r for the backward flags of g",
         -1, [backward.attracting], [backward.repelling]),
    ))
    matrix = g @ f
    fwd = ContractionCert(F.C * eps, forward.attracting,
                          apply_hyperplane(f.inverse(), forward.repelling),
                          matrix.cartan().ratio)
    bwd = ContractionCert(F.C * eps, apply_point(f.inverse(), backward.attracting),
                          backward.repelling, matrix.inverse().cartan().ratio)
    return ProximalElement(matrix, ProximalCert(F.r / F.C, F.C * eps, fwd, bwd))


def tighten_very_contracting(element: VeryContractingElement) -> VeryContractingElement:
    """Replace the declared epsilon by the element's own contraction
    coefficient when that is smaller, keeping own-Cartan flags.

    The formula epsilon of the manufacturing step is often far above what
    the constructed matrix actually achieves; downstream preconditions only
    get easier with the smaller value.
    """
    own = max(contraction_coefficient(element.matrix),
              contraction_coefficient(element.matrix.inverse()))
    if own >= min(0.25, element.epsilon):
        return element
    return VeryContractingElement(element.matrix, cartan_cert(element.matrix, own),
                                  cartan_cert(element.matrix.inverse(), own))


def _flag_table(certificates) -> np.ndarray:
    """d(v_a, H_b) for the 2m attracting points v_a and repelling
    hyperplanes H_b of the certificates, one hyperplane_distances call; side
    2i is x_i's forward side and 2i + 1 its backward side."""
    sides = [side for pc in certificates for side in (pc.forward, pc.backward)]
    return hyperplane_distances(sides[0].attracting.field,
                                np.stack([side.attracting.rep for side in sides]),
                                np.stack([side.repelling.form for side in sides]))


def separation_table(certificates) -> tuple:
    """Cross distances ((i, si), (j, sj), d) between attracting points of
    x_i^(si) and repulsive hyperplanes of x_j^(sj), ordered pairs i != j."""
    if not certificates:
        return ()
    table = _flag_table(certificates)
    m = len(certificates)
    return tuple(((i, si), (j, sj), float(table[2 * i + (1 - si) // 2, 2 * j + (1 - sj) // 2]))
                 for i in range(m) for j in range(m) if i != j
                 for si in (1, -1) for sj in (1, -1))


def build_pingpong_tuple(a, F: SeparatingSet, gamma: VeryContractingElement) -> PingPongCert:
    """Inductive assembly of the m-tuple x_1 = gamma a_1 h_1,
    x_i = g_i gamma a_i h_i with h_i, g_i selected from F.

    All certificates are issued at the common parameters (r/c, c^3 epsilon),
    c the largest bi-Lipschitz constant over the a_i and F.
    """
    a = tuple(a)
    if not a:
        raise DomainError("need at least one base element")
    for ai in a:
        _check_field(ai, F)
    c = max([F.C] + bilip_constants(a))
    eps = gamma.epsilon
    if not eps < F.r / (2 * c ** 4):
        raise PreconditionError(
            f"need epsilon < r/(2c^4) = {F.r / (2 * c ** 4)} with c = {c}, got {eps}")
    gamma_c = bilip_constant(gamma.matrix)
    if gamma_c > c * (1 + 1e-12):
        warnings.warn(
            "the very contracting element's bi-Lipschitz constant "
            f"{gamma_c} exceeds c = {c}; the constant c "
            "only ranges over the base elements and F", UserWarning)
    r_bar = F.r / c
    eps_bar = c ** 3 * eps

    generators = []
    certificates = []

    def record(matrix, fwd_attr, fwd_rep, bwd_attr, bwd_rep):
        fwd = ContractionCert(eps_bar, fwd_attr, fwd_rep, matrix.cartan().ratio)
        bwd = ContractionCert(eps_bar, bwd_attr, bwd_rep, matrix.inverse().cartan().ratio)
        generators.append(matrix)
        certificates.append(ProximalCert(r_bar, eps_bar, fwd, bwd))

    for i, ai in enumerate(a):
        b = gamma.matrix @ ai
        ai_inv = ai.inverse()
        v_b = gamma.forward.attracting
        H_b = apply_hyperplane(ai_inv, gamma.forward.repelling)
        v_binv = apply_point(ai_inv, gamma.backward.attracting)
        H_binv = gamma.backward.repelling
        prev_reps = [side.repelling for pc in certificates
                     for side in (pc.forward, pc.backward)]
        prev_attrs = [side.attracting for pc in certificates
                      for side in (pc.forward, pc.backward)]

        if i == 0:
            h = _select(F, "h_1", (
                ("d([h] v, H) > r for the attracting data of gamma a_1", 1, [v_b], [H_b]),
                ("d([h^-1] v', H') > r for the attracting data of (gamma a_1)^-1",
                 -1, [v_binv], [H_binv]),
            ))
            record(b @ h, v_b, apply_hyperplane(h.inverse(), H_b),
                   apply_point(h.inverse(), v_binv), H_binv)
            continue

        h = _select(F, f"h_{i + 1}", (
            ("h^-1 maps the attracting point of (gamma a_i)^-1 at distance > r "
             "from the repulsive hyperplanes of the previous x_j", -1, [v_binv], prev_reps),
            ("h maps the previous attracting points at distance > r from the "
             "repulsive hyperplane of gamma a_i", 1, prev_attrs, [H_b]),
        ))
        bh = b @ h
        H_bh = apply_hyperplane(h.inverse(), H_b)
        v_bhinv = apply_point(h.inverse(), v_binv)
        g_i = _select(F, f"g_{i + 1}", (
            ("g maps the attracting point of gamma a_i h_i at distance > r from "
             "the previous repulsive hyperplanes and from its own", 1, [v_b], prev_reps + [H_bh]),
            ("g^-1 maps the previous attracting points at distance > r from the "
             "repulsive hyperplane of (gamma a_i h_i)^-1", -1, prev_attrs, [H_binv]),
            ("g^-1 maps the attracting point of (gamma a_i h_i)^-1 at distance "
             "> r from the repulsive hyperplane of (gamma a_i h_i)^-1", -1, [v_bhinv], [H_binv]),
        ))
        record(g_i @ bh, apply_point(g_i, v_b), H_bh,
               v_bhinv, apply_hyperplane(g_i, H_binv))

    return PingPongCert(tuple(generators), tuple(certificates), r_bar, eps_bar,
                        separation_table(certificates))


def certify_free_generators(a, F: SeparatingSet, gamma0: SLMatrix,
                            seed: int = 0) -> PingPongCert:
    """Full pipeline: certify gamma0 as contracting, conjugate it into a very
    contracting element, tighten, and run the tuple construction over a."""
    cert0 = contraction_data(gamma0)
    vc = make_very_contracting(gamma0, cert0, F, seed=seed)
    vc = tighten_very_contracting(vc)
    return build_pingpong_tuple(a, F, vc)


def _first(F: SeparatingSet, conditions) -> tuple:
    """The first f in F meeting every condition at r = F.r, or None, and per
    condition the number of rejected candidates that failed it first.  The scan stops
    at the first success, and over Q_p its small calls take the PadicScalar
    route of projective: the 40 _first calls of certify-free --build on the Q_5
    fixture sep_q5.json (seeds 0-9) take 5.9-10.0 ms, and 15.8-29.3 ms scoring
    all of F in one stacked call per condition (timeit, best of 5 in each of
    4 processes)."""
    rows = [(side, np.stack([P.rep for P in points]), np.stack([H.form for H in hyperplanes]))
            for _, side, points, hyperplanes in conditions]
    failures = [0] * len(conditions)
    for f in F.elements:
        for idx, (side, points, forms) in enumerate(rows):
            g = f if side == 1 else f.inverse()
            if not (hyperplane_distances(f.field, points, forms, g.entries) > F.r).all():
                failures[idx] += 1
                break
        else:
            return f, failures
    return None, failures


def _select(F: SeparatingSet, name: str, conditions):
    """_first's f, or NoSeparatorError saying which condition eliminated how many."""
    f, failures = _first(F, conditions)
    if f is not None:
        return f
    detail = "; ".join(f"{fails} candidates failed: {condition[0]}"
                       for condition, fails in zip(conditions, failures) if fails)
    raise NoSeparatorError(f"selection of {name} failed "
                           f"({detail or 'the candidate set is empty'})")


def verify_pingpong(cert: PingPongCert) -> bool:
    """Re-check the stored flags: every entry of the certificates' flag table
    but x_i's point against x_i^-1's hyperplane and back.  The generators are
    not read.  Archimedean distances must clear r by relative_tolerance();
    p-adic ones are exact powers of p, compared with r with only a 1e-12
    relative allowance for the float arithmetic that produced r.
    """
    if any(pc.backward is None for pc in cert.certificates):
        return False
    if cert.generators[0].field.is_padic:
        threshold = cert.r * (1 - 1e-12)
    else:
        threshold = cert.r + relative_tolerance()
    generator = np.arange(2 * cert.m) // 2
    checked = (generator[:, None] != generator) | np.eye(2 * cert.m, dtype=bool)
    return not (_flag_table(cert.certificates)[checked] < threshold).any()


_U = 2.0 ** -53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1 - k * _U)


def _up(q: Fraction) -> float:
    """The least float >= q."""
    x = float(q)
    return x if Fraction(x) >= q else math.nextafter(x, math.inf)


@functools.lru_cache
def _off_diagonal(n: int) -> tuple:
    # (rows, cols) of the off-diagonal entries of an n x n matrix; cached, as
    # projective._pairs is, since np.nonzero(~np.eye(n)) costs a layer's test
    return np.nonzero(~np.eye(n, dtype=bool))


def _scalar_words(stack: np.ndarray) -> np.ndarray:
    """Mask of the exactly scalar matrices of an object stack (N, n, n)."""
    n = stack.shape[1]
    diagonal = stack[:, range(n), range(n)]
    rows, cols = _off_diagonal(n)
    return (~stack[:, rows, cols].astype(bool).any(axis=1)
            & (diagonal == diagonal[:, :1]).all(axis=1))


def _magnitudes(letters: np.ndarray, exact: list, dens: list) -> tuple:
    """(M, rho) for the float letters X^ and the exact letters X, the int
    letters of _letters over their scales: within a factor 1/(1 - 2u) from
    the complex modulus, |X^| <= M, |X| <= M and |X^ - X| <= rho M.  Only an
    inverse letter for n >= 3 has rho > 0: the float adjugate of n = 2 only
    moves entries.  The inverse letter of generator g is adj(D g) over
    D^(n - 1), D its denominator in dens."""
    mags = np.abs(letters)
    n = letters.shape[-1]
    if n == 2:
        return mags, 0.0
    rho = Fraction(0)
    for k in range(1, len(letters), 2):
        scale = dens[k // 2] ** (n - 1)
        for i, (row, ints) in enumerate(zip(letters[k].tolist(), exact[k].tolist())):
            for j, (z, x) in enumerate(zip(row, ints)):
                # |re| + |im| of the gap, at least its modulus; a real one has im 0
                error = (abs(Fraction(z.real) - Fraction(x.real, scale))
                         + abs(Fraction(z.imag) - Fraction(x.imag, scale)))
                bound = _up(Fraction(float(mags[k, i, j])) + error)
                mags[k, i, j] = bound
                if error:
                    rho = max(rho, error / Fraction(bound))
    return mags, _up(rho)


def _first_open(layer, c: float, eta: float):
    """Index of the first word of a layer not proven non-scalar, None when
    every word is.  A word is proven when an off-diagonal entry, or the
    difference of two diagonal entries, exceeds c |A_1|...|A_L| + eta, the
    bound on its rounding error; a non-finite entry or bound decides nothing.
    The layer is tested in blocks of _GROW_ROWS words, in order, up to the
    first block that holds an open word."""
    n = layer.products.shape[-1]
    rows, cols = _off_diagonal(n)
    i, j = _pairs(n)
    for start in range(0, len(layer.products), _GROW_ROWS):
        products = layer.products[start:start + _GROW_ROWS]
        with np.errstate(all="ignore"):
            bound = c * layer.magnitudes[start:start + _GROW_ROWS] + eta
            proven = (np.abs(products[:, rows, cols]) > bound[:, rows, cols]).any(axis=1)
            gaps = np.abs(products[:, i, i] - products[:, j, j])
            proven |= (gaps > bound[:, i, i] + bound[:, j, j]).any(axis=1)
            proven &= np.isfinite(products).all(axis=(1, 2)) & np.isfinite(bound).all(axis=(1, 2))
        open_words = np.flatnonzero(~proven)
        if open_words.size:
            return start + int(open_words[0])
    return None


def _letters(gens) -> tuple:
    """(letters, dens): the exact letters of gens, in letter_stack's order
    D g and adj(D g) = det(D g) (D g)^-1 (a projective inverse), as object
    arrays of integral_form's ints, GaussianInts over C, and each
    generator's D.  A positive multiple keeps a word scalar or not."""
    letters, dens = [], []
    for i, g in enumerate(gens):
        x, den = integral_form(g.entries)
        det, adj = bareiss(x)
        if not det:
            raise DomainError(f"generator {i} is exactly singular")
        letters += [np.array(x, dtype=object), np.array(adj, dtype=object)]
        dens.append(den)
    return letters, dens


def freeness_falsifier(gens, max_len: int):
    """First reduced word of length at most max_len that acts as the
    projective identity; None when every such word is proven to act
    nontrivially.

    Words come from word_layers, length by length with letters ordered
    (0,+1) < (0,-1) < (1,+1) < ..., so the returned word is the first
    counterexample in length-then-lexicographic order.  The exact letters
    are the stored values of the generators, with exact adjugates as
    inverses, as ints over their common denominator (_letters), GaussianInts
    over C.  Over Q_p the words are products of the int letters, and each
    layer is tested exactly.  Over R and C a word is proven nontrivial when
    its float product is off scalar by more than the componentwise error
    bound of the product (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 3.5-3.6); the first word of a layer that
    is not proven is rechecked as the exact product of its int letters.  If
    it is not exactly scalar either, UndecidedError reports decided_len =
    L - 1, as it does when the next layer would exceed the word budget.
    """
    if max_len < 1:
        raise DomainError(f"need max_len >= 1, got {max_len}")
    gens = tuple(gens)
    if not gens:
        raise DomainError("need at least one generator")
    fld, n = gens[0].field, gens[0].n
    tested, dens = _letters(gens)
    if fld.is_padic:
        for layer in word_layers(np.array(tested), max_len):
            hits = np.flatnonzero(_scalar_words(layer.products))
            if hits.size:
                return Word(layer.letters(int(hits[0])))
        return None
    letters = letter_stack(gens)
    mags, rho = _magnitudes(letters, tested, dens)
    width = n + 2 if fld.kind is Kind.COMPLEX else n  # Higham's complex inner products: gamma_(n+2)
    spread = max(1.0, float(mags.sum(axis=-1).max()))
    for layer in word_layers(letters, max_len, mags):
        length = layer.length
        # rounding of the product (gamma), of the inverse letters (rho), and
        # a 1 + gamma allowance for the float magnitudes, the complex moduli
        # and this test's own arithmetic; eta bounds what underflow can lose
        c = ((_gamma((length - 1) * width) + length * rho)
             * (1 + _gamma(2 * length + 2 * (length - 1) * n + 23)))
        with np.errstate(over="ignore"):
            eta = float(math.ldexp(16 * n * (length + 1), -1074) * np.float64(spread) ** length)
        first = _first_open(layer, c, eta)
        if first is None:
            continue
        word = Word(layer.letters(first))
        product = functools.reduce(operator.matmul,
                                   [tested[2 * i + (1 - e) // 2] for i, e in word.letters])
        if _scalar_words(product[None])[0]:
            return word
        raise UndecidedError(
            f"cannot decide past length {length - 1}: {word} is not proven "
            "nontrivial in floating point, and its dyadic product is not scalar",
            length - 1, word)
    return None
