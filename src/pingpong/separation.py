"""Separating sets over projective space.

A finite set F of projective transformations is (m, r)-separating when for
any choice of at most 2m points and 2m hyperplanes some gamma in F moves, in
both directions, every point to distance > r from every hyperplane.  A
Configuration holds its points and the forms of its hyperplanes as field
arrays of canonical rows.  The exact per-configuration MaxMin oracle is
best_separator: one projective.hyperplane_distances call scores every
element and its inverse at once, for every field.  estimate_radius
Monte-Carlo-samples configurations, alternating purely random ones with
adversarial ones whose hyperplanes pass through orbit points, and reports
in one pass the worst margin seen and how often each element was the best
separator.  The global infimum r exists by compactness but is never
computed; downstream constructions only ever query concrete
configurations.  word_layers is the one reduced-word enumerator: a BFS that
builds each word length as one (N, n, n) stack of products, keeping per
length only the parent index and last letter of each word.  The falsifier
reads its stacks; reduced_words, for the greedy candidate pool, is a
per-word view of it.
"""

import math
import warnings
import random as random_
from dataclasses import dataclass, field as derived_field

import numpy as np

from .cartan import SLMatrix, bilip_constant
from .errors import ConstructionError, DomainError, UndecidedError
from .fields import Kind
from .projective import _norms, as_field_array, canonical_rows, hyperplane_distances
from .sampling import padic_unit_coords

__all__ = [
    "Configuration",
    "NotSeparatingWarning",
    "RadiusEstimate",
    "SeparatingSet",
    "WordLayer",
    "best_separator",
    "estimate_radius",
    "greedy_separating_set",
    "letter_stack",
    "reduced_words",
    "sample_configuration",
    "verify_separating_for",
    "word_layers",
]

# margins this small on archimedean samples are roundoff residue of an
# exact incidence, not genuine separation
_ZERO_MARGIN = 1e-12


class NotSeparatingWarning(UserWarning):
    """Sampled configuration that no element of the candidate set separates."""


@dataclass(frozen=True)
class SeparatingSet:
    """Candidate set with declared margin r and derived bi-Lipschitz bound C."""

    elements: tuple
    m: int
    r: float
    C: float = derived_field(init=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ConstructionError(f"m must be a positive integer, got {self.m!r}")
        if not self.r > 0:
            raise ConstructionError(f"separation radius must be positive, got {self.r}")
        for g in elements[1:]:
            if g.field != elements[0].field or g.n != elements[0].n:
                raise ConstructionError("all separating-set elements must share one field and size")
        object.__setattr__(
            self, "C", max((bilip_constant(g) for g in elements), default=1.0))


@dataclass(frozen=True)
class Configuration:
    """Points and hyperplanes of P^(n-1) as field arrays: points (P, n) holds
    canonical representatives (projective.canonical_rows), forms (H, n) the
    canonical forms whose kernels are the hyperplanes."""

    points: np.ndarray
    forms: np.ndarray


def _inverse_pairs(elements: tuple[SLMatrix, ...]) -> np.ndarray:
    """(E, 2, n, n) stack of the entries of each element and of its inverse."""
    return np.array([(g.entries, g.inverse().entries) for g in elements])


def _best(field, pairs, cfg: Configuration) -> tuple:
    """(index, margin) of the first element of the stack with the largest
    margin: the min over points v and forms f of d(g v, ker f) and
    d(g^-1 v, ker f), +inf for an empty configuration."""
    # points @ g^T for every g at once, rounded as for one g alone
    images = cfg.points @ pairs.swapaxes(-1, -2)
    distances = hyperplane_distances(field, images, cfg.forms)
    margins = distances.min(axis=(1, 2, 3), initial=math.inf)
    best = int(np.argmax(margins))
    return best, float(margins[best])


def best_separator(F: SeparatingSet, cfg: Configuration):
    """The element of F with the largest configuration margin, and that margin.

    Ties are broken by list order.  The margin is the min over all points v,
    hyperplanes H of the configuration of d(gamma v, H) and d(gamma^-1 v, H);
    an empty configuration has margin +inf vacuously.
    """
    if not F.elements:
        raise DomainError("cannot separate with an empty candidate set")
    if len(cfg.points) > 2 * F.m or len(cfg.forms) > 2 * F.m:
        raise DomainError(
            f"configuration exceeds the 2m = {2 * F.m} size bound: "
            f"{len(cfg.points)} points, {len(cfg.forms)} hyperplanes")
    best, margin = _best(F.elements[0].field, _inverse_pairs(F.elements), cfg)
    return F.elements[best], margin


def verify_separating_for(F: SeparatingSet, cfg: Configuration) -> bool:
    """True iff some element beats the declared radius on this configuration.

    The inequality is strict: a boundary margin equal to F.r fails.
    """
    _, margin = best_separator(F, cfg)
    return margin > F.r


def _deflate(field, u, w, vanishing: float):
    """The form w with its pivot coordinate corrected so that it vanishes on
    u exactly; if at most `vanishing` of w's norm is left, the form
    e_k1 - (u_k1 / u_k0) e_k0 instead."""
    k0 = int(np.argmax(np.abs(u)))
    f = w.copy()
    f[k0] -= (w @ u) / u[k0]
    if _norms(field, f) <= vanishing * _norms(field, w):
        k1 = (k0 + 1) % len(u)
        f = np.full_like(w, field.zero())
        f[k1] = field.one()
        f[k0] = -u[k1] / u[k0]
    return f


def sample_configuration(elements, m: int, trial: int, seed: int) -> Configuration:
    """Deterministic configuration for one Monte-Carlo trial.

    Even trials draw 2m random points and 2m random hyperplanes.  Odd trials
    are adversarial: the hyperplanes are constructed to pass exactly through
    the images of the sampled points under one candidate, cycled round-robin
    over the candidate list, so that candidate is pinned to margin 0.
    """
    elements = tuple(elements)
    if not elements:
        raise DomainError("configuration sampling needs at least one candidate element")
    fld = elements[0].field
    n = elements[0].n
    if fld.is_padic:
        rng = random_.Random(seed + trial)
        rows = as_field_array(fld, [padic_unit_coords(rng, fld, n) for _ in range(4 * m)], 2)
        rows = rows.reshape(2, 2 * m, n)
        vanishing = 0.0  # exact arithmetic: only a zero form is degenerate
    else:
        rng = np.random.default_rng(seed + trial)
        rows = rng.normal(size=(2, 2 * m, n))
        if fld.kind is Kind.COMPLEX:
            rows = rows + 1j * rng.normal(size=rows.shape)
        vanishing = 1e-9
    points, forms = canonical_rows(fld, rows[0]), rows[1]
    if trial % 2 == 1:
        adversary = elements[(trial // 2) % len(elements)]
        # stacked matrix-vector products: the bits of apply_point
        images = canonical_rows(fld, (adversary.entries @ points[..., None])[..., 0])
        forms = np.array([_deflate(fld, u, w, vanishing) for u, w in zip(images, forms)])
    return Configuration(points, canonical_rows(fld, forms))


@dataclass(frozen=True)
class RadiusEstimate:
    """Monte-Carlo separation radius r and, per element, the number of
    trials in which it was the best separator."""

    r: float
    wins: tuple


def estimate_radius(elements, m: int, trials: int, seed: int) -> RadiusEstimate:
    """Worst best_separator margin over sampled configurations, and the wins
    of each element, from one pass over every trial.

    r is an upper estimate of the true separation radius, reported as
    estimated rather than certified.  Each trial credits the first element
    with the largest margin, the tie rule of best_separator.  Every trial is
    scanned, even after one defeats every candidate; then r is 0.0 and
    NotSeparatingWarning is emitted once, sampled evidence that the set is
    not separating at this m.
    """
    elements = tuple(elements)
    if not elements:
        raise DomainError("cannot estimate a separation radius for an empty set")
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    if m < 1:
        raise DomainError(f"m must be positive, got {m}")
    fld = elements[0].field
    zero_tol = 0.0 if fld.is_padic else _ZERO_MARGIN
    pairs = _inverse_pairs(elements)
    worst = math.inf
    wins = [0] * len(elements)
    for t in range(trials):
        best, margin = _best(fld, pairs, sample_configuration(elements, m, t, seed))
        wins[best] += 1
        worst = min(worst, margin)
    if worst <= zero_tol:
        warnings.warn(
            "a sampled configuration defeats every candidate; "
            "the set is not separating for this m", NotSeparatingWarning)
        worst = 0.0
    return RadiusEstimate(worst, tuple(wins))


# No BFS layer holds more reduced words than this: two 2x2 generators reach
# length 12 (708 588 words, 23 MB per (N, 2, 2) float stack) and stop before
# length 13 (2 125 764 words).
_WORD_BUDGET = 1_000_000


def _letter(k: int) -> tuple:
    """Letter k of the order (0,+1) < (0,-1) < (1,+1) < ..., as (index, +-1);
    letter k ^ 1 is its inverse."""
    return k // 2, 1 - 2 * (k % 2)


def letter_stack(generators) -> np.ndarray:
    """(2m, n, n) entries of the letters in order: g_0, g_0^-1, g_1, ..."""
    return np.array([h.entries for g in generators for h in (g, g.inverse())])


@dataclass(frozen=True)
class WordLayer:
    """The reduced words of one length, in length-then-lexicographic order.

    trail holds one (parents, last) pair of index arrays per length so far:
    word i of this layer is word parents[i] of the layer before followed by
    letter last[i] (parents is None at length 1).  products[i] is the word's
    matrix, the left-to-right product of its letters; magnitudes[i], when
    asked for, the same product of the letters' magnitude matrices.
    """

    length: int
    trail: tuple
    products: np.ndarray
    magnitudes: np.ndarray | None

    def letters(self, i: int) -> tuple:
        """Word i as a tuple of (index, +-1) letters."""
        word = []
        for parents, last in reversed(self.trail):
            word.append(_letter(int(last[i])))
            if parents is not None:
                i = int(parents[i])
        return tuple(reversed(word))


def word_layers(letters: np.ndarray, max_len: int, magnitudes: np.ndarray | None = None):
    """Yield the WordLayer of each length 1..max_len, built as one stack:
    the previous layer's products times the letters that may follow.

    letters is a letter_stack, magnitudes an optional (2m, n, n) stack
    carried along by the same products.  Only one layer's products are
    kept.  A layer over _WORD_BUDGET words raises UndecidedError before
    anything of it is built.
    """
    count = len(letters)
    layer = WordLayer(1, ((None, np.arange(count)),), letters, magnitudes)
    for length in range(1, max_len + 1):
        if length > 1:
            size = len(layer.products) * (count - 1)
            if size > _WORD_BUDGET:
                raise UndecidedError(
                    f"cannot decide past length {length - 1}: length {length} has "
                    f"{size} reduced words, over the budget of {_WORD_BUDGET}", length - 1)
            layer = _grow(layer, letters, magnitudes)
        yield layer


def _grow(layer: WordLayer, letters: np.ndarray, magnitudes) -> WordLayer:
    """The next layer: each word followed by every letter but the inverse of
    its last one, in order."""
    parents, last = np.nonzero(np.arange(len(letters)) != (layer.trail[-1][1][:, None] ^ 1))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are kept
        return WordLayer(
            layer.length + 1, layer.trail + ((parents, last),),
            layer.products[parents] @ letters[last],
            None if magnitudes is None else layer.magnitudes[parents] @ magnitudes[last])


def reduced_words(generators, max_len: int):
    """Yield (letters, matrix) for every reduced word of length 1..max_len
    over the generators and their inverses: word_layers, one word at a time.

    Letters are (index, +-1), ordered (0,+1) < (0,-1) < (1,+1) < ...;
    words come by length, then lexicographically.  The matrix is the
    product of the letters' matrices, left to right.  Only one length's
    words are kept, and a consumer that stops early forms no further layer.
    """
    generators = tuple(generators)
    if not generators:
        return
    field = generators[0].field
    for layer in word_layers(letter_stack(generators), max_len):
        for i, entries in enumerate(layer.products):
            yield layer.letters(i), SLMatrix(field, entries, check=False)


def _dedupe(matrices):
    seen = set()
    unique = []
    for g in matrices:
        if g.field.is_padic:
            key = tuple(c.value for row in g.entries for c in row)
        else:
            key = tuple(np.round(np.asarray(g.entries), 9).ravel().tolist())
        if key not in seen:
            seen.add(key)
            unique.append(g)
    return unique


def greedy_separating_set(generators, m: int, target_r: float, trials: int,
                          seed: int, max_word_len: int = 3,
                          max_size: int = 24) -> SeparatingSet:
    """Heuristic candidate-set builder: grow F from short words until the
    estimated radius reaches target_r or nothing improves.

    The result is not certified; the declared r is the final estimate.
    """
    pool = _dedupe(matrix for _, matrix in reduced_words(generators, max_word_len))
    if not pool:
        raise DomainError("word pool is empty; need at least one generator")
    chosen = []
    current = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSeparatingWarning)
        # a lone candidate is always defeated by the adversarial trials that
        # cycle to it, so the search must start from the best pair
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                value = estimate_radius([a, b], m, trials, seed).r
                if value > current:
                    current, chosen = value, [a, b]
        while len(chosen) < max_size and current < target_r:
            best_gain, best_candidate = current, None
            for candidate in pool:
                if candidate in chosen:
                    continue
                value = estimate_radius(chosen + [candidate], m, trials, seed).r
                if value > best_gain:
                    best_gain, best_candidate = value, candidate
            if best_candidate is None:
                break
            chosen.append(best_candidate)
            current = best_gain
    if current <= 0.0:
        raise DomainError(
            "greedy search found no separating candidate set; enlarge the word pool")
    return SeparatingSet(tuple(chosen), m, current)
