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
separator.  It works in chunks of trials, each trial on its own seeded
stream, with T sized so that the chunk's (T, E, 2, 2m, 2m) table of
distances stays within _TABLE_BUDGET entries, at most sampling.CHUNK_SIZE
trials: per chunk one stack of configurations (T, 2m, n), one
canonical_rows call for its points, its adversarial images and its forms,
one deflation of the adversarial forms, and one kernel call that forms
and scores g v for every trial, element and inverse.  Over R and C that
call makes one matmul per letter for the images g v and one per trial for
the values f(g v), and each rounds every entry as the trial alone would.
Over Q_p the same steps run on the int terms of fields, from the sampled
ints to the table of distances: the letter stack is read into terms once
per estimate, and no sampled row becomes a PadicScalar.
sample_configuration and best_separator are the same code on a batch of
one, and every trial rounds as it would alone, for R, C and Q_p.  The
global infimum r exists by compactness but is never computed; downstream
constructions only ever query concrete configurations.  word_layers is
the one reduced-word enumerator: a BFS that builds each word length as one
(N, n, n) stack of products, filled in blocks of words, keeping per length
only the parent index and last letter of each word.  The falsifier reads
its stacks; reduced_words, for the greedy candidate pool, is a per-word
view of it.
"""

import math
import warnings
from dataclasses import dataclass, field as derived_field

import numpy as np

from .cartan import SLMatrix, bilip_constants, inverses
from .errors import ConstructionError, DomainError, UndecidedError
from .fields import (_INF, _Terms, _padic_canonical_terms, _padic_product, _padic_read,
                     _padic_scalars, _padic_sum, matmul)
from .projective import _kernel_form, _norms, _padic_images, canonical_rows, hyperplane_distances
from .sampling import CHUNK_SIZE, stream_rows

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

# Entries of the (T, E, 2, 2m, 2m) distance table of one chunk of trials.
# The 16-element Q_5 fixture at m = 2 takes 128 trials a chunk, about 21 MB
# at peak under tracemalloc, where 1024 trials took 170 MB; over R and C a
# chunk takes about a tenth of that per entry.
_TABLE_BUDGET = 1 << 16


class NotSeparatingWarning(UserWarning):
    """Sampled configuration that no element of the candidate set separates."""


@dataclass(frozen=True)
class SeparatingSet:
    """Candidate set with declared margin r, each element's bi-Lipschitz
    constant in bilips and their maximum C."""

    elements: tuple
    m: int
    r: float
    bilips: tuple = derived_field(init=False)
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
        bilips = tuple(bilip_constants(elements))
        object.__setattr__(self, "bilips", bilips)
        object.__setattr__(self, "C", max(bilips, default=1.0))


@dataclass(frozen=True)
class Configuration:
    """Points and hyperplanes of P^(n-1) as field arrays: points (P, n) holds
    canonical representatives (projective.canonical_rows), forms (H, n) the
    canonical forms whose kernels are the hyperplanes."""

    points: np.ndarray
    forms: np.ndarray


def _margins(field, pairs, points, forms) -> np.ndarray:
    """(T, E) margins of each element of the stack on each configuration of
    a batch, points and forms (T, P, n) and (T, H, n): the min over points v
    and forms f of d(g v, ker f) and d(g^-1 v, ker f), +inf for an empty
    configuration; pairs is the (E, 2, n, n) view of the elements'
    letter_stack.  Over Q_p all three may be fields._Terms."""
    # g v for every trial and every g at once, rounded as for one alone
    distances = hyperplane_distances(field, points[:, None, None], forms[:, None, None], pairs)
    return distances.min(axis=(2, 3, 4), initial=math.inf)


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
    g = F.elements[0]
    margins = _margins(g.field, letter_stack(F.elements).reshape(-1, 2, g.n, g.n),
                       cfg.points[None], cfg.forms[None])[0]
    best = int(np.argmax(margins))
    return F.elements[best], float(margins[best])


def verify_separating_for(F: SeparatingSet, cfg: Configuration) -> bool:
    """True iff some element beats the declared radius on this configuration.

    The inequality is strict: a boundary margin equal to F.r fails.
    """
    _, margin = best_separator(F, cfg)
    return margin > F.r


def _deflate(field, u, w):
    """Each form of w (k, n) over R or C with its pivot coordinate corrected
    so that it vanishes exactly on the same row of u; where at most 1e-9 of
    the form's norm is left, roundoff of a form through u's pivot alone, the
    form e_k1 - (u_k1 / u_k0) e_k0 instead.  _padic_deflate is the Q_p one."""
    rows = np.arange(len(u))
    k0 = np.abs(u).argmax(-1)
    pivots = u[rows, k0]
    f = w.copy()
    # row-wise dots, rounded as w @ u of one row
    f[rows, k0] -= matmul(w[:, None, :], u[:, :, None])[:, 0, 0] / pivots
    flat = _norms(field, f) <= 1e-9 * _norms(field, w)
    if flat.any():
        rows, k0 = rows[flat], k0[flat]
        k1 = (k0 + 1) % u.shape[-1]
        f[rows] = field.zero()
        f[rows, k1] = field.one()
        f[rows, k0] = -u[rows, k1] / pivots[flat]
    return f


def _configurations(field, entries, m: int, trials: np.ndarray, seed: int) -> tuple:
    """(points, forms) of the configurations of the given trials, each
    stacked (T, 2m, n); entries is the (E, n, n) stack of the candidates.

    Trial t draws its 4m rows, points first, from sampling stream seed + t,
    so its configuration does not depend on the batch it is drawn in.  Over
    Q_p the rows are the stream's ints, and the configurations are built and
    returned as int terms (_padic_configurations).
    """
    n = entries.shape[-1]
    rows = stream_rows(field, n, [seed + t for t in trials.tolist()], 4 * m)
    rows = rows.reshape(len(trials), 2, 2 * m, n)
    if field.is_padic:
        return _padic_configurations(field, entries, rows, trials)
    points, forms = canonical_rows(field, rows[:, 0]), rows[:, 1].copy()
    odd = np.flatnonzero(trials % 2)
    if len(odd):
        adversaries = entries[trials[odd] // 2 % len(entries)]
        # stacked matrix-vector products: the bits of apply_point
        images = matmul(adversaries[:, None], points[odd][..., None])[..., 0]
        images = canonical_rows(field, images)
        forms[odd] = _deflate(field, images.reshape(-1, n),
                              forms[odd].reshape(-1, n)).reshape(images.shape)
    return points, canonical_rows(field, forms)


def _padic_configurations(field, entries, rows: np.ndarray, trials: np.ndarray) -> tuple:
    """_configurations over Q_p on the int terms of fields: the sampled ints
    rows (T, 2, 2m, n) and the candidates entries, PadicScalars or their
    _Terms, to the _Terms of the canonical points and forms.  Every value,
    digit count and error is the one the same steps on PadicScalar rows
    give: canonical points, images g v summed as the object product, their
    deflation (_padic_deflate) and canonical forms."""
    samples = _padic_read(field, rows, 1)
    points, forms = _padic_canonical_terms(samples[:, 0].term), samples[:, 1].term
    odd = np.flatnonzero(trials % 2)
    if len(odd):
        images = _padic_images(field, points[odd], entries[trials[odd] // 2 % len(entries)])
        forms = [part.copy() for part in forms]
        for part, deflated in zip(forms, _padic_deflate(field, *images, samples[odd, 1])):
            part[odd] = deflated
    return points, _padic_canonical_terms(tuple(forms))


def _padic_deflate(field, images: tuple, least, forms: _Terms) -> tuple:
    """_deflate over Q_p on terms: each form w with w_k0 - (w . u) / u_k0 at
    the pivot coordinate k0 of the canonical row u of images, the same row
    of a term and its pivot valuations least, and e_k1 - (u_k1 / u_k0) e_k0
    where exactly nothing is left.  Each row is kept in ints times u's
    pivot int."""
    shape = images[0].shape
    n = shape[-1]
    ints, vals, digits, zero = u = tuple(part.reshape(-1, n) for part in images)
    least = least.reshape(-1)
    rows = np.arange(len(ints))
    k0 = np.where(zero, _INF, vals).argmin(-1)
    pivot, pivot_digits = ints[rows, k0], digits[rows, k0]
    w = tuple(part.reshape(-1, n) for part in forms.term)
    shift = forms.shift.reshape(-1) - least
    # w . u summed as the object product w @ u, then over u_k0 = 1
    dot = _padic_sum(field, [_padic_product(w, u, np.s_[:, j], np.s_[:, j]) for j in range(n)],
                     shift)
    dot = -dot[0], dot[1], np.minimum(dot[2], pivot_digits), dot[3]
    w = [w[0] * pivot[:, None], w[1] + least[:, None], w[2].copy(), w[3].copy()]
    for part, value in zip(w, _padic_sum(field, [[part[rows, k0] for part in w], dot], shift)):
        part[rows, k0] = value
    flat = w[3].all(-1)
    if flat.any():
        # u_k0 e_k1 - u_k1 e_k0, its entry u_k0 known to the full precision
        rows, k0 = rows[flat], k0[flat]
        k1 = (k0 + 1) % n
        for part, fill in zip(w, (0, 0, field.precision, True)):
            part[rows] = fill
        w[0][rows, k1], w[1][rows, k1], w[3][rows, k1] = pivot[flat], least[flat], False
        for part, entries in zip(w, (-ints, vals, digits, zero)):
            part[rows, k0] = entries[rows, k1]
    return tuple(part.reshape(shape) for part in w)


def sample_configuration(elements, m: int, trial: int, seed: int) -> Configuration:
    """Deterministic configuration for one Monte-Carlo trial.

    Even trials draw 2m random points and 2m random hyperplanes.  Odd trials
    are adversarial: the hyperplanes are constructed to pass exactly through
    the images of the sampled points under one candidate, cycled round-robin
    over the candidate list, so that candidate is pinned to margin 0.  This
    is trial `trial` of the batches estimate_radius scores.
    """
    elements = tuple(elements)
    if not elements:
        raise DomainError("configuration sampling needs at least one candidate element")
    field = elements[0].field
    points, forms = _configurations(field, np.array([g.entries for g in elements]),
                                    m, np.array([trial]), seed)
    if field.is_padic:
        return Configuration(_padic_scalars(field, points[0].term),
                             _padic_scalars(field, forms[0].term))
    return Configuration(points[0], forms[0])


@dataclass(frozen=True)
class RadiusEstimate:
    """Monte-Carlo separation radius r and, per element, the number of
    trials in which it was the best separator."""

    r: float
    wins: tuple


def estimate_radius(elements, m: int, trials: int, seed: int) -> RadiusEstimate:
    """Worst best_separator margin over sampled configurations, and the wins
    of each element, from one pass over every trial.

    Trials are drawn and scored in chunks of at most sampling.CHUNK_SIZE,
    sized by _TABLE_BUDGET: per chunk one batch of configurations
    (sample_configuration's, trial by trial) and one hyperplane_distances
    call for every trial, element and inverse.
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
    fld, n = elements[0].field, elements[0].n
    zero_tol = 0.0 if fld.is_padic else _ZERO_MARGIN
    pairs = _kernel_form(fld, letter_stack(elements).reshape(-1, 2, n, n), 2)
    worst = math.inf
    wins = np.zeros(len(elements), dtype=int)
    chunk = max(1, min(CHUNK_SIZE, _TABLE_BUDGET // (2 * len(elements) * (2 * m) ** 2)))
    for start in range(0, trials, chunk):
        margins = _margins(fld, pairs, *_configurations(
            fld, pairs[:, 0], m, np.arange(start, min(start + chunk, trials)), seed))
        wins += np.bincount(margins.argmax(axis=1), minlength=len(elements))
        # fmin passes over nan, as a running min() over the trials does
        worst = min(worst, float(np.fmin.reduce(margins.max(axis=1))))
    if worst <= zero_tol:
        warnings.warn(
            "a sampled configuration defeats every candidate; "
            "the set is not separating for this m", NotSeparatingWarning)
        worst = 0.0
    return RadiusEstimate(worst, tuple(wins.tolist()))


# No BFS layer holds more reduced words than this: two 2x2 generators reach
# length 12 (708 588 words, 23 MB per (N, 2, 2) float stack) and stop before
# length 13 (2 125 764 words).
_WORD_BUDGET = 1_000_000

# Words of a layer that _grow multiplies at once: the gathered operands of
# one block take 0.5 MB each for 2x2 float words, however long the layer.
_GROW_ROWS = 1 << 14


def _letter(k: int) -> tuple:
    """Letter k of the order (0,+1) < (0,-1) < (1,+1) < ..., as (index, +-1);
    letter k ^ 1 is its inverse."""
    return k // 2, 1 - 2 * (k % 2)


def letter_stack(generators) -> np.ndarray:
    """(2m, n, n) entries of the letters in order: g_0, g_0^-1, g_1, ...;
    every missing inverse from one stacked adjugate (cartan.inverses)."""
    generators = tuple(generators)
    return np.array([h.entries for pair in zip(generators, inverses(generators)) for h in pair])


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
            _extend(layer.products, letters, parents, last),
            None if magnitudes is None
            else _extend(layer.magnitudes, magnitudes, parents, last))


def _extend(stack, letters, parents, last):
    """matmul(stack[parents], letters[last]) in blocks of _GROW_ROWS rows:
    the same products, with no gathered copy of a whole layer."""
    out = np.empty((len(last),) + letters.shape[1:], letters.dtype)
    for start in range(0, len(last), _GROW_ROWS):
        block = slice(start, start + _GROW_ROWS)
        out[block] = matmul(stack[parents[block]], letters[last[block]])
    return out


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
