"""Separating-set oracle, Monte-Carlo radius estimation, greedy builder."""

import math
from fractions import Fraction

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pingpong.cartan import SLMatrix, apply_point, diagonal, identity
from pingpong.errors import ConstructionError, DomainError
from pingpong.fields import COMPLEX, REAL, padic
from pingpong import separation
from pingpong.sampling import CHUNK_SIZE
from pingpong.projective import (
    ProjHyperplane,
    ProjPoint,
    as_field_array,
    canonical_rows,
    dist_to_hyperplane,
)
from helpers import (deflate_row, grown_by_gather, radius_by_trials, random_sl_arch,
                     random_sl_padic, scalar_dist_to_hyperplane)
from pingpong.separation import (
    Configuration,
    NotSeparatingWarning,
    SeparatingSet,
    best_separator,
    estimate_radius,
    greedy_separating_set,
    letter_stack,
    reduced_words,
    sample_configuration,
    verify_separating_for,
    word_layers,
)

Q5 = padic(5)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return SLMatrix(REAL, [[c, -s], [s, c]])


def config(field, points, forms):
    """Configuration of the canonical rows of 2-coordinate points and forms."""
    def rows(coords):
        return canonical_rows(field, as_field_array(field, coords, 2).reshape(-1, 2))
    return Configuration(rows(points), rows(forms))


# [e1] against the hyperplane through e2: distance 1
CFG_FAR = config(REAL, [[1.0, 0.0]], [[1.0, 0.0]])
# [e1] lying on the hyperplane through e1: distance 0
CFG_ON = config(REAL, [[1.0, 0.0]], [[0.0, 1.0]])


def test_separating_set_validation():
    I2 = identity(REAL, 2)
    assert SeparatingSet((I2,), 1, 0.5).C == 1.0
    with pytest.raises(ConstructionError):
        SeparatingSet((I2,), 0, 0.5)
    with pytest.raises(ConstructionError):
        SeparatingSet((I2,), 1, 0.0)
    with pytest.raises(ConstructionError):
        SeparatingSet((I2, identity(Q5, 2)), 1, 0.5)


def test_separating_set_bilip_bound():
    F = SeparatingSet((identity(REAL, 2), diagonal(REAL, [2.0, 0.5])), 1, 0.1)
    assert F.C == pytest.approx(16.0, rel=1e-9)


def test_best_separator_identity_far():
    F = SeparatingSet((identity(REAL, 2),), 1, 0.5)
    g, margin = best_separator(F, CFG_FAR)
    assert g is F.elements[0]
    assert margin == pytest.approx(1.0)


def test_best_separator_identity_pinned():
    F = SeparatingSet((identity(REAL, 2),), 1, 0.5)
    g, margin = best_separator(F, CFG_ON)
    assert g is F.elements[0]
    assert margin == 0.0


def test_best_separator_prefers_rotation():
    F = SeparatingSet((identity(REAL, 2), rotation(math.pi / 4)), 1, 0.5)
    g, margin = best_separator(F, CFG_ON)
    assert g is F.elements[1]
    assert margin == pytest.approx(math.sin(math.pi / 4), rel=1e-12)


def test_best_separator_rejects_empty_and_oversized():
    empty = SeparatingSet((), 1, 0.5)
    with pytest.raises(DomainError):
        best_separator(empty, CFG_FAR)
    F = SeparatingSet((identity(REAL, 2),), 1, 0.5)
    too_big = Configuration(config(REAL, [[1.0, float(k)] for k in range(3)], []).points,
                            CFG_FAR.forms)
    with pytest.raises(DomainError):
        best_separator(F, too_big)


@pytest.mark.parametrize("field", [REAL, Q5], ids=str)
def test_best_separator_empty_configuration_is_vacuous(field):
    F = SeparatingSet((identity(field, 2), diagonal(field, [5, Fraction(1, 5)])), 1, 0.5)
    assert best_separator(F, config(field, [], [])) == (F.elements[0], math.inf)


def test_best_separator_tie_prefers_list_order():
    # both rotations give the same margin on this symmetric configuration
    F = SeparatingSet((rotation(math.pi / 4), rotation(-math.pi / 4)), 1, 0.5)
    g, _ = best_separator(F, CFG_ON)
    assert g is F.elements[0]


def test_verify_separating_for_threshold():
    F = SeparatingSet((identity(REAL, 2),), 1, 0.5)
    assert verify_separating_for(F, CFG_FAR)
    assert not verify_separating_for(F, CFG_ON)
    # boundary margin equal to r fails: the definition is strict
    boundary = SeparatingSet((identity(REAL, 2),), 1, 1.0)
    assert not verify_separating_for(boundary, CFG_FAR)


def test_margin_monotone_in_elements():
    base = (rotation(0.3),)
    bigger = base + (rotation(1.1), rotation(2.0))
    for trial in range(6):
        cfg = sample_configuration(bigger, 2, trial, 23)
        _, small = best_separator(SeparatingSet(base, 2, 0.1), cfg)
        _, large = best_separator(SeparatingSet(bigger, 2, 0.1), cfg)
        assert large >= small


def _scalar_margin(g, cfg):
    field = g.field
    return min(scalar_dist_to_hyperplane(apply_point(x, ProjPoint(field, v)),
                                         ProjHyperplane(field, f))
               for x in (g, g.inverse()) for v in cfg.points for f in cfg.forms)


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5], ids=str)
def test_best_separator_matches_scalar_reference(field):
    # one kernel call for all of F equals the scalar metric element by element
    if field is Q5:
        sets = [(SLMatrix(Q5, [[1, 1], [0, 1]]), SLMatrix(Q5, [[1, 0], [1, 1]]),
                 diagonal(Q5, [5, Fraction(1, 5)]), SLMatrix(Q5, [[2, 1], [1, 1]]))]
    else:
        rng = np.random.default_rng(3)
        sets = [tuple(random_sl_arch(rng, field, n) for _ in range(4)) for n in (2, 3)]
    for elements in sets:
        F = SeparatingSet(elements, 2, 0.01)
        for trial in range(8):
            cfg = sample_configuration(elements, 2, trial, 19)
            _, margin = best_separator(F, cfg)
            reference = max(_scalar_margin(g, cfg) for g in elements)
            if field is Q5:
                assert margin == reference
            else:
                assert margin == pytest.approx(reference, abs=1e-15, rel=0)


def test_estimate_radius_identity_fails():
    with pytest.warns(NotSeparatingWarning):
        value = estimate_radius([identity(REAL, 2)], 1, 10, 0).r
    assert value == 0.0


def test_estimate_radius_identity_fails_padic_exactly():
    with pytest.warns(NotSeparatingWarning):
        value = estimate_radius([identity(Q5, 2)], 1, 6, 0).r
    assert value == 0.0


def test_estimate_radius_single_trial_is_config_margin():
    elements = (rotation(0.3), rotation(1.2))
    cfg = sample_configuration(elements, 1, 0, 41)
    F = SeparatingSet(elements, 1, 0.01)
    _, margin = best_separator(F, cfg)
    assert estimate_radius(elements, 1, 1, 41).r == margin


def test_estimate_radius_antitone_in_trials():
    elements = [identity(REAL, 2), rotation(math.pi / 4), rotation(math.pi / 3)]
    values = [estimate_radius(elements, 1, trials, 17).r for trials in (1, 5, 25, 125)]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi


def test_estimate_radius_three_rotations_regression():
    # Monte-Carlo value frozen as a determinism regression
    elements = [identity(REAL, 2), rotation(math.pi / 4), rotation(math.pi / 3)]
    value = estimate_radius(elements, 1, 100_000, 7).r
    assert value > 0.0
    assert value == pytest.approx(0.008164932413000758, rel=1e-9)


def test_estimate_radius_dense_rotations_stays_positive():
    elements = [rotation(k * math.pi / 16) for k in range(16)]
    early = estimate_radius(elements, 1, 2000, 11).r
    late = estimate_radius(elements, 1, 6000, 11).r
    assert late <= early
    assert late >= 0.15
    assert early == pytest.approx(0.19537351961052193, rel=1e-9)
    assert late == pytest.approx(0.1952212169869124, rel=1e-9)


def test_estimate_radius_wins_match_best_separator():
    elements = (rotation(0.3), rotation(1.2), rotation(2.0))
    F = SeparatingSet(elements, 1, 0.01)
    wins = [0] * len(elements)
    for trial in range(30):
        g, _ = best_separator(F, sample_configuration(elements, 1, trial, 41))
        wins[elements.index(g)] += 1
    assert estimate_radius(elements, 1, 30, 41).wins == tuple(wins)


def test_estimate_radius_defeated_set_scans_every_trial(monkeypatch):
    # I and -I act alike, so the adversarial trial 1 pins both
    elements = (identity(REAL, 2), SLMatrix(REAL, [[-1.0, 0.0], [0.0, -1.0]]))
    trials = CHUNK_SIZE + 3
    sampled = []
    original = separation._configurations

    def counting(field, entries, m, batch, seed):
        assert len(batch) <= CHUNK_SIZE
        sampled.extend(batch.tolist())
        return original(field, entries, m, batch, seed)

    monkeypatch.setattr(separation, "_configurations", counting)
    with pytest.warns(NotSeparatingWarning) as caught:
        estimate = estimate_radius(elements, 1, trials, 3)
    assert [w.category for w in caught].count(NotSeparatingWarning) == 1
    assert sampled == list(range(trials))
    assert estimate.r == 0.0
    assert estimate.wins == (trials, 0)  # ties go to the first element


@pytest.mark.parametrize("field, trials", [(REAL, CHUNK_SIZE + 3), (COMPLEX, 40), (Q5, 3)],
                         ids=str)
@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_estimate_radius_batches_equal_the_trial_loop(field, trials, n, m):
    # chunked sampling and scoring round every trial as a batch of one does
    if field.is_padic:
        prng = random.Random(n * 10 + m)
        elements = [random_sl_padic(prng, field, n) for _ in range(3)]
    else:
        rng = np.random.default_rng(n * 10 + m)
        elements = [random_sl_arch(rng, field, n) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSeparatingWarning)
        estimate = estimate_radius(elements, m, trials, 5)
    assert (estimate.r, estimate.wins) == radius_by_trials(elements, m, trials, 5)


def test_chunks_are_sized_by_the_table_budget(monkeypatch):
    # 24 elements at m = 2 give 768 table entries a trial: 85 trials a chunk
    rng = np.random.default_rng(24)
    elements = [random_sl_arch(rng, REAL, 3) for _ in range(24)]
    sizes = []
    original = separation._configurations

    def counting(field, entries, m, batch, seed):
        sizes.append(len(batch))
        return original(field, entries, m, batch, seed)

    monkeypatch.setattr(separation, "_configurations", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSeparatingWarning)
        estimate = estimate_radius(elements, 2, 200, 9)
        monkeypatch.undo()
        expected = radius_by_trials(elements, 2, 200, 9)
    assert sizes == [85, 85, 30]
    assert (estimate.r, estimate.wins) == expected


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5], ids=str)
def test_deflate_batch_matches_rows_with_the_vanishing_fallback(field):
    # rows 0 and 2 deflate normally; rows 1 and 3 are forms c e_k0 through
    # the pivot coordinate k0 of u, whose correction leaves nothing
    u = canonical_rows(field, as_field_array(field, [[3, 1, 2], [1, 4, 2], [2, 2, 1], [1, 1, 5]], 2))
    coords = [[1, 2, 3], [0, 0, 0], [5, 1, 1], [0, 0, 0]]
    for k, c in ((1, 7), (3, 2)):
        coords[k][int(np.argmax(np.abs(u[k])))] = c
    w = as_field_array(field, coords, 2)
    vanishing = 0.0 if field.is_padic else 1e-9
    batch = separation._deflate(field, u, w, vanishing)
    rows = [deflate_row(field, a, b, vanishing) for a, b in zip(u, w)]
    for got, want in zip(batch, rows):
        if field.is_padic:
            assert [(c.value, c.digits) for c in got] == [(c.value, c.digits) for c in want]
        else:
            assert got.tobytes() == want.tobytes()
    for k in (1, 3):
        k0 = int(np.argmax(np.abs(u[k])))
        assert batch[k][(k0 + 1) % 3] == 1 and batch[k][(k0 + 2) % 3] == 0
    assert np.abs((batch * u).sum(-1)).astype(float).max() <= (0 if field.is_padic else 1e-15)


def test_estimate_radius_validates_arguments():
    with pytest.raises(DomainError):
        estimate_radius([], 1, 5, 0)
    with pytest.raises(DomainError):
        estimate_radius([identity(REAL, 2)], 1, 0, 0)
    with pytest.raises(DomainError):
        estimate_radius([identity(REAL, 2)], 0, 5, 0)


def test_adversarial_configuration_pins_the_cycled_element():
    elements = (rotation(0.4), rotation(1.3))
    # odd trials build hyperplanes through the images under one candidate
    cfg = sample_configuration(elements, 1, 1, 5)
    adversary = elements[0]
    for v, f in zip(cfg.points, cfg.forms):
        img = apply_point(adversary, ProjPoint(REAL, v))
        assert dist_to_hyperplane(img, ProjHyperplane(REAL, f)) <= 1e-12


def test_adversarial_configuration_padic_incidence_exact():
    S = SLMatrix(Q5, [[1, 1], [0, 1]])
    T = SLMatrix(Q5, [[1, 0], [1, 1]])
    cfg = sample_configuration((S, T), 1, 3, 9)
    adversary = T  # trial 3 cycles to index (3 // 2) % 2 = 1
    for v, f in zip(cfg.points, cfg.forms):
        img = apply_point(adversary, ProjPoint(Q5, v))
        H = ProjHyperplane(Q5, f)
        assert dist_to_hyperplane(img, H) == 0.0
        assert H.contains(img)


def test_estimate_radius_padic_shear_words():
    S = SLMatrix(Q5, [[1, 1], [0, 1]])
    T = SLMatrix(Q5, [[1, 0], [1, 1]])
    value = estimate_radius([S, T, S @ T], 1, 12, 3).r
    assert value == 0.04  # distances over Q_5 are exact powers of 5


def test_greedy_separating_set_builds_padic_candidates():
    S = SLMatrix(Q5, [[1, 1], [0, 1]])
    T = SLMatrix(Q5, [[1, 0], [1, 1]])
    F = greedy_separating_set([S, T], m=1, target_r=0.04, trials=20, seed=13,
                              max_word_len=2, max_size=8)
    assert F.r >= 0.04
    assert F.C == 1.0  # integer words act by isometries
    assert 1 <= len(F.elements) <= 8
    # the declared radius is reproducible on fresh trials
    assert estimate_radius(list(F.elements), 1, 20, 13).r == F.r


def test_greedy_separating_set_grows_past_the_best_pair():
    # over R the best pair of words falls short of the target, so the growth
    # loop runs, and the rounded-entry key drops the words equal to one another
    F = greedy_separating_set([rotation(math.pi / 8), rotation(math.pi / 5)], m=1,
                              target_r=0.3, trials=40, seed=3, max_word_len=2, max_size=6)
    assert len(F.elements) > 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotSeparatingWarning)
        # the search starts from the best pair
        pair = estimate_radius(list(F.elements[:2]), 1, 40, 3).r
    assert F.r > pair
    assert estimate_radius(list(F.elements), 1, 40, 3).r == F.r


def test_reduced_words_counts_order_and_products():
    S = SLMatrix(REAL, [[1.0, 2.0], [0.0, 1.0]])
    T = SLMatrix(REAL, [[1.0, 0.0], [2.0, 1.0]])
    letters = [(0, 1), (0, -1), (1, 1), (1, -1)]  # the falsifier's order
    mats = dict(zip(letters, (S, S.inverse(), T, T.inverse())))
    words = list(reduced_words([S, T], 4))
    lengths = [len(word) for word, _ in words]
    for k in range(1, 5):
        assert lengths.count(k) == 4 * 3 ** (k - 1)
    keys = [(len(word), [letters.index(x) for x in word]) for word, _ in words]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for word, matrix in words:
        assert all(not (i == j and e == -f)
                   for (i, e), (j, f) in zip(word, word[1:]))
        product = identity(REAL, 2)
        for letter in word:
            product = product @ mats[letter]
        np.testing.assert_array_equal(matrix.entries, product.entries)


def _bits(field, entries):
    """The exact content of a matrix: its bytes, or each p-adic value and digit count."""
    if field.is_padic:
        return [(x.value, x.digits) for x in entries.ravel()]
    return entries.tobytes()


@settings(max_examples=24, deadline=None)
@given(field=st.sampled_from([REAL, COMPLEX, Q5]), n=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_word_layers_match_left_to_right_products(field, n, seed):
    if field.is_padic:
        gens = [random_sl_padic(random.Random(seed + k), field, n) for k in range(2)]
        max_len = 4 if n == 2 else 3
    else:
        rng = np.random.default_rng(seed)
        gens = [random_sl_arch(rng, field, n) for _ in range(2)]
        max_len = 5
    mats = {}
    for i, g in enumerate(gens):
        mats[(i, 1)], mats[(i, -1)] = g, g.inverse()
    count = 0
    for layer in word_layers(letter_stack(gens), max_len):
        assert len(layer.products) == 4 * 3 ** (layer.length - 1)
        for i, entries in enumerate(layer.products):
            word = layer.letters(i)
            product = mats[word[0]]
            for letter in word[1:]:
                product = product @ mats[letter]
            assert _bits(field, entries) == _bits(field, product.entries)
            count += 1
    assert count == len(list(reduced_words(gens, max_len)))


@pytest.mark.parametrize("field", [REAL, COMPLEX, Q5])
def test_word_layers_match_the_gathered_product(field, monkeypatch):
    # a layer built in blocks of words is bit for bit the one gather of both
    # operands, products and magnitude stacks alike; blocks of 7 words cut
    # across the children of a parent
    monkeypatch.setattr(separation, "_GROW_ROWS", 7)
    rng = np.random.default_rng(71)
    cases = []
    for n in (2, 3, 4):
        for count in (4, 6):
            if field.is_padic:
                gens = [random_sl_padic(random.Random(int(rng.integers(1 << 30))), field, n)
                        for _ in range(count // 2)]
                cases.append((letter_stack(gens), None, 4 if count == 4 else 3))
                continue
            letters = letter_stack([random_sl_arch(rng, field, n) for _ in range(count // 2)])
            cases.append((letters, np.abs(letters), 7 if count == 4 else 5))
            # entries up to 1e250: the products reach inf and nan
            wild = letters * 10.0 ** rng.integers(-250, 250, size=(count, 1, 1))
            cases.append((wild, np.abs(wild), 4))
    for letters, magnitudes, max_len in cases:
        before = None
        for layer in word_layers(letters, max_len, magnitudes):
            if before is not None:
                products, grown = grown_by_gather(before, letters, magnitudes)
                assert _bits(field, layer.products) == _bits(field, products)
                if magnitudes is not None:
                    assert layer.magnitudes.tobytes() == grown.tobytes()
            before = layer
