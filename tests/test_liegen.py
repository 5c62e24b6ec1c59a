import math

import numpy as np
import pytest

from pingpong.cartan import SLMatrix, identity
from pingpong.errors import ConstructionError, DomainError
from pingpong.fields import COMPLEX, REAL, padic
from pingpong.liegen import (LieElement, SubalgebraBasis, dense_pair_test,
                             derived_series, generated_subalgebra, matrix_exp,
                             matrix_log)

E = LieElement(REAL, [[0.0, 1.0], [0.0, 0.0]])
F = LieElement(REAL, [[0.0, 0.0], [1.0, 0.0]])
H = LieElement(REAL, [[1.0, 0.0], [0.0, -1.0]])


def random_traceless(rng, n, scale):
    arr = scale * rng.normal(size=(n, n))
    arr -= (np.trace(arr) / n) * np.eye(n)
    return LieElement(REAL, arr)


def scaled(x, t):
    return LieElement(x.field, t * np.asarray(x.entries))


def test_lie_element_rejects_nonzero_trace():
    with pytest.raises(ConstructionError):
        LieElement(REAL, [[1.0, 0.0], [0.0, -0.5]])


def test_lie_element_rejects_padic_field():
    with pytest.raises(DomainError):
        LieElement(padic(5, 20), [[0, 0], [0, 0]])


def test_lie_element_rejects_a_non_square_matrix():
    with pytest.raises(ConstructionError, match=r"square matrix, got shape \(2, 3\)"):
        LieElement(REAL, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def test_subalgebra_basis_dimension_consistency():
    with pytest.raises(ConstructionError):
        SubalgebraBasis((E, F), 3, True)


def test_log_of_identity_is_zero():
    x = matrix_log(identity(REAL, 3))
    assert np.max(np.abs(x.entries)) == 0.0


def test_log_of_diagonal_matrix():
    g = SLMatrix(REAL, [[math.exp(0.1), 0.0], [0.0, math.exp(-0.1)]])
    x = matrix_log(g)
    assert abs(x.entries[0][0] - 0.1) <= 1e-12
    assert abs(x.entries[1][1] + 0.1) <= 1e-12
    assert abs(x.entries[0][1]) <= 1e-12


def test_log_outside_domain_is_rejected():
    # ||g - I|| = 1.5 here, past the radius of the series
    g = SLMatrix(REAL, [[2.5, 0.0], [0.0, 0.4]])
    with pytest.raises(DomainError):
        matrix_log(g)


def test_log_rejects_padic_input():
    with pytest.raises(DomainError):
        matrix_log(identity(padic(5, 20), 2))


def test_exp_log_roundtrip_on_random_matrices():
    """exp(log(g)) returns g to 1e-10 across the series domain."""
    rng = np.random.default_rng(31)
    for _ in range(1000):
        x = random_traceless(rng, 2, 1.0)
        # ||e^x - I|| <= e^||x|| - 1 < 1 keeps the output in the log domain
        x = scaled(x, rng.uniform(0.02, 0.45) / np.linalg.norm(np.asarray(x.entries), 2))
        g = matrix_exp(x)
        back = matrix_exp(matrix_log(g))
        assert np.max(np.abs(np.asarray(back.entries) - np.asarray(g.entries))) <= 1e-10


def test_generated_subalgebra_of_nilpotent_pair_is_full():
    algebra = generated_subalgebra([E, F])
    assert algebra.dimension == 3
    assert algebra.closed
    assert algebra.warnings == ()


def test_generated_subalgebra_of_single_diagonal_element():
    algebra = generated_subalgebra([H])
    assert algebra.dimension == 1


def test_generated_subalgebra_empty_input():
    with pytest.raises(DomainError):
        generated_subalgebra([])


def test_generated_subalgebra_mixed_sizes():
    big = LieElement(REAL, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        generated_subalgebra([E, big])


def test_dimension_is_permutation_invariant():
    forward = generated_subalgebra([E, F, H])
    backward = generated_subalgebra([H, F, E])
    assert forward.dimension == backward.dimension == 3


def test_generated_subalgebra_complex_field():
    e = LieElement(COMPLEX, [[0.0, 1.0 + 0.5j], [0.0, 0.0]])
    f = LieElement(COMPLEX, [[0.0, 0.0], [1.0, 0.0]])
    assert generated_subalgebra([e, f]).dimension == 3


def test_borderline_rank_emits_warning():
    perturbed = LieElement(REAL, np.asarray(E.entries) + 3e-8 * np.asarray(H.entries))
    shadow = LieElement(REAL, np.asarray(E.entries) + 1e-8 * np.asarray(F.entries))
    algebra = generated_subalgebra([E, perturbed, shadow])
    assert any("borderline" in w for w in algebra.warnings)


def test_dense_pair_accepts_transverse_unipotents():
    x = matrix_exp(scaled(E, 0.1))
    y = matrix_exp(scaled(F, 0.1))
    assert dense_pair_test(x, y) is True


def test_dense_pair_rejects_common_diagonal_line():
    x = matrix_exp(scaled(H, 0.1))
    y = matrix_exp(scaled(H, 0.2))
    assert dense_pair_test(x, y) is False


def test_dense_pair_random_near_identity():
    """Generic near-identity pairs generate everything; 100 draws, no misses."""
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(100):
        x = matrix_exp(random_traceless(rng, 2, 0.1))
        y = matrix_exp(random_traceless(rng, 2, 0.1))
        if not dense_pair_test(x, y):
            failures += 1
    assert failures == 0


def test_dense_pair_three_by_three():
    rng = np.random.default_rng(5)
    x = matrix_exp(random_traceless(rng, 3, 0.1))
    y = matrix_exp(random_traceless(rng, 3, 0.1))
    assert dense_pair_test(x, y) is True


def test_dense_pair_mismatched_inputs():
    with pytest.raises(DomainError):
        dense_pair_test(identity(REAL, 2), identity(REAL, 3))


def test_derived_series_of_simple_algebra_is_constant():
    series = derived_series(generated_subalgebra([E, F]))
    assert [b.dimension for b in series] == [3]


def test_derived_series_of_borel_subalgebra():
    # upper triangular: [h, e] = 2e, then [e, e] = 0
    series = derived_series(generated_subalgebra([H, E]))
    assert [b.dimension for b in series] == [2, 1, 0]


def test_derived_series_of_abelian_algebra():
    d1 = LieElement(REAL, np.diag([1.0, -1.0, 0.0]))
    d2 = LieElement(REAL, np.diag([0.0, 1.0, -1.0]))
    series = derived_series(generated_subalgebra([d1, d2]))
    assert [b.dimension for b in series] == [2, 0]


def test_derived_series_dimensions_strictly_decrease():
    rng = np.random.default_rng(9)
    for _ in range(5):
        algebra = generated_subalgebra(
            [random_traceless(rng, 2, 1.0), random_traceless(rng, 2, 1.0)])
        dims = [b.dimension for b in derived_series(algebra)]
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_derived_series_requires_closed_input():
    open_span = SubalgebraBasis((H, E), 2, False)
    with pytest.raises(DomainError):
        derived_series(open_span)
