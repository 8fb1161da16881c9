"""Field, projective line, and projective matrix arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmaps.gfproj import (
    GFProjError,
    ProjMatrix,
    act,
    all_matrices,
    all_points,
    element_order,
    fixed_points,
    in_psl,
    mat_multiply,
    proj_matrix,
)

PRIMES = (5, 7, 11, 13)


def matrix_strategy(p):
    entries = st.tuples(*(st.integers(0, p - 1),) * 4)
    return entries.filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % p).map(
        lambda e: proj_matrix(*e, p)
    )


matrices = st.sampled_from(PRIMES).flatmap(matrix_strategy)


# -- multiplication ----------------------------------------------------------


def test_identity_absorbs():
    m = proj_matrix(2, 3, 1, 3, 5)
    assert mat_multiply(proj_matrix(1, 0, 0, 1, 5), m) == m
    assert mat_multiply(m, proj_matrix(1, 0, 0, 1, 5)) == m


def test_upper_triangular_product():
    m = proj_matrix(1, 1, 0, 1, 5)
    assert mat_multiply(m, m) == proj_matrix(1, 2, 0, 1, 5)


def test_involution_squares_to_identity():
    w = proj_matrix(0, 1, 1, 0, 7)
    assert mat_multiply(w, w) == proj_matrix(1, 0, 0, 1, 7)


def test_modulus_mismatch_rejected():
    with pytest.raises(GFProjError):
        mat_multiply(proj_matrix(1, 0, 0, 1, 5), proj_matrix(1, 0, 0, 1, 7))


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_normalization_canonical_under_scaling(m):
    for lam in range(2, m.p):
        assert proj_matrix(lam * m.a, lam * m.b, lam * m.c, lam * m.d, m.p) == m


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_multiplication_associative(data):
    p = data.draw(st.sampled_from(PRIMES))
    g, h, k = (data.draw(matrix_strategy(p)) for _ in range(3))
    assert mat_multiply(mat_multiply(g, h), k) == mat_multiply(g, mat_multiply(h, k))


# -- orders ------------------------------------------------------------------


def test_order_of_identity():
    assert element_order(proj_matrix(1, 0, 0, 1, 5)) == 1


def test_order_of_unipotent_is_p():
    # oracle: raw repeated multiplication, no library shortcuts
    m = proj_matrix(1, 1, 0, 1, 5)
    acc, n = m, 1
    while acc != proj_matrix(1, 0, 0, 1, 5):
        acc = mat_multiply(acc, m)
        n += 1
    assert n == 5
    assert element_order(m) == 5


def test_order_of_antidiagonal_involution():
    assert element_order(proj_matrix(0, 1, 1, 0, 7)) == 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_order_divides_p_or_p_plus_minus_one(data):
    p = data.draw(st.sampled_from((5, 7)))
    g = data.draw(matrix_strategy(p))
    n = element_order(g)
    assert p % n == 0 or (p - 1) % n == 0 or (p + 1) % n == 0


# -- action on the projective line --------------------------------------------


def test_identity_acts_trivially():
    for x in all_points(5):
        assert act(proj_matrix(1, 0, 0, 1, 5), x) == x


def test_translation_moves_zero_to_one():
    # [[1,1],[0,1]] sends [0:1] to [1:1]
    assert act(proj_matrix(1, 1, 0, 1, 5), 0) == 1


def test_order_six_element_has_one_orbit():
    six = next(g for g in all_matrices(5) if element_order(g) == 6)
    orbit = {5}
    x = 5  # the point [1:0]
    for _ in range(6):
        x = act(six, x)
        orbit.add(x)
    assert orbit == set(range(6))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_action_composes_on_the_right(data):
    p = data.draw(st.sampled_from(PRIMES))
    g = data.draw(matrix_strategy(p))
    h = data.draw(matrix_strategy(p))
    x = data.draw(st.integers(0, p))
    assert act(mat_multiply(g, h), x) == act(h, act(g, x))


# -- PSL membership ------------------------------------------------------------


def test_identity_in_psl():
    assert in_psl(proj_matrix(1, 0, 0, 1, 5))


def test_nonsquare_determinant_outside_psl():
    # squares mod 5 are {1, 4}; det of diag(2,1) is 2
    assert not in_psl(proj_matrix(2, 0, 0, 1, 5))


def test_square_determinant_inside_psl():
    assert in_psl(proj_matrix(4, 0, 0, 1, 5))


# -- the projective line --------------------------------------------------------


@pytest.mark.parametrize("p,n", [(5, 6), (7, 8), (13, 14)])
def test_point_counts(p, n):
    pts = all_points(p)
    assert len(pts) == n
    assert len(set(pts)) == n


def test_point_order_convention():
    pts = all_points(5)
    assert pts[0] == 0  # [0:1]
    assert pts[1] == 5  # [1:0]
    assert pts[2:] == (1, 2, 3, 4)


@pytest.mark.parametrize("bad", [4, 6, 9, 3, 2, 1])
def test_bad_characteristic_rejected(bad):
    with pytest.raises(GFProjError):
        all_points(bad)


# -- action properties of the full matrix group ---------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_sharply_three_transitive(p):
    pts = all_points(p)
    mats = all_matrices(p)
    assert len(mats) == (p + 1) * p * (p - 1)
    seen = {}
    for g in mats:
        key = (act(g, pts[0]), act(g, pts[1]), act(g, pts[2]))
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == (p + 1) * p * (p - 1)
    assert set(seen.values()) == {1}


@pytest.mark.parametrize("p", PRIMES)
def test_involution_fixed_point_counts(p):
    for g in all_matrices(p):
        if element_order(g) != 2:
            continue
        fixed = len(fixed_points(g))
        if p % 4 == 1:
            assert fixed == (2 if in_psl(g) else 0)
        else:
            assert fixed == (0 if in_psl(g) else 2)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_two_point_stabilizer_sharply_transitive_on_rest(p):
    pts = all_points(p)
    stab = [
        g
        for g in all_matrices(p)
        if act(g, pts[0]) == pts[0] and act(g, pts[1]) == pts[1]
    ]
    assert len(stab) == p - 1
    images = {act(g, pts[2]) for g in stab}
    assert len(images) == p - 1
    assert pts[0] not in images and pts[1] not in images
