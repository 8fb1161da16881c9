"""Group materialization, subgroups, cosets, conjugacy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revmaps.gfproj import proj_matrix
from revmaps.groups import (
    GroupError,
    build_group,
    conjugacy_class,
    generates,
    right_cosets,
    subgroup_closure,
)
from revmaps.triples import psl_triple


# -- construction ---------------------------------------------------------------


@pytest.mark.parametrize(
    "family,p,m,order",
    [
        ("psl2", 5, 1, 60),
        ("pgl2", 7, 1, 336),
        ("ext", 7, 5, 1680),
        ("psl2", 13, 1, 1092),
    ],
)
def test_group_orders(family, p, m, order):
    assert build_group(family, p, m).order == order


def test_small_group_closed_under_multiplication():
    G = build_group("psl2", 5)
    for i in range(G.order):
        for j in range(G.order):
            assert 0 <= G.mul(i, j) < G.order


@pytest.mark.parametrize("family,p,m", [("psl2", 5, 1), ("pgl2", 7, 1), ("ext", 7, 3)])
def test_elements_are_sorted_and_distinct(family, p, m):
    G = build_group(family, p, m)
    assert list(G.elements) == sorted(set(G.elements))


def test_extended_group_closed_under_multiplication():
    # mul raises KeyError if a product leaves the element table
    X = build_group("ext", 7, 3)
    for i in range(X.order):
        for j in range(0, X.order, 97):
            X.mul(i, j)
    for i in range(0, X.order, 13):
        for j in range(X.order):
            X.mul(j, i)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_inverse_and_product_sampled(data):
    G = build_group("pgl2", 7)
    i = data.draw(st.integers(0, G.order - 1))
    j = data.draw(st.integers(0, G.order - 1))
    assert G.mul(i, G.inv(i)) == G.identity
    assert G.mul(G.inv(j), G.mul(j, i)) == i


@pytest.mark.parametrize(
    "family,p,m",
    [
        ("ext", 5, 3),  # p = 1 (mod 4)
        ("ext", 7, 2),  # even m
        ("ext", 7, 1),  # m = 1
        ("ext", 7, 21),  # gcd(m, p) = 7
        ("psl2", 7, 3),  # m on a plain family
        ("psl2", 4, 1),  # not prime
        ("psl2", 3, 1),  # too small
        ("weird", 5, 1),
    ],
)
def test_invalid_parameters_rejected(family, p, m):
    with pytest.raises(GroupError):
        build_group(family, p, m)


# -- involutions -----------------------------------------------------------------


def test_involution_census_psl25():
    G = build_group("psl2", 5)
    assert len(G.involutions()) == 15


def test_involution_census_pgl25_split():
    G = build_group("pgl2", 5)
    invs = G.involutions()
    inside = [i for i in invs if G.in_psl_part(i)]
    assert (len(inside), len(invs) - len(inside)) == (15, 10)


def test_identity_never_an_involution():
    G = build_group("psl2", 5)
    assert G.identity not in G.involutions()


# -- dihedral orders ----------------------------------------------------------------


def _pair_with_product_order(G, n):
    invs = G.involutions()
    for a in invs:
        for b in invs:
            if b != a and G.pair_order(a, b) == n:
                return a, b
    raise AssertionError(f"no involution pair with product order {n}")


def test_dihedral_order_from_product_order_five():
    G = build_group("psl2", 5)
    u, v = _pair_with_product_order(G, 5)
    assert 2 * G.pair_order(u, v) == 10


def test_klein_four_counts_as_dihedral_of_order_four():
    G = build_group("psl2", 5)
    u, v = _pair_with_product_order(G, 2)
    assert 2 * G.pair_order(u, v) == 4
    assert subgroup_closure(G, [u, v]).order == 4


def test_dihedral_order_values_psl213():
    # every involution pair generates D4, D6, D12, D14 or D26
    G = build_group("psl2", 13)
    invs = G.involutions()
    values = set()
    for a in range(len(invs)):
        for b in range(a + 1, len(invs)):
            values.add(2 * G.pair_order(invs[a], invs[b]))
    assert values == {4, 6, 12, 14, 26}


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_dihedral_law_matches_closure(data):
    G = build_group("psl2", 7)
    invs = G.involutions()
    u = data.draw(st.sampled_from(invs))
    v = data.draw(st.sampled_from(invs))
    if u == v:
        return
    sub = subgroup_closure(G, [u, v])
    assert sub.order == 2 * G.pair_order(u, v)


@pytest.mark.parametrize(
    "family,p,d", [("psl2", 5, 1), ("psl2", 7, 1), ("pgl2", 5, 2), ("pgl2", 7, 2)]
)
def test_dihedral_orders_divide_the_allowed_bounds(family, p, d):
    G = build_group(family, p)
    invs = G.involutions()
    allowed = (2 * p, d * (p + 1), d * (p - 1))
    for a in range(len(invs)):
        for b in range(a + 1, len(invs)):
            order = 2 * G.pair_order(invs[a], invs[b])
            assert any(bound % order == 0 for bound in allowed)


# -- subgroup closure ---------------------------------------------------------------


def test_closure_of_identity_is_trivial():
    G = build_group("psl2", 5)
    sub = subgroup_closure(G, [G.identity])
    assert sub.members == (G.identity,)


def test_closure_of_point_stabilizer_generators():
    # unipotent of order 13 with a diagonal of order 6 close to Z13 : Z6
    G = build_group("psl2", 13)
    u = G.index[proj_matrix(1, 1, 0, 1, 13)]
    dgn = G.index[proj_matrix(1, 0, 0, 4, 13)]
    assert (G.element_order(u), G.element_order(dgn)) == (13, 6)
    sub = subgroup_closure(G, [u, dgn])
    assert sub.order == 78


def test_lagrange_on_sampled_closures():
    G = build_group("pgl2", 5)
    for seed in (1, 7, 31, 60, 101):
        sub = subgroup_closure(G, [seed % G.order])
        assert G.order % sub.order == 0


# -- cosets ------------------------------------------------------------------------


def test_cosets_of_whole_group():
    G = build_group("psl2", 5)
    full = subgroup_closure(G, list(range(G.order)))
    assert len(right_cosets(G, full)) == 1


def test_cosets_of_trivial_subgroup():
    G = build_group("psl2", 5)
    triv = subgroup_closure(G, [G.identity])
    assert len(right_cosets(G, triv)) == G.order


def test_cosets_of_d10_in_psl25():
    G = build_group("psl2", 5)
    u, v = _pair_with_product_order(G, 5)
    part = right_cosets(G, subgroup_closure(G, [u, v]))
    assert len(part) == 6
    seen = set()
    for block in part.blocks:
        assert len(block) == 10
        assert block[0] == min(block)
        seen.update(block)
    assert seen == set(range(G.order))
    assert list(part.representatives) == sorted(part.representatives)


def test_coset_partition_rejects_foreign_subgroup():
    G5 = build_group("psl2", 5)
    G7 = build_group("psl2", 7)
    sub = subgroup_closure(G7, [G7.identity])
    with pytest.raises(GroupError):
        right_cosets(G5, sub)


# -- generation ---------------------------------------------------------------------


def test_full_set_generates():
    G = build_group("psl2", 5)
    assert generates(G, range(G.order))


def test_identity_does_not_generate():
    G = build_group("psl2", 5)
    assert not generates(G, [G.identity])


def test_construction_triple_generates():
    t = psl_triple(5, 2)
    assert generates(t.group, t.indices())


# -- conjugacy ----------------------------------------------------------------------


def test_class_of_identity():
    G = build_group("psl2", 5)
    assert conjugacy_class(G, G.identity) == (G.identity,)


def test_psl25_involutions_form_one_class():
    G = build_group("psl2", 5)
    invs = G.involutions()
    assert conjugacy_class(G, invs[0]) == invs


def test_pgl27_outside_involutions_form_one_class():
    # exhaustive orbit oracle: direct conjugation sweep, no library call
    G = build_group("pgl2", 7)
    outside = tuple(i for i in G.involutions() if not G.in_psl_part(i))
    seed = outside[0]
    orbit = sorted({G.mul(G.mul(G.inv(h), seed), h) for h in range(G.order)})
    assert tuple(orbit) == outside
    assert len(outside) == 28
    assert conjugacy_class(G, seed) == outside


# -- the extended family ---------------------------------------------------------------


def test_ext_twist_inverts_the_cyclic_factor():
    X = build_group("ext", 7, 3)
    c = X.index[(1, proj_matrix(1, 0, 0, 1, 7))]
    c_inv = X.index[(2, proj_matrix(1, 0, 0, 1, 7))]
    for g in range(X.order):
        conj = X.mul(X.mul(X.inv(g), c), g)
        if X.in_psl_part(g):
            assert conj == c
        else:
            assert conj == c_inv


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_membership_split_of_involution_pairs(p):
    # product order p+1 or p-1: exactly one of the pair lies in PSL;
    # product order p: both inside iff p = 1 (mod 4), both outside otherwise
    G = build_group("pgl2", p)
    invs = G.involutions()
    for a in range(len(invs)):
        for b in range(a + 1, len(invs)):
            u, v = invs[a], invs[b]
            n = G.pair_order(u, v)
            inside = G.in_psl_part(u) + G.in_psl_part(v)
            if n in (p + 1, p - 1):
                assert inside == 1
            elif n == p:
                assert inside == (2 if p % 4 == 1 else 0)


def test_ext_group_satisfies_lcm_of_classified_stabilizers():
    # the classified stabilizer orders recover the group order exactly
    X = build_group("ext", 7, 5)
    assert math.lcm(2 * 5 * 7, 2 * 8, 2 * 6, 2) == X.order


def test_order_mismatch_raises_group_error(monkeypatch):
    # a plain GroupError, not an assert that vanishes under python -O
    import revmaps.groups as groups

    monkeypatch.setattr(groups, "_CACHE", {})
    monkeypatch.setattr(groups, "psl_order", lambda p: 1)
    with pytest.raises(GroupError):
        build_group("psl2", 5)


# -- involution classes and conjugation maps ------------------------------------------------


@pytest.mark.parametrize(
    "family,p,m", [("psl2", 5, 1), ("psl2", 7, 1), ("pgl2", 7, 1), ("ext", 7, 3)]
)
def test_involution_classes_match_conjugacy(family, p, m):
    # psl2 7 takes the closure fallback for its generating involutions
    G = build_group(family, p, m)
    C = G.involution_classes()
    invs = G.involutions()
    assert sorted(u for cls in C.classes for u in cls.maps) == list(range(len(invs)))
    for cls in C.classes:
        members = {invs[u] for u in cls.maps}
        assert members == set(conjugacy_class(G, invs[cls.rep]))
        assert cls.rep == min(cls.maps)
        cent = cls.centralizer()
        assert len(cent) * cls.size == G.order
        commuting = [g for g in range(G.order) if G.conjugate(invs[cls.rep], g) == invs[cls.rep]]
        assert sorted(cent) == sorted(
            tuple(C.position[G.conjugate(v, g)] for v in invs) for g in commuting
        )
        for u, mu in list(cls.maps.items())[:5]:
            # mu is conjugation by one element taking the rep to u
            assert mu[cls.rep] == u
            assert any(
                all(invs[mu[i]] == G.conjugate(v, g) for i, v in enumerate(invs))
                for g in range(G.order)
                if G.conjugate(invs[cls.rep], g) == invs[u]
            )
            back = cls.inverse(u)
            assert all(back[mu[i]] == i for i in range(len(invs)))


def test_involution_classes_are_memoized_and_lazy():
    G = build_group("pgl2", 5)
    assert G.involution_classes() is G.involution_classes()
    fresh = type(G)("pgl2", 5, 1)
    fresh.involutions()
    assert fresh._involution_classes is None
