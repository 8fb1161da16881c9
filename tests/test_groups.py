"""Group materialization, subgroups, cosets, conjugacy."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    oracle_all_matrices,
    oracle_close_maps,
    oracle_closure,
    oracle_conjugacy_class,
    oracle_conjugate,
    oracle_elements,
    oracle_in_psl,
    oracle_involution_generators,
    oracle_product,
    oracle_twisted_orders,
)

from revmaps.gfproj import ProjMatrix, act, proj_matrix
from revmaps.groups import (
    ConstructionError,
    GroupError,
    GroupHandle,
    _closure,
    build_group,
    centralizer_generators,
    conjugacy_class,
    conjugacy_class_reps,
    generates,
    right_cosets,
    subgroup_closure,
)
from revmaps.triples import construction_census, ext_triple, psl_triple, scan_reversing_census
from revmaps.verify import VERIFY_MATRIX


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
    # class reps, and so the output bytes, are read off this order
    G = build_group(family, p, m)
    pairs = [(G.exponent_part(i), G.matrix_part(i)) for i in range(G.order)]
    assert pairs == sorted(set(pairs))
    assert all(G.element(e, g) == i for i, (e, g) in enumerate(pairs))


# every element on the three small groups; on ext 11 3 a stride of rows and
# of columns, every column of the strided rows for left_perm
@pytest.mark.parametrize(
    "family,p,m,step",
    [("psl2", 5, 1, 1), ("pgl2", 7, 1, 1), ("ext", 7, 3, 1), ("ext", 11, 3, 37)],
)
def test_arithmetic_matches_twisted_product_oracle(family, p, m, step):
    G = build_group(family, p, m)
    pairs = oracle_elements(family, p, m)
    assert len(pairs) == G.order
    at = {x: i for i, x in enumerate(pairs)}
    orders = oracle_twisted_orders(pairs, m)
    for h in range(0, G.order, step):
        x = pairs[h]
        assert (G.exponent_part(h), G.matrix_part(h)) == x
        assert G.in_psl_part(h) == oracle_in_psl(x[1])
        row = [at[oracle_product(x, y, m)] for y in pairs]
        assert G.left_perm(h) == row
        assert G.inv(h) == row.index(G.identity)
        assert G.element_order(h) == orders[x]
        for g in range(0, G.order, step):
            assert G.mul(h, g) == row[g]
            assert G.pair_order(h, g) == orders[pairs[row[g]]]


def test_element_rejects_a_matrix_outside_the_matrix_part():
    G = build_group("psl2", 7)
    with pytest.raises(GroupError):
        G.element(0, proj_matrix(3, 0, 0, 1, 7))  # det 3 is no square mod 7
    X = build_group("ext", 7, 3)
    assert X.element(4, proj_matrix(3, 0, 0, 1, 7)) == X.element(1, proj_matrix(3, 0, 0, 1, 7))


@pytest.mark.parametrize(
    "g",
    [
        ProjMatrix(2, 0, 0, 2, 7),  # the identity, scaled: same point code
        ProjMatrix(3, 6, 0, 3, 7),  # three times [[1, 2], [0, 1]]
        ProjMatrix(1, 1, 1, 1, 7),  # singular
        # matrices of larger primes, whose point codes may overrun the table
        ProjMatrix(1, 0, 0, 1, 11),
        ProjMatrix(1, 2, 3, 4, 13),
        ProjMatrix(1, 10, 10, 10, 11),
    ],
)
def test_element_refuses_what_is_no_normalized_matrix(g):
    # the point code ignores scale, so element compares the matrix it finds,
    # and it reads no code of a matrix of another prime
    G = build_group("pgl2", 7)
    with pytest.raises(GroupError, match="not in pgl2"):
        G.element(0, g)


def test_element_from_refuses_a_handle_of_another_store():
    # pgl2 and ext lift by position in their shared store; psl2 has its own
    G, S = build_group("pgl2", 7), build_group("psl2", 7)
    assert build_group("ext", 7, 3).element_from(1, G, 5) == G.order + 5
    with pytest.raises(GroupError, match="shares no matrix store"):
        G.element_from(0, S, 0)


def test_extended_group_closed_under_multiplication():
    X = build_group("ext", 7, 3)
    pairs = oracle_elements("ext", 7, 3)
    at = {x: i for i, x in enumerate(pairs)}

    def product(i, j):
        return at[oracle_product(pairs[i], pairs[j], 3)]

    for i in range(X.order):
        for j in range(0, X.order, 97):
            assert X.mul(i, j) == product(i, j)
    for i in range(0, X.order, 13):
        for j in range(X.order):
            assert X.mul(j, i) == product(j, i)


# every h on the three small groups; on the two larger ones a stride of h,
# since every h of ext 11 3 would cost 15.7M mul calls
@pytest.mark.parametrize(
    "family,p,m,step",
    [
        ("psl2", 5, 1, 1),
        ("pgl2", 7, 1, 1),
        ("ext", 7, 3, 1),
        ("psl2", 13, 1, 7),
        ("ext", 11, 3, 31),
    ],
)
def test_left_perm_matches_mul(family, p, m, step):
    G = build_group(family, p, m)

    def kind(h):
        # what the kernel branches on: exponent, twist sign, leading entry,
        # and the zero denominators of h's point relabelling (c = 0, where
        # infinity stays put, d = 0 and d = c, where 0 and 1 go to infinity)
        _, _, c, d, _ = g = G.matrix_part(h)
        return G.exponent_part(h), G.in_psl_part(h), g.a, d == 0, c == 0, d == c

    # the stride, and the least element of every kind the stride misses (on
    # ext 11 3 a stride of 31 misses 10 of the 42 kinds)
    hs = {kind(h): h for h in reversed(range(G.order))}
    hs = sorted({*range(0, G.order, step), *hs.values()})
    assert {kind(h) for h in hs} == {kind(h) for h in range(G.order)}
    for h in hs:
        perm = G.left_perm(h)
        assert perm == [G.mul(h, g) for g in range(G.order)]
        assert len(set(perm)) == G.order


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_point_index_codes_tell_the_matrices_apart(family, p, m):
    # each matrix sends its three points to 0, infinity and 1 under act, and
    # the table sends their code back to its position and every other code
    # to -1; the left multiplications read off it are permutations
    G = build_group(family, p, m)
    (zero, inf, one), table = G._points, G._table
    q, width = p + 1, G.order // m
    assert len(zero) == len(inf) == len(one) == width and len(table) == q**3
    codes = [(x * q + y) * q + z for x, y, z in zip(zero, inf, one)]
    assert len(set(codes)) == width
    assert [table[code] for code in codes] == list(range(width))
    assert table.count(-1) == q**3 - width
    for a in range(width):
        g = G.matrix_part(a)
        assert [act(g, t) for t in (zero[a], inf[a], one[a])] == [0, p, 1]
    for h in (*range(0, G.order, G.order // 5), *G.involution_generators()):
        assert sorted(G.left_perm(h)) == list(range(G.order))


def test_one_store_per_matrix_group(monkeypatch):
    # pgl2 and every ext of one p share one matrix listing (columns, points
    # and point table) and hold one pgl2 handle as matrix_group, in either
    # build order, and the handle cache is the only cache; psl2 has its own,
    # the PSL(2,p) matrices in the same order
    from revmaps import groups

    keys = (("pgl2", 7), ("ext", 7, 3), ("ext", 7, 5), ("psl2", 7))
    for order in (keys, keys[1:] + keys[:1]):
        monkeypatch.setattr(groups, "_CACHE", {})
        built = {key: build_group(*key) for key in order}
        G, X3, X5, S = (built[key] for key in keys)
        assert X3.matrix_group is X5.matrix_group is G
        assert G._cols is X3._cols is X5._cols
        assert G._points is X3._points is X5._points and G._table is X3._table is X5._table
        assert S._cols is not G._cols and S._points is not G._points
        assert S._table is not G._table
        assert all(g == G.matrix_part(G.element(0, g)) for g in map(S.matrix_part, range(S.order)))
        X = GroupHandle("ext", 7, 3)
        assert X._cols is G._cols and X._points is G._points and X._table is G._table
        assert X.matrix_group is G
        assert set(groups._CACHE) == {("pgl2", 7, 1), ("ext", 7, 3), ("ext", 7, 5), ("psl2", 7, 1)}


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_each_handle_holds_its_matrix_group(family, p, m):
    # the m = 1 handle its elements project onto: itself outside ext, and
    # one pgl2 handle for every ext of a p; a psl2 handle is not the pgl2 one
    G = build_group(family, p, m)
    assert G.matrix_group.m == 1
    assert (G.matrix_group is G) == (family != "ext")
    if family == "psl2":
        assert G.matrix_group is not build_group("pgl2", p)


@pytest.mark.parametrize(
    "check",
    [
        # the EXT projection: lcm(2, 2*21, 2*8, 2*6) = 336 falls short of
        # 1008, as gcd(3, 48) = 3
        lambda X: generates(X, ext_triple(7, 3, 0, 1, 0)) is True,
        lambda X: len(construction_census(X)) == 16,
    ],
    ids=["generates", "construction_census"],
)
def test_an_ext_handle_works_after_its_pgl2_handle_left_the_cache(monkeypatch, check):
    # both read the handle's own matrix group, not whatever the cache holds now
    from revmaps import groups

    X = build_group("ext", 7, 3)
    monkeypatch.setattr(groups, "_CACHE", {})
    assert check(X)


@pytest.mark.parametrize("p", [5, 7, 13, 31])
def test_psl_store_is_the_oracle_list_cut_to_psl(p):
    cols = build_group("psl2", p).matrix_columns()
    assert list(zip(*cols)) == [g[:4] for g in oracle_all_matrices(p) if oracle_in_psl(g)]


def _psl_retained(monkeypatch, p: int) -> tuple[GroupHandle, int]:
    """PSL(2,p) built from empty caches, and the bytes tracemalloc sees it keep."""
    import tracemalloc

    from revmaps import groups

    monkeypatch.setattr(groups, "_CACHE", {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = build_group("psl2", p)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return G, retained


def test_psl2_31_store_retains_under_a_megabyte(monkeypatch):
    # entry columns, not one ProjMatrix per element of PGL(2,31) (3.25 MB)
    G, retained = _psl_retained(monkeypatch, 31)
    assert G.order == 14880
    assert retained < 1_000_000, retained


def test_psl2_61_keeps_no_pgl_columns(monkeypatch):
    # PSL(2,61) listed from its determinants: no PGL(2,61) columns are kept
    # beside it (4.6 MiB when the store was cut from them, 2.6 MiB without)
    G, retained = _psl_retained(monkeypatch, 61)
    assert G.order == 113460
    assert retained < 3 * 2**20, retained


def test_store_refuses_a_shared_code(monkeypatch):
    # two equal matrices send the same points to 0, infinity and 1
    from revmaps import gfproj, groups

    for family, builder in (("pgl2", "all_matrices"), ("psl2", "psl_matrices")):

        def repeated(p, build=getattr(gfproj, builder)):
            cols, flags = build(p)
            return tuple(col[:1] * 2 + col[2:] for col in cols), flags

        monkeypatch.setattr(groups, builder, repeated)
        monkeypatch.setattr(groups, "_CACHE", {})
        with pytest.raises(GroupError, match="share a point code"):
            build_group(family, 5)


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
        # a bool m, which isinstance counts as an int, cached under the key
        # of m = 1 would echo "m": true in every later report of the group
        ("psl2", 5, True),
        ("pgl2", 7, True),
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
    assert len(subgroup_closure(G, [u, v])) == 4


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
    assert len(subgroup_closure(G, [u, v])) == 2 * G.pair_order(u, v)


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
    # the breadth-first closure behind generates; subgroup_closure spans involutions only
    G = build_group("psl2", 5)
    assert _closure(G, [G.identity]) == {G.identity}
    with pytest.raises(GroupError, match="not one or two involutions"):
        subgroup_closure(G, [G.identity])


def test_closure_of_point_stabilizer_generators():
    # unipotent of order 13 with a diagonal of order 6 close to Z13 : Z6; with
    # the involution swapping 0 and infinity instead, u generates PSL(2,13),
    # so the closure stops once it passes |G|/2 = 546
    G = build_group("psl2", 13)
    u = G.element(0, proj_matrix(1, 1, 0, 1, 13))
    dgn = G.element(0, proj_matrix(1, 0, 0, 4, 13))
    swap = G.element(0, proj_matrix(0, 1, 12, 0, 13))
    assert (G.element_order(u), G.element_order(dgn)) == (13, 6)
    assert sorted(_closure(G, [u, dgn])) == list(oracle_closure(G, [u, dgn]))
    assert len(_closure(G, [u, dgn])) == 78
    assert len(oracle_closure(G, [u, swap])) == G.order
    assert _closure(G, [u, swap]) is None


@pytest.mark.parametrize(
    "family,p,m,sample",
    [("psl2", 7, 1, None), ("pgl2", 5, 1, None), ("ext", 7, 3, 200), ("ext", 11, 3, 200)],
)
def test_dihedral_closures_match_oracle(family, p, m, sample):
    # every pair of involutions on the two small groups, 200 seeded pairs on ext
    G = build_group(family, p, m)
    pairs = list(combinations(G.involutions(), 2))
    if sample:
        pairs = random.Random(f"{family} {p} {m}").sample(pairs, sample)
    for u, v in pairs:
        assert subgroup_closure(G, [u, v]) == oracle_closure(G, [u, v]), (u, v)


def test_closures_of_other_generator_sets_match_oracle():
    # one involution, also repeated, spans a group of two; sets that are not
    # one or two involutions are refused, and generates closes them breadth first
    G = build_group("ext", 7, 3)
    u, v = G.involutions()[:2]
    w = next(g for g in range(G.order) if G.element_order(g) == 7)
    for gens in ([u], [u, u], [v, v, v]):
        assert subgroup_closure(G, gens) == oracle_closure(G, gens), gens
    assert subgroup_closure(G, [u, u]) == tuple(sorted((G.identity, u)))
    for gens in ([u, w], [w], [u, v, G.involutions()[-1]], []):
        with pytest.raises(GroupError, match="not one or two involutions"):
            subgroup_closure(G, gens)
        # the closure stops past |G|/2, where only the whole group is left
        slow = oracle_closure(G, gens)
        closed = _closure(G, gens)
        if len(slow) > G.order // 2:
            assert closed is None, gens
        else:
            assert tuple(sorted(closed)) == slow, gens


def test_lagrange_on_sampled_closures():
    G = build_group("pgl2", 5)
    for seed in (1, 7, 31, 60, 101):
        assert G.order % len(_closure(G, [seed % G.order])) == 0


# -- cosets ------------------------------------------------------------------------


def test_cosets_of_d10_in_psl25():
    G = build_group("psl2", 5)
    u, v = _pair_with_product_order(G, 5)
    sub = subgroup_closure(G, [u, v])
    label = right_cosets(G, [u, v])
    blocks = [[g for g in range(G.order) if label[g] == c] for c in range(max(label) + 1)]
    assert len(blocks) == 6
    assert sorted(g for block in blocks for g in block) == list(range(G.order))
    for block in blocks:
        assert len(block) == 10
        assert sorted(G.mul(h, block[0]) for h in sub) == block
    # ids are numbered by least member
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)


def test_cosets_refuse_what_is_not_one_or_two_involutions():
    # the contract of subgroup_closure, with its error
    G = build_group("psl2", 5)
    u, v = _pair_with_product_order(G, 5)
    w = next(g for g in range(G.order) if G.element_order(g) == 5)
    third = next(t for t in G.involutions() if t not in (u, v))
    for gens in ([], [u, v, third], [w], [u, w]):
        with pytest.raises(GroupError, match="not one or two involutions"):
            right_cosets(G, gens)
        with pytest.raises(GroupError, match="not one or two involutions"):
            subgroup_closure(G, gens)


@pytest.mark.parametrize(
    "family,p,m,n", [("psl2", 5, 1, 1), ("pgl2", 19, 1, 20), ("ext", 7, 9, 63), ("ext", 7, 9, 1)]
)
def test_cosets_cost_one_left_multiplication_and_a_product_per_coset(monkeypatch, family, p, m, n):
    # H = <u, v> with |uv| = n (u alone for n = 1): one left_perm, that of
    # r = u*v, then the product u*g with the least member g of each coset,
    # which reaches the second cycle of L_r in Hg
    G = build_group(family, p, m)
    u, v = _pair_with_product_order(G, n) if n > 1 else (G.involutions()[-1],) * 2
    lefts, muls = [], []
    left_perm, mul = GroupHandle.left_perm, GroupHandle.mul

    def spy_left(self, h):
        lefts.append(h)
        return left_perm(self, h)

    def spy_mul(self, i, j):
        muls.append((i, j))
        return mul(self, i, j)

    monkeypatch.setattr(GroupHandle, "left_perm", spy_left)
    monkeypatch.setattr(GroupHandle, "mul", spy_mul)
    label = right_cosets(G, [u, v])
    monkeypatch.undo()
    count = G.order // (2 * n)
    assert max(label) + 1 == count
    assert muls[0] == (u, v) and lefts == [G.mul(u, v)]
    assert muls[1:] == [(u, label.index(c)) for c in range(count)]


# -- generation ---------------------------------------------------------------------


def test_full_set_generates():
    G = build_group("psl2", 5)
    assert generates(G, range(G.order))


def test_identity_does_not_generate():
    G = build_group("psl2", 5)
    assert not generates(G, [G.identity])
    assert generates(G, []) is False


def test_construction_triple_generates():
    assert generates(build_group("psl2", 5), psl_triple(5, 2))


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


@pytest.mark.parametrize("family,p,m", [*VERIFY_MATRIX, ("pgl2", 13, 1), ("psl2", 17, 1)])
def test_conjugacy_classes_match_full_sweep(family, p, m):
    # the rotary check is a "for all a" claim: the reps must meet every class
    G = build_group(family, p, m)
    left = set(range(G.order))
    reps = []
    while left:
        g = min(left)
        cls = oracle_conjugacy_class(G, g)
        assert conjugacy_class(G, g) == cls
        reps.append(g)
        left -= set(cls)
    assert conjugacy_class_reps(G) == tuple(reps)
    assert sum(len(conjugacy_class(G, g)) for g in reps) == G.order


# -- the extended family ---------------------------------------------------------------


def test_ext_twist_inverts_the_cyclic_factor():
    X = build_group("ext", 7, 3)
    c = X.element(1, proj_matrix(1, 0, 0, 1, 7))
    c_inv = X.element(2, proj_matrix(1, 0, 0, 1, 7))
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


def test_budget_refuses_past_the_group_order():
    from revmaps.groups import BudgetExceeded

    with pytest.raises(BudgetExceeded, match="psl2 p=5 m=1: group order 60 exceeds budget 59"):
        build_group("psl2", 5, budget=59)
    assert build_group("psl2", 5, budget=60).order == 60


def test_order_mismatch_raises_group_error(monkeypatch):
    # a plain GroupError, not an assert that vanishes under python -O
    import revmaps.groups as groups

    monkeypatch.setattr(groups, "_CACHE", {})
    monkeypatch.setattr(groups, "group_order", lambda family, p, m=1: 1)
    with pytest.raises(GroupError):
        build_group("psl2", 5)


# -- involution classes and Schreier vectors ------------------------------------------------


@pytest.mark.parametrize(
    "family,p,m",
    [("psl2", 5, 1), ("psl2", 7, 1), ("pgl2", 7, 1), ("ext", 7, 3), ("ext", 7, 9)],
)
def test_involution_classes_match_conjugacy(family, p, m):
    # psl2 7 (p = 3 mod 4) has no generating pair of order-p product; the
    # Schreier trees of ext 7 9 run thirteen levels deep
    G = build_group(family, p, m)
    C = G.involution_classes()
    invs = G.involutions()
    gens = G.involution_generators()
    assert sorted(u for cls in C.classes for u in cls.members) == list(range(len(invs)))
    for cls in C.classes:
        members = {invs[u] for u in cls.members}
        assert members == set(conjugacy_class(G, invs[cls.rep]))
        assert cls.rep == min(cls.members) == cls.members[0]
        maps = [
            [C.position[u] for u in G.conjugates(t, invs)]
            for t in centralizer_generators(G, cls)
        ]
        cent = oracle_close_maps(maps, tuple(range(len(invs))))
        assert len(cent) * cls.size == G.order
        rep = invs[cls.rep]
        commuting = [g for g in range(G.order) if oracle_conjugate(G, rep, g) == rep]
        assert sorted(cent) == sorted(
            tuple(C.position[oracle_conjugate(G, v, g)] for v in invs) for g in commuting
        )
        ys = list(range(0, len(invs), 3))
        for u in cls.members[:3] + cls.members[-3:]:
            assert cls.from_rep(u, [cls.rep]) == [u]
            assert cls.to_rep(u, cls.from_rep(u, ys)) == ys
            # t_u is the product of the generating involutions on the path
            # from the rep down to u
            path = []
            w = u
            while w != cls.rep:
                w, k = cls.parent[w]
                path.append(gens[k])
            t = G.identity
            for s in reversed(path):
                t = G.mul(t, s)
            assert oracle_conjugate(G, rep, t) == invs[u]
            assert [invs[v] for v in cls.from_rep(u, ys)] == [
                oracle_conjugate(G, invs[y], t) for y in ys
            ]


def test_involution_classes_allocate_little_per_involution():
    # a Schreier vector keeps O(1) per involution, not a conjugation list of
    # every involution per member
    import tracemalloc

    import revmaps.groups as groups

    fresh = groups.GroupHandle("pgl2", 19, 1)
    fresh.involution_generators()
    n = len(fresh.involutions())
    tracemalloc.start()
    try:
        fresh.involution_classes()
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert allocated < 1024 * n


def test_generating_involutions_are_searched_once_per_handle(monkeypatch):
    # in psl2 7 the search reads the y of its triple off x's row
    import revmaps.groups as groups

    calls = []

    def counted(G):
        calls.append(G)
        return search(G)

    search = groups._generating_triple
    monkeypatch.setattr(groups, "_generating_triple", counted)
    fresh = groups.GroupHandle("psl2", 7, 1)
    fresh.involution_classes()
    fresh.conjugation_perms()
    assert calls == [fresh]


def test_generator_search_tests_each_grown_set_once(monkeypatch):
    # in psl2 7 no product of two involutions has order 7; the search takes
    # x = [[0, 1], [-1, 0]], y with |xy| = 4 and a w whose word xyw has
    # order 7, and tests generation once, on the triple, which the word
    # settles
    import revmaps.groups as groups

    calls = []
    real = groups.generates

    def counted(G, gens):
        calls.append(tuple(gens))
        return real(G, gens)

    monkeypatch.setattr(groups, "generates", counted)
    fresh = groups.GroupHandle("psl2", 7, 1)
    x, y, w = fresh.involution_generators()
    assert fresh.matrix_part(x) == ProjMatrix(0, 1, 6, 0, 7)
    assert (x, y, w) == (14, 50, 56)
    assert calls == [(14, 50, 56)]


def _assert_search_closes_nothing(fresh, monkeypatch):
    import revmaps.groups as groups

    calls = []
    real = groups._closure

    def counted(G, gens):
        calls.append(tuple(gens))
        return real(G, gens)

    monkeypatch.setattr(groups, "_closure", counted)
    gens = fresh.involution_generators()
    assert calls == []
    monkeypatch.setattr(groups, "_closure", real)
    assert len(oracle_closure(fresh, gens)) == fresh.order


@pytest.mark.parametrize("p", [7, 11, 19, 23, 31])
def test_generator_search_closes_nothing_in_psl2(p, monkeypatch):
    # p = 3 mod 4: the lcm of dihedral orders stalls below |G|, and the
    # orders of words of three involutions prove generation
    _assert_search_closes_nothing(GroupHandle("psl2", p, 1), monkeypatch)


@pytest.mark.parametrize("p,m", [(7, 3), (7, 5), (11, 3), (19, 5)])
def test_generator_search_closes_nothing_in_ext(p, m, monkeypatch):
    # the pair x, y with |xy| = m*p sends generates to PGL(2,p), where the
    # dihedral orders of the three projections and the order of their word
    # settle it by the lcm
    fresh = GroupHandle("ext", p, m)
    _assert_search_closes_nothing(fresh, monkeypatch)
    x, y, _ = gens = fresh.involution_generators()
    assert fresh.pair_order(x, y) == m * p
    Gp = build_group("pgl2", p)
    x, y, w = (Gp.element_from(0, fresh, u) for u in gens)
    assert Gp.pair_order(x, y) == p
    pairs = (Gp.pair_order(x, y), Gp.pair_order(x, w), Gp.pair_order(y, w))
    assert math.lcm(*(n + n for n in pairs), Gp.pair_order(Gp.mul(x, y), w)) == Gp.order


@pytest.mark.parametrize(
    "family,p",
    [(family, p) for family, p, _ in VERIFY_MATRIX if family != "ext"]
    + [("pgl2", 19), ("psl2", 23), ("psl2", 31)],
)
def test_generator_search_matches_the_pair_order_search(family, p):
    # the bulk rows score every candidate as multiplied-out pair orders do,
    # the first in index order taken
    assert GroupHandle(family, p, 1).involution_generators() == oracle_involution_generators(
        build_group(family, p)
    )


@pytest.mark.parametrize("p,m", [(p, m) for family, p, m in VERIFY_MATRIX if family == "ext"])
def test_generator_search_matches_the_oracle_in_ext(p, m):
    assert GroupHandle("ext", p, m).involution_generators() == oracle_involution_generators(
        build_group("ext", p, m)
    )


@pytest.mark.parametrize("family,p", [("pgl2", 19), ("psl2", 31)])
def test_generator_search_reads_rows_not_pair_orders(family, p, monkeypatch):
    # psl2 31 (p = 3 mod 4) reads y off x's row; both read at most four
    # bulk rows, store none, and call pair_order only in the one generates
    # call that confirms the triple
    import revmaps.groups as groups

    events = []
    real_order, real_generates = groups.GroupHandle.pair_order, groups.generates
    real_products = groups.DihedralTable.products

    def pair_order(G, i, j):
        events.append("pair_order")
        return real_order(G, i, j)

    def generates(G, gens):
        events.append("generates")
        answer = real_generates(G, gens)
        events.append("generated")
        return answer

    def products(table, g):
        events.append("row")
        return real_products(table, g)

    monkeypatch.setattr(groups.GroupHandle, "pair_order", pair_order)
    monkeypatch.setattr(groups, "generates", generates)
    monkeypatch.setattr(groups.DihedralTable, "products", products)
    fresh = GroupHandle(family, p, 1)
    assert len(fresh.involution_generators()) == 3
    assert events.count("generates") == 1 and events[-1] == "generated"
    search = events[: events.index("generates")]
    assert set(search) == {"row"} and len(search) <= 4
    assert fresh.dihedral_table().built() == []


@pytest.mark.parametrize(
    "family,p,patch,message",
    [
        ("pgl2", 7, "products", "no generating triple"),
        ("psl2", 7, "products", "no generating triple"),
        ("pgl2", 7, "generates", "do not generate"),
    ],
)
def test_generator_search_failure_is_an_internal_error(
    family, p, patch, message, monkeypatch, capsys
):
    # a missing y or w, or a triple generates refuses, is a bug of the
    # search: a ConstructionError, which the CLI reports on one line, exit 4
    import revmaps.groups as groups
    from revmaps import cli

    monkeypatch.setattr(groups, "_CACHE", {})
    if patch == "products":
        monkeypatch.setattr(
            groups.DihedralTable, "products", lambda table, g: [1] * len(table._group.involutions())
        )
    else:
        monkeypatch.setattr(groups, "generates", lambda G, gens: False)
    with pytest.raises(groups.ConstructionError, match=message):
        build_group(family, p).involution_generators()
    assert cli.main(["enumerate", "--family", family, "--p", str(p)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and len(err.strip().splitlines()) == 1


def test_uncertified_centralizer_is_an_internal_error(monkeypatch, capsys):
    # a span whose order misses |G|/|class| is a bug: a ConstructionError,
    # exit 4 from the CLI.  The handle keeps the centralizer maps of a scan,
    # so the CLI runs on a fresh cache holding a handle whose generators,
    # classes and dihedral rows were built on true bulk rows: its scan reads
    # the patched bulk row in the centralizer alone
    import revmaps.groups as groups
    from revmaps import cli

    monkeypatch.setattr(groups, "_CACHE", {})
    G = build_group("pgl2", 19)
    # one pattern, (38, 40, 36), of slotted hits, folded by the centralizer
    assert len(scan_reversing_census(G).qualifying[0].classes) == 24
    fresh = GroupHandle("pgl2", 19, 1)
    fresh.involution_classes()
    table = fresh.dihedral_table()
    for x in range(len(fresh.involutions())):
        table[x]
    monkeypatch.setattr(groups, "_CACHE", {("pgl2", 19, 1): fresh})
    monkeypatch.setattr(
        groups.DihedralTable, "products", lambda table, g: [1] * len(table._group.involutions())
    )
    message = "has no certified generators"
    with pytest.raises(groups.ConstructionError, match=message):
        centralizer_generators(G, G.involution_classes().classes[0])
    assert cli.main(["enumerate", "--family", "pgl2", "--p", "19"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and len(err.strip().splitlines()) == 1


def test_a_rep_with_no_commuting_involution_has_no_certified_generators():
    # with the 4s of the rep's stored row zeroed, no involution commutes
    # with it, and there is no t1 to start the span from
    G = GroupHandle("pgl2", 7, 1)
    cls = G.involution_classes().classes[0]
    row = G.dihedral_table()[cls.rep]
    commuting = [y for y, d in enumerate(row) if d == 4]
    assert commuting
    for y in commuting:
        row[y] = 0
    with pytest.raises(ConstructionError, match="has no certified generators"):
        centralizer_generators(G, cls)


# the kernel branches on the twist sign of s and g and on the exponents, so
# each family is covered, and ext with m = 3 and m = 5
@pytest.mark.parametrize(
    "family,p,m",
    [("psl2", 7, 1), ("psl2", 13, 1), ("pgl2", 7, 1), ("pgl2", 13, 1), ("ext", 7, 3), ("ext", 7, 5)],
)
def test_conjugates_match_conjugate(family, p, m):
    G = build_group(family, p, m)
    # the generators, and one involution of each exponent and twist sign
    kinds = {(G.exponent_part(s), G.in_psl_part(s)): s for s in reversed(G.involutions())}
    for s in {*G.involution_generators(), *kinds.values()}:
        want = [oracle_conjugate(G, g, s) for g in range(G.order)]
        assert G.conjugates(s, range(G.order)) == want
    assert G.conjugates(G.involutions()[0], []) == []


def test_involution_classes_are_memoized_and_lazy():
    G = build_group("pgl2", 5)
    assert G.involution_classes() is G.involution_classes()
    fresh = type(G)("pgl2", 5, 1)
    fresh.involutions()
    assert fresh._involution_classes is None
