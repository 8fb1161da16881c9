"""Triple constructions and exhaustive enumeration."""

import math
import random
from itertools import combinations

import pytest
from oracle import (
    oracle_closure,
    oracle_conjugate,
    oracle_construction_census,
    oracle_cyclic_subgroup_involution,
    oracle_enumerate,
    oracle_expand,
    oracle_fold_classes,
    oracle_pattern,
    oracle_two_point_stabilizer_involution,
)

from revmaps.gfproj import act, all_points, fixed_points
from revmaps import groups, triples
from revmaps.groups import (
    GroupError,
    build_group,
    centralizer_generators,
    conjugacy_class_reps,
    generates,
)
from revmaps.triples import (
    ConstructionError,
    construction_census,
    enumerate_reversing_triples,
    ext_triple,
    make_triple,
    pgl_triple,
    predicted_pattern,
    psl_triple,
    scan_reversing_census,
    triple_conjugacy_classes,
)
from revmaps.verify import VERIFY_MATRIX


# -- construction over PSL(2,p) -------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_psl_pattern_p5(k):
    G = build_group("psl2", 5)
    t = psl_triple(5, k)
    assert oracle_pattern(G, t) == (10, 6, 4)
    assert generates(G, t)


def test_psl_pattern_p13():
    G = build_group("psl2", 13)
    t = psl_triple(13, 2)
    assert oracle_pattern(G, t) == (26, 14, 12)
    assert generates(G, t)


def test_psl_requires_one_mod_four():
    with pytest.raises(GroupError):
        psl_triple(7, 2)


def test_psl_k_range():
    with pytest.raises(GroupError):
        psl_triple(5, 1)
    with pytest.raises(GroupError):
        psl_triple(5, 6)


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41, 53, 61])
def test_anchor_formula_matches_the_sweep(p):
    # diag(1, -1) in closed form against the sweep over every involution
    G = build_group("psl2", p)
    assert triples._anchor(G) == oracle_two_point_stabilizer_involution(G)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_cyclic_involution_formula_matches_the_power_loop(p):
    # the pgl2 anchor's closed form against g^((p+1)/2)
    G = build_group("pgl2", p, budget=None)
    assert triples._anchor(G) == oracle_cyclic_subgroup_involution(G, p + 1)


def test_construction_census_computes_the_anchor_once(monkeypatch):
    # one anchor serves all twelve points of pgl2 11
    calls = []

    def counted(G):
        calls.append(G)
        return anchor(G)

    anchor = triples._anchor
    monkeypatch.setattr(triples, "_anchor", counted)
    assert construction_census(build_group("pgl2", 11))
    assert len(calls) == 1


def test_psl_members_fix_the_chosen_point():
    G = build_group("psl2", 13)
    x, y, z = psl_triple(13, 4)
    delta = all_points(13)[4]
    assert act(G.matrix_part(x), delta) == delta
    assert act(G.matrix_part(y), delta) == delta
    # z stabilizes a point pair: exactly two fixed points
    assert len(fixed_points(G.matrix_part(z))) == 2


# -- construction over PGL(2,p) -----------------------------------------------------


def test_pgl_pattern_p5():
    G = build_group("pgl2", 5)
    t = pgl_triple(5, 0)
    assert oracle_pattern(G, t) == (10, 12, 8)
    assert generates(G, t)


def test_pgl_pattern_p7_with_membership_split():
    G = build_group("pgl2", 7)
    x, y, z = pgl_triple(7, 0)
    assert oracle_pattern(G, (x, y, z)) == (14, 16, 12)
    assert not G.in_psl_part(x) and not G.in_psl_part(y)
    assert G.in_psl_part(z)


def test_pgl_p5_membership_split_flips():
    G = build_group("pgl2", 5)
    x, y, z = pgl_triple(5, 0)
    assert G.in_psl_part(x) and G.in_psl_part(y)
    assert not G.in_psl_part(z)


# -- construction over the extended family --------------------------------------------


def test_ext_pattern_7_5():
    G = build_group("ext", 7, 5)
    t = ext_triple(7, 5, 0, 1, 0)
    assert oracle_pattern(G, t) == (70, 16, 12)
    assert generates(G, t)


def test_ext_pattern_11_3():
    G = build_group("ext", 11, 3)
    t = ext_triple(11, 3, 1, 1, 0)
    assert oracle_pattern(G, t) == (66, 24, 20)
    assert generates(G, t)


def test_ext_exponent_difference_must_be_a_unit():
    with pytest.raises(GroupError):
        ext_triple(7, 5, 0, 2, 2)
    with pytest.raises(GroupError):
        ext_triple(7, 5, 0, 6, 1)  # difference 5 = 0 mod 5


def test_make_triple_refuses_a_pattern_off_the_prediction():
    G = build_group("psl2", 5)
    x, y, z = psl_triple(5, 2)
    assert make_triple(G, x, y, z) == (x, y, z)
    # swapping x and y swaps the face orders: (10, 4, 6)
    with pytest.raises(ConstructionError, match=r"\(10, 4, 6\), expected \(10, 6, 4\)"):
        make_triple(G, y, x, z)


def _single_constructions(family, p, m):
    if family == "psl2":
        return [psl_triple(p, k) for k in range(2, p + 1)]
    if family == "pgl2":
        return [pgl_triple(p, k) for k in range(p + 1)]
    return [
        ext_triple(p, m, k, c1, c2)
        for k in range(p + 1)
        for c1 in range(m)
        for c2 in range(m)
        if math.gcd(c1 - c2, m) == 1
    ]


@pytest.mark.parametrize(
    "family,p,m,count",
    [
        ("psl2", 5, 1, 4),
        ("psl2", 13, 1, 12),
        ("pgl2", 5, 1, 6),
        ("pgl2", 7, 1, 8),
        ("ext", 7, 3, 48),
        ("ext", 7, 5, 160),
    ],
)
def test_each_construction_lies_in_its_construction_census(family, p, m, count):
    # the single constructions and the census share the point search and the
    # ext lift; the ext census lists only lifts with c1 = 0, so a single ext
    # construction lies in it up to conjugation
    G = build_group(family, p, m)
    made = _single_constructions(family, p, m)
    assert len(made) == count
    census = construction_census(G)
    if family != "ext":
        assert set(made) <= set(census)

    def minima(triples):
        return {rep for rep, _ in triple_conjugacy_classes(G, triples)}

    assert minima(made) <= minima(census)


@pytest.mark.parametrize(
    "p,m", [(p, m) for family, p, m in VERIFY_MATRIX if family == "ext"] + [(7, 9)]
)
def test_ext_construction_census_meets_the_classes_of_the_full_lift(p, m):
    # conjugation by (d, 1) moves c1 to 0, so the lifts with c1 = 0 meet
    # every class that all m*phi(m) exponent pairs meet, and no other
    G = build_group("ext", p, m)
    census = construction_census(G)
    full = oracle_construction_census(G)
    assert set(census) < set(full)
    assert all(G.exponent_part(x) == 0 for x, _, _ in census)
    assert sorted(triple_conjugacy_classes(G, census)) == sorted(triple_conjugacy_classes(G, full))


# -- enumeration ------------------------------------------------------------------------


def test_enumeration_psl25_nonempty_and_pairs_share_a_point():
    G = build_group("psl2", 5)
    triples = enumerate_reversing_triples(G, (10, 6, 4))
    assert triples
    for x, y, _ in triples:
        fx = set(fixed_points(G.matrix_part(x)))
        fy = set(fixed_points(G.matrix_part(y)))
        assert fx & fy


def test_enumeration_psl27_empty():
    G = build_group("psl2", 7)
    assert enumerate_reversing_triples(G, (14, 8, 6)) == []


def _assert_construction_closure_matches_enumeration(G, pattern):
    cons = construction_census(G)
    # every construction triple realizes the pattern and generates, so it
    # lies in the full enumeration
    for t in cons:
        assert oracle_pattern(G, t) == pattern and generates(G, t)
    fibers = enumerate_reversing_triples(G, pattern)
    cons_reps = {r for r, _ in triple_conjugacy_classes(G, cons)}
    enum_reps = {r for r, _ in triple_conjugacy_classes(G, fibers)}
    assert cons_reps == enum_reps


def test_enumeration_matches_construction_closure_psl25():
    _assert_construction_closure_matches_enumeration(
        build_group("psl2", 5), (10, 6, 4)
    )


def test_enumeration_matches_construction_closure_pgl25():
    _assert_construction_closure_matches_enumeration(
        build_group("pgl2", 5), (10, 12, 8)
    )


@pytest.mark.parametrize("p", [7, 11])
def test_no_psl_pattern_when_p_is_three_mod_four(p):
    G = build_group("psl2", p)
    assert enumerate_reversing_triples(G, (2 * p, p + 1, p - 1)) == []


def test_blind_scan_agrees_with_slotted_enumeration_psl25():
    G = build_group("psl2", 5)
    scan = scan_reversing_census(G)
    assert [c.pattern for c in scan.qualifying] == [(10, 6, 4)]
    census = scan.qualifying[0]
    everything = oracle_expand(G, census.triples)
    assert set(everything) == set(oracle_enumerate(G, (10, 6, 4)))
    fibers = enumerate_reversing_triples(G, (10, 6, 4))
    minima = {G.involutions()[c.rep] for c in G.involution_classes().classes}
    assert [t for t in everything if t[0] in minima] == fibers
    classes = triple_conjugacy_classes(G, fibers)
    assert census.classes == tuple(r for r, _ in classes)
    assert len(everything) == census.raw_triples == sum(size for _, size in classes)


@pytest.mark.parametrize(
    "family,p,m",
    [*VERIFY_MATRIX, ("pgl2", 19, 1), ("psl2", 31, 1), ("ext", 7, 9), ("ext", 11, 5)],
)
def test_centralizers_from_commuting_involutions(family, p, m):
    # the certificate: involutions commuting with the rep whose span has
    # |G| / |class| elements generate C(rep); on the PSL side of ext the
    # third one carries Z_m
    G = build_group(family, p, m)
    invs = G.involutions()
    for cls in G.involution_classes().classes:
        r = invs[cls.rep]
        gens = centralizer_generators(G, cls)
        assert all(G.is_involution(t) and oracle_conjugate(G, r, t) == r for t in gens)
        assert len(oracle_closure(G, gens)) * cls.size == G.order
        assert len(gens) == (3 if family == "ext" and G.in_psl_part(r) else 2)
    # the scan fibers and the construction census fold to the classes that
    # the whole Schreier closure of each centralizer gives
    fibers = [c.triples for c in scan_reversing_census(G).qualifying if c.classes]
    for listed in (*fibers, construction_census(G)):
        assert triple_conjugacy_classes(G, listed) == oracle_fold_classes(G, listed)


@pytest.mark.parametrize(
    "family,p,fibers,raw", [("psl2", 13, 144, 13104), ("pgl2", 19, 864, 164160)]
)
def test_slotted_census_keeps_only_the_scanned_fibers(family, p, fibers, raw):
    G = build_group(family, p)
    (census,) = scan_reversing_census(G).qualifying
    C = G.involution_classes()
    invs = G.involutions()
    assert all(invs[C.class_of[C.position[x]].rep] == x for x, _, _ in census.triples)
    assert sorted(census.triples) == sorted(enumerate_reversing_triples(G, census.pattern))
    assert (len(census.triples), census.raw_triples) == (fibers, raw)


def test_predicted_patterns():
    assert predicted_pattern("psl2", 13) == (26, 14, 12)
    assert predicted_pattern("psl2", 7) is None
    assert predicted_pattern("pgl2", 7) == (14, 16, 12)
    assert predicted_pattern("ext", 7, 5) == (70, 16, 12)
    with pytest.raises(GroupError, match="unknown family"):
        predicted_pattern("sl2", 7)


@pytest.fixture
def generation_path(monkeypatch):
    """Run ``groups.generates`` against the plain closure and name the path that answered.

    The path is "ext" when the test recursed into PGL(2,p), "closure" when
    it closed the generators in G, "words" when it multiplied (for the
    orders of words of three involutions) but closed nothing, and "lcm" when
    none of these ran.
    """
    calls = []
    real_closure, real_generates = groups._closure, groups.generates
    real_mul = groups.GroupHandle.mul

    def closure(G, gens):
        calls.append(("closure", G.family))
        return real_closure(G, gens)

    def generates(G, gens):
        calls.append(("generates", G.family))
        return real_generates(G, gens)

    def mul(G, i, j):
        calls.append(("mul", G.family))
        return real_mul(G, i, j)

    monkeypatch.setattr(groups, "_closure", closure)
    monkeypatch.setattr(groups, "generates", generates)
    monkeypatch.setattr(groups.GroupHandle, "mul", mul)

    def run(G, gens):
        slow = len(oracle_closure(G, gens)) == G.order
        calls.clear()
        fast = groups.generates(G, gens)
        assert fast == slow, (G, gens)
        kinds = {kind for kind, _ in calls}
        if ("generates", "pgl2") in calls[1:]:
            return "ext", fast
        if "closure" in kinds:
            return "closure", fast
        return ("words" if "mul" in kinds else "lcm"), fast

    return run


def test_generation_fast_paths_match_plain_closure(generation_path):
    # lcm: the pgl2 7 construction triples have dihedral orders (14, 16, 12),
    # whose lcm 336 is |PGL(2,7)|
    G = build_group("pgl2", 7)
    cons = construction_census(G)
    assert {generation_path(G, t) for t in cons} == {("lcm", True)}
    # EXT projection: in ext 7 3, lcm(42, 16, 12) = 336 < 1008, and |xy| = 21 = m*p
    X = build_group("ext", 7, 3)
    ext_cons = construction_census(X)
    assert {generation_path(X, t) for t in ext_cons[::7]} == {("ext", True)}
    # (x, y, xyx) keeps |xy| = 21, but its matrix parts span a dihedral group
    x, y, _ = ext_cons[0]
    assert generation_path(X, (x, y, oracle_conjugate(X, y, x))) == ("ext", False)
    # words: in psl2 7 no product of two involutions has order 7, but one of
    # three can; the closure answers the triples whose words fall short
    P = build_group("psl2", 7)
    invs = P.involutions()
    got = {
        generation_path(P, (invs[0], invs[i], invs[j]))
        for i in range(1, 16)
        for j in range(i + 1, 16)
    }
    assert got == {("words", True), ("closure", True), ("closure", False)}
    # non-involution pairs (a, z), as check_no_rotary passes them
    for H in (G, X):
        answers = {
            generation_path(H, (a, z))[1]
            for a in conjugacy_class_reps(H)
            for z in H.involutions()[::11]
        }
        assert answers == {True, False}
    # one, two and four generators
    for H in (G, X, P):
        assert not any(generation_path(H, (a,))[1] for a in conjugacy_class_reps(H))
    tx, ty, tz = cons[0]
    assert generation_path(G, (tx, ty)) == ("closure", False)
    assert generation_path(G, (tx, ty, tz, cons[-1][0])) == ("lcm", True)
    assert generation_path(X, (x, y)) == ("ext", False)
    assert generation_path(X, (*ext_cons[0], ext_cons[-1][1])) == ("ext", True)
    assert generation_path(P, invs[:4])[0] == "closure"


def _dihedral_sets(G, u, v):
    """Three and four involutions inside the dihedral group <u, v>, which they do not generate."""
    uvu, vuv = oracle_conjugate(G, v, u), oracle_conjugate(G, u, v)
    return [(u, v, uvu), (u, v, uvu, vuv)]


def test_word_orders_match_plain_closure(generation_path):
    # every 3-subset of the first 16 involutions of psl2 7
    P = build_group("psl2", 7)
    got = {generation_path(P, t) for t in combinations(P.involutions()[:16], 3)}
    assert got == {("words", True), ("closure", True), ("closure", False)}
    # seeded 3- and 4-sets, the generators the search found, and dihedral
    # sets; in ext 7 3 the projection to PGL(2,7) answers before any word
    rng = random.Random(21)
    configs = [("psl2", 11, 1), ("psl2", 19, 1), ("psl2", 23, 1), ("pgl2", 7, 1), ("ext", 7, 3)]
    for family, p, m in configs:
        G = build_group(family, p, m)
        gens = G.involution_generators()
        sets = [rng.sample(G.involutions(), k) for k in (3, 3, 3, 3, 4, 4, 4)]
        sets += [gens, *_dihedral_sets(G, *gens[:2])]
        got = {generation_path(G, s) for s in sets}
        assert ("closure", False) in got
        assert (("words", True) in got) == (family != "ext")


@pytest.mark.parametrize("family,p,m", [*VERIFY_MATRIX, ("pgl2", 19, 1)])
def test_hits_taken_on_the_lcm_generate(family, p, m, monkeypatch):
    # the scan and the enumeration take every hit of a pattern whose lcm is
    # |G| without calling generates; the plain closure must confirm them
    from revmaps import triples

    G = build_group(family, p, m)
    tested = set()
    real = triples.generates

    def counted(H, gens):
        # generates sorts its argument, and the engine passes the scan's order
        tested.add(tuple(sorted(gens)))
        return real(H, gens)

    monkeypatch.setattr(triples, "generates", counted)
    hits = {t for c in scan_reversing_census(G).qualifying for t in c.triples}
    pattern = predicted_pattern(family, p, m)
    if pattern:
        hits |= set(enumerate_reversing_triples(G, pattern))
    settled = {t for t in hits if tuple(sorted(t)) not in tested}
    assert all(
        math.lcm(*oracle_pattern(G, t)) == G.order for t in settled
    ), "a hit was taken without generates on a pattern whose lcm is below |G|"
    if pattern and math.lcm(*pattern) == G.order:
        assert settled == hits and not tested
    if G.order > 5000:
        # pgl2 19: 864 hits in 24 orbits.  Generation is invariant under
        # conjugation, so one closure per orbit minimum (a hit of the same
        # fiber) stands for its orbit, 36 times fewer closures than one per hit.
        assert len(settled) == 864
        classes = triple_conjugacy_classes(G, settled)
        assert len(classes) == 24 and {t for t, _ in classes} <= settled
        settled = {t for t, _ in classes}
    assert all(len(oracle_closure(G, t)) == G.order for t in settled)


def test_mid_size_census_pgl2_19(tmp_path):
    # a mid-size census through the command: 361 involutions, 7.8M unordered triples
    import json

    from revmaps import cli

    out = tmp_path / "census.json"
    assert cli.main(["enumerate", "--family", "pgl2", "--p", "19", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["group_order"] == 6840
    assert payload["combos_scanned"] == 361 * 360 * 359 // 6
    assert [
        (q["pattern"], q["raw_triples"], q["classes"]) for q in payload["qualifying"]
    ] == [([38, 40, 36], 164160, 24)]
