"""Triple constructions and exhaustive enumeration."""

import pytest

from revmaps.gfproj import act, all_points, fixed_points
from revmaps.groups import GroupError, build_group
from revmaps.triples import (
    TriplePattern,
    construction_census,
    enumerate_reversing_triples,
    ext_triple,
    pgl_triple,
    psl_triple,
    scan_reversing_census,
    triple_conjugacy_classes,
    two_point_stabilizer_involution,
)


# -- construction over PSL(2,p) -------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_psl_pattern_p5(k):
    t = psl_triple(5, k)
    assert t.pattern == (10, 6, 4)
    assert t.generates


def test_psl_pattern_p13():
    t = psl_triple(13, 2)
    assert t.pattern == (26, 14, 12)
    assert t.generates


def test_psl_requires_one_mod_four():
    with pytest.raises(GroupError):
        psl_triple(7, 2)


def test_psl_k_range():
    with pytest.raises(GroupError):
        psl_triple(5, 1)
    with pytest.raises(GroupError):
        psl_triple(5, 6)


def test_anchor_involution_is_unique_in_two_point_stabilizer():
    G = build_group("psl2", 5)
    z = two_point_stabilizer_involution(G)
    pts = all_points(5)
    mat = G.elements[z]
    assert act(mat, pts[0]) == pts[0] and act(mat, pts[1]) == pts[1]
    others = [
        i
        for i in G.involutions()
        if act(G.elements[i], pts[0]) == pts[0] and act(G.elements[i], pts[1]) == pts[1]
    ]
    assert others == [z]


def test_psl_members_fix_the_chosen_point():
    t = psl_triple(13, 4)
    G = t.group
    delta = all_points(13)[4]
    assert act(G.elements[t.x], delta) == delta
    assert act(G.elements[t.y], delta) == delta
    # z stabilizes a point pair: exactly two fixed points
    assert len(fixed_points(G.elements[t.z])) == 2


# -- construction over PGL(2,p) -----------------------------------------------------


def test_pgl_pattern_p5():
    t = pgl_triple(5, 0)
    assert t.pattern == (10, 12, 8)
    assert t.generates


def test_pgl_pattern_p7_with_membership_split():
    t = pgl_triple(7, 0)
    G = t.group
    assert t.pattern == (14, 16, 12)
    assert not G.in_psl_part(t.x) and not G.in_psl_part(t.y)
    assert G.in_psl_part(t.z)


def test_pgl_p5_membership_split_flips():
    t = pgl_triple(5, 0)
    G = t.group
    assert G.in_psl_part(t.x) and G.in_psl_part(t.y)
    assert not G.in_psl_part(t.z)


# -- construction over the extended family --------------------------------------------


def test_ext_pattern_7_5():
    t = ext_triple(7, 5, 0, 1, 0)
    assert t.pattern == (70, 16, 12)
    assert t.generates


def test_ext_pattern_11_3():
    t = ext_triple(11, 3, 1, 1, 0)
    assert t.pattern == (66, 24, 20)
    assert t.generates


def test_ext_exponent_difference_must_be_a_unit():
    with pytest.raises(GroupError):
        ext_triple(7, 5, 0, 2, 2)
    with pytest.raises(GroupError):
        ext_triple(7, 5, 0, 6, 1)  # difference 5 = 0 mod 5


# -- enumeration ------------------------------------------------------------------------


def test_enumeration_psl25_nonempty_and_pairs_share_a_point():
    G = build_group("psl2", 5)
    triples = enumerate_reversing_triples(G, TriplePattern(10, 6, 4))
    assert triples
    for t in triples:
        fx = set(fixed_points(G.elements[t.x]))
        fy = set(fixed_points(G.elements[t.y]))
        assert fx & fy


def test_enumeration_psl27_empty():
    G = build_group("psl2", 7)
    assert enumerate_reversing_triples(G, TriplePattern(14, 8, 6)) == []


def test_enumeration_matches_construction_closure_psl25():
    G = build_group("psl2", 5)
    enum = {t.indices() for t in enumerate_reversing_triples(G, TriplePattern(10, 6, 4))}
    cons = set(construction_census(G))
    assert cons <= enum
    cons_reps = {r for r, _ in triple_conjugacy_classes(G, cons, check_closed=False)}
    enum_reps = {r for r, _ in triple_conjugacy_classes(G, enum)}
    assert cons_reps == enum_reps


def test_enumeration_matches_construction_closure_pgl25():
    G = build_group("pgl2", 5)
    enum = {t.indices() for t in enumerate_reversing_triples(G, TriplePattern(10, 12, 8))}
    cons = set(construction_census(G))
    assert cons <= enum
    cons_reps = {r for r, _ in triple_conjugacy_classes(G, cons, check_closed=False)}
    enum_reps = {r for r, _ in triple_conjugacy_classes(G, enum)}
    assert cons_reps == enum_reps


@pytest.mark.parametrize("p", [7, 11])
def test_no_psl_pattern_when_p_is_three_mod_four(p):
    G = build_group("psl2", p)
    pattern = TriplePattern(2 * p, p + 1, p - 1)
    assert enumerate_reversing_triples(G, pattern) == []


def test_blind_scan_agrees_with_slotted_enumeration_psl25():
    G = build_group("psl2", 5)
    scan = scan_reversing_census(G)
    assert [c.pattern for c in scan.qualifying] == [(10, 6, 4)]
    enum = {t.indices() for t in enumerate_reversing_triples(G, TriplePattern(10, 6, 4))}
    assert set(scan.qualifying[0].triples) == enum


def test_scan_respects_budget():
    from revmaps.groups import BudgetExceeded

    G = build_group("psl2", 5)
    with pytest.raises(BudgetExceeded):
        scan_reversing_census(G, budget=10)


def test_predicted_patterns():
    assert TriplePattern.predicted("psl2", 13).as_tuple() == (26, 14, 12)
    assert TriplePattern.predicted("psl2", 7) is None
    assert TriplePattern.predicted("pgl2", 7).as_tuple() == (14, 16, 12)
    assert TriplePattern.predicted("ext", 7, 5).as_tuple() == (70, 16, 12)


def test_generation_fast_paths_match_plain_closure():
    from revmaps.groups import subgroup_closure
    from revmaps.triples import _triple_generates

    X = build_group("ext", 7, 3)
    invs = X.involutions()
    samples = [
        (invs[i % len(invs)], invs[(i * 7 + 3) % len(invs)], invs[(i * 13 + 5) % len(invs)])
        for i in range(0, 60, 3)
    ]
    samples += [ext_triple(7, 3, k, 1, 0).indices() for k in range(3)]
    for x, y, z in samples:
        if len({x, y, z}) < 3:
            continue
        dv = 2 * X.pair_order(x, y)
        d1 = 2 * X.pair_order(x, z)
        d2 = 2 * X.pair_order(y, z)
        fast = _triple_generates(X, x, y, z, dv, d1, d2)
        slow = subgroup_closure(X, (x, y, z)).order == X.order
        assert fast == slow


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
