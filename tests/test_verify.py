"""Verification harness: coprimality, lcm identity, rotary nonexistence, reports."""

import math

import pytest
from oracle import (
    oracle_expand,
    oracle_flag_regular_triple,
    oracle_no_rotary,
    oracle_pgl_action,
    oracle_sylow_lemma,
)

from revmaps import gfproj, verify
from revmaps.groups import GroupHandle, build_group, conjugacy_class_reps, generates
from revmaps.mapgeom import build_revmap
from revmaps.triples import predicted_pattern, scan_reversing_census, triple_conjugacy_classes
from revmaps.verify import (
    VERIFY_MATRIX,
    _membership_split_ok,
    a5_exceptional_case,
    check_coprime,
    check_no_rotary,
    check_pgl_action,
    check_sylow_lemma,
    report_json,
    verify_theorem,
)


# -- coprimality -------------------------------------------------------------------


@pytest.mark.parametrize(
    "chi,edges,expected",
    [
        (1, 30, True),
        (-95, 168, True),
        (-571, 840, True),
        (0, 5, False),  # gcd(0, n) = n
        (0, 1, True),
        (6, 9, False),
    ],
)
def test_check_coprime(chi, edges, expected):
    assert check_coprime(chi, edges) is expected


# -- stabilizer lcm identity ----------------------------------------------------------


def test_sylow_lemma_on_classified_maps():
    from revmaps.triples import pgl_triple, psl_triple

    for family, p, t in (("psl2", 5, psl_triple(5, 2)), ("pgl2", 7, pgl_triple(7, 0))):
        G = build_group(family, p)
        M = build_revmap(G, *t)
        assert check_sylow_lemma(M)
        stabs = M.stabilizer_orders()
        assert math.lcm(*stabs.values()) == G.order


def test_sylow_lemma_rejects_deficient_pattern():
    # a (10, 6, 6) triple generates but its stabilizers only reach lcm 30
    G = build_group("psl2", 5)
    invs = G.involutions()
    t = next(
        (x, y, z)
        for x in invs
        for y in invs
        if y != x and G.pair_order(x, y) == 5
        for z in invs
        if z not in (x, y)
        and G.pair_order(x, z) == 3
        and G.pair_order(y, z) == 3
        and generates(G, (x, y, z))
    )
    M = build_revmap(G, *t)
    assert not check_sylow_lemma(M)
    assert not oracle_sylow_lemma(M)
    assert not check_coprime(M.chi(), M.edge_count)


def test_sylow_lemma_matches_the_two_part_oracle(monkeypatch):
    # the lcm alone decides the lemma; the oracle also asks that each full
    # prime power of |G| divide one stabilizer order
    import revmaps.verify as verify

    checked = []
    real = verify.check_sylow_lemma

    def recorded(M):
        ok = real(M)
        checked.append((M, ok))
        return ok

    monkeypatch.setattr(verify, "check_sylow_lemma", recorded)
    rebuilt = sum(len(verify_theorem(*cfg)["maps"]) for cfg in VERIFY_MATRIX)
    a5_exceptional_case()
    assert len(checked) == rebuilt + 2
    assert [M.kind for M, _ in checked[rebuilt:]] == ["flag_regular"] * 2
    assert all(ok and oracle_sylow_lemma(M) for M, ok in checked)


# -- rotary nonexistence -----------------------------------------------------------------


def _no_rotary_oracle(G):
    """From-scratch sweep over all (a, z) pairs with its own closure code."""
    edges = G.order // 2
    invs = [i for i in range(G.order) if i != G.identity and G.mul(i, i) == G.identity]
    for a in range(G.order):
        if a == G.identity:
            continue
        order_a = 1
        acc = a
        while acc != G.identity:
            acc = G.mul(acc, a)
            order_a += 1
        for z in invs:
            prod = G.mul(a, z)
            order_az = 1
            acc = prod
            while acc != G.identity:
                acc = G.mul(acc, prod)
                order_az += 1
            chi = G.order // order_a - edges + G.order // order_az
            if math.gcd(abs(chi), edges) != 1:
                continue
            reached = {G.identity}
            frontier = [G.identity]
            while frontier:
                new = []
                for s in frontier:
                    for g in (a, z):
                        t = G.mul(s, g)
                        if t not in reached:
                            reached.add(t)
                            new.append(t)
                frontier = new
            if len(reached) == G.order:
                return False
    return True


@pytest.mark.parametrize("family,p", [("psl2", 5), ("pgl2", 5), ("psl2", 7)])
def test_no_rotary_and_oracle_agree(family, p):
    G = build_group(family, p)
    assert check_no_rotary(G)
    assert _no_rotary_oracle(G)


@pytest.mark.parametrize(
    "family,p,m", VERIFY_MATRIX + (("pgl2", 13, 1), ("psl2", 17, 1), ("ext", 7, 9))
)
def test_no_rotary_matches_the_unfiltered_sweep(family, p, m):
    G = build_group(family, p, m)
    assert check_no_rotary(G) == oracle_no_rotary(G)


@pytest.mark.parametrize(
    "family,p,m,k,expected",
    [
        ("psl2", 7, 1, 7, False),
        ("psl2", 7, 1, 3, True),
        ("pgl2", 5, 1, 6, False),
        ("ext", 7, 3, 21, True),
    ],
)
def test_no_rotary_sweep_matches_the_oracle_once_a_pair_qualifies(
    monkeypatch, family, p, m, k, expected
):
    # no order pair passes the real filter; let (k, k) alone pass (no other
    # pair shares its chi), so that the involution sweep runs
    G = build_group(family, p, m)
    n = G.order
    orders = {G.element_order(a) for a in conjugacy_class_reps(G)}
    assert [(u, v) for u in orders for v in orders if n // u + n // v == 2 * n // k] == [(k, k)]
    target = 2 * n // k - n // 2
    monkeypatch.setattr(verify, "check_coprime", lambda chi, edges: chi == target)
    assert check_no_rotary(G) == expected
    assert oracle_no_rotary(G) == expected


def test_no_rotary_runs_under_the_verify_budget():
    # PSL(2,23) has order 6072; every lemma check runs under verify's budget
    assert verify_theorem("psl2", 23)["lemma_checks"]["no_rotary"] is True


# -- projective action suite ---------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_pgl_action_small(p):
    assert check_pgl_action(build_group("pgl2", p))


def test_pgl_action_takes_the_handle_verify_built(monkeypatch):
    # verify_theorem hands over the PGL(2,p) it built under the budget, and
    # the check builds no group of its own
    seen = []
    real = verify.check_pgl_action

    def spy(G):
        seen.append(G)
        return real(G)

    def no_build(*args, **kwargs):
        raise AssertionError("check_pgl_action built a group")

    monkeypatch.setattr(verify, "check_pgl_action", spy)
    assert verify_theorem("psl2", 7)["lemma_checks"]["pgl_action"] is True
    assert seen == [build_group("pgl2", 7)]
    monkeypatch.setattr(verify, "build_group", no_build)
    assert real(build_group("pgl2", 11))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pgl_two_point_stabilizer_is_sharp_on_the_other_points(p):
    # check_pgl_action leaves these to its distinct-images check
    G = build_group("pgl2", p)
    zero, inf, *others = gfproj.all_points(p)
    stab = [
        mat
        for mat in map(G.matrix_part, range(G.order))
        if gfproj.act(mat, zero) == zero and gfproj.act(mat, inf) == inf
    ]
    assert len(stab) == p - 1
    assert sorted(gfproj.act(mat, others[0]) for mat in stab) == sorted(others)


def _classes_not_split_by_psl(split):
    """An ``involution_classes`` whose classes do not follow PSL membership."""
    from types import SimpleNamespace

    def wrong_classes(G):
        invs = G.involutions()
        if split == "one class":
            parts = [range(len(invs))]
        else:
            inside = [u for u, v in enumerate(invs) if G.in_psl_part(v)]
            outside = [u for u, v in enumerate(invs) if not G.in_psl_part(v)]
            parts = [inside[1:] + outside[:1], outside[1:] + inside[:1]]
        return SimpleNamespace(classes=[SimpleNamespace(members=list(q)) for q in parts])

    return wrong_classes


PREIMAGE_POINTS = gfproj.preimage_points
ELEMENT_ORDER = GroupHandle.element_order


def _order_with_p_minus_1_hidden(G, g):
    n = ELEMENT_ORDER(G, g)
    return 1 if n == G.p - 1 else n


def _preimages_with_the_third_as_the_second(cols, p):
    zero, inf, _ = PREIMAGE_POINTS(cols, p)
    return zero, inf, inf


@pytest.mark.parametrize(
    "mutation",
    [
        None,
        "trivial act",
        "third preimage read as the second",
        "no fixed points",
        "one class",
        "two classes, one member swapped",
        "no order p-1",
    ],
)
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
def test_pgl_action_matches_the_exhaustive_oracle(monkeypatch, p, mutation):
    G = build_group("pgl2", p)
    if mutation == "trivial act":
        monkeypatch.setattr(gfproj, "act", lambda g, x: x)
    elif mutation == "third preimage read as the second":
        monkeypatch.setattr(gfproj, "preimage_points", _preimages_with_the_third_as_the_second)
    elif mutation == "no fixed points":
        monkeypatch.setattr(gfproj, "fixed_points", lambda g: ())
    elif mutation == "no order p-1":
        # the stabilizer of 0 and infinity is cyclic of order p-1: hide its generators
        monkeypatch.setattr(GroupHandle, "element_order", _order_with_p_minus_1_hidden)
    elif mutation is not None:
        monkeypatch.setattr(GroupHandle, "involution_classes", _classes_not_split_by_psl(mutation))
    assert check_pgl_action(G) == (mutation is None)
    # the oracle takes every image by act, so the preimage kernel's fault shows in the check alone
    assert oracle_pgl_action(p) == (mutation in (None, "third preimage read as the second"))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pgl_elements_of_order_p_plus_one_act_regularly(p):
    # check_pgl_action leaves this to its distinct-images check
    G = build_group("pgl2", p)
    zero = gfproj.all_points(p)[0]
    cycles = [G.matrix_part(g) for g in range(G.order) if G.element_order(g) == p + 1]
    assert cycles
    for mat in cycles:
        orbit, x = set(), zero
        for _ in range(p + 1):
            x = gfproj.act(mat, x)
            orbit.add(x)
        assert len(orbit) == p + 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pgl_every_constrained_involution_fixes_two_points(p):
    # check_pgl_action tests one involution of the side and leaves the class to the class check
    G = build_group("pgl2", p)
    side = [i for i in G.involutions() if G.in_psl_part(i) == (p % 4 == 1)]
    assert side
    assert all(len(gfproj.fixed_points(G.matrix_part(i))) == 2 for i in side)


def test_pgl_action_makes_one_sweep_of_point_images(monkeypatch):
    # one preimage_points call over PGL(2,13), and one involution's p+1 fixed-point tests
    acts, sweeps = [], []
    act = gfproj.act

    def counted(g, x):
        acts.append(x)
        return act(g, x)

    def counted_sweep(cols, p):
        sweeps.append(len(cols[0]))
        return PREIMAGE_POINTS(cols, p)

    monkeypatch.setattr(gfproj, "act", counted)
    monkeypatch.setattr(gfproj, "preimage_points", counted_sweep)
    assert check_pgl_action(build_group("pgl2", 13))
    assert sweeps == [2184]
    assert len(acts) <= 14


def test_pgl_action_peaks_under_a_megabyte(monkeypatch):
    # the distinct-codes test marks a bytearray of (p+1)^3 codes; a set of
    # the 29760 codes of PGL(2,31) took the check's peak to 3.26 MiB
    import tracemalloc

    from revmaps import groups

    monkeypatch.setattr(groups, "_CACHE", {})
    G = build_group("pgl2", 31)
    tracemalloc.start()
    try:
        assert check_pgl_action(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# -- the exceptional flag-regular pair -------------------------------------------------------


def test_a5_report():
    rep = a5_exceptional_case()
    assert rep["verdict"] == "pass"
    counts = sorted(tuple(r["counts"][k] for k in "VEF") for r in rep["maps"])
    assert counts == [(6, 15, 10), (10, 15, 6)]
    for r in rep["maps"]:
        assert r["chi"] == 1
        assert not r["orientable"]
        assert r["genus"] == 1
        assert check_coprime(r["chi"], r["counts"]["E"])
        assert set(r["stabilizer_orders"].values()) == {10, 4, 6, 2}


def test_a5_fixed_triple_is_the_first_the_search_finds():
    G = build_group("psl2", 5)
    fixed = tuple(G.element(0, gfproj.ProjMatrix(*mat, 5)) for mat in verify.A5_TRIPLE)
    assert oracle_flag_regular_triple(G) == fixed
    triple = a5_exceptional_case()["triple"]
    assert [triple[n] for n in ("r0", "r1", "r2")] == [G.element_json(i) for i in fixed]


def test_a5_failed_certificate_is_a_construction_error(monkeypatch, capsys):
    from revmaps.cli import run_guarded
    from revmaps.triples import ConstructionError

    # r1 and r2 swapped: the orders read (2, 3, 5), not (3, 2, 5)
    r0, r1, r2 = verify.A5_TRIPLE
    monkeypatch.setattr(verify, "A5_TRIPLE", (r0, r2, r1))
    with pytest.raises(ConstructionError, match="fails its orders"):
        a5_exceptional_case()
    assert run_guarded(a5_exceptional_case) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: the fixed triple") and len(err.splitlines()) == 1


# -- theorem verification ----------------------------------------------------------------------


def test_verify_psl25():
    rep = verify_theorem("psl2", 5)
    assert rep["verdict"] == "pass"
    assert rep["patterns_found"] == [[10, 6, 4]]
    assert rep["predicted_qualifies"]
    assert all(rep["lemma_checks"][k] for k in ("sylow", "no_rotary", "pgl_action", "membership"))


def test_verify_psl27_negative_control_is_empty():
    rep = verify_theorem("psl2", 7)
    assert rep["verdict"] == "pass"
    assert rep["patterns_found"] == []
    assert rep["predicted_pattern"] is None


def test_verify_rejects_injected_wrong_pattern(monkeypatch):
    # claiming faces (p+1, p+1) must fail: the scan finds the true pattern
    import revmaps.verify as verify

    monkeypatch.setattr(verify, "predicted_pattern", lambda family, p, m=1: (10, 6, 6))
    rep = verify_theorem("psl2", 5)
    assert rep["verdict"] == "fail"


@pytest.mark.parametrize("family,p,m", [("pgl2", 7, 1), ("ext", 7, 3)])
@pytest.mark.parametrize("tamper", ["drop_a_class", "swap_slots"])
def test_construction_agreement_fails_on_a_tampered_construction(family, p, m, tamper, monkeypatch):
    # pgl2 7 compares the construction with the class reps the scan holds;
    # ext 7 3, whose predicted map is not coprime, with the enumerated ones
    import revmaps.verify as verify

    real = verify.construction_census

    def tampered(G):
        cons = real(G)
        if tamper == "drop_a_class":
            first = triple_conjugacy_classes(G, cons[:1])
            rest = [t for t in cons if triple_conjugacy_classes(G, [t]) != first]
            assert rest and len(rest) < len(cons)
            return rest
        x, y, z = cons[0]
        return cons + [(y, x, z)]

    monkeypatch.setattr(verify, "construction_census", tampered)
    rep = verify_theorem(family, p, m)
    assert rep["predicted_qualifies"] == (family == "pgl2")
    assert rep["lemma_checks"]["construction_agreement"] is False
    assert rep["verdict"] == "fail"


def test_construction_agreement_fails_on_an_empty_construction(monkeypatch):
    G = build_group("pgl2", 7)
    scan = scan_reversing_census(G)
    monkeypatch.setattr(verify, "construction_census", lambda G: [])
    assert verify._construction_agreement(G, predicted_pattern("pgl2", 7), scan) is False


@pytest.mark.parametrize(
    "family,p,m,passes", [("pgl2", 7, 1, 1), ("ext", 7, 5, 1), ("ext", 7, 3, 2), ("ext", 11, 3, 2)]
)
def test_verify_enumerates_only_a_pattern_the_scan_does_not_hold(family, p, m, passes, monkeypatch):
    # the scan is one census engine pass; the construction is compared with
    # its classes of the predicted pattern, and the pattern is enumerated in
    # a second pass only where its map is not coprime
    from revmaps import triples

    calls = []
    engine = triples._fiber_hits

    def counted(G, qual):
        calls.append(G)
        return engine(G, qual)

    monkeypatch.setattr(triples, "_fiber_hits", counted)
    rep = verify_theorem(family, p, m)
    assert rep["verdict"] == "pass"
    assert rep["predicted_qualifies"] == (passes == 1)
    assert calls == [build_group(family, p, m)] * passes


def test_report_is_deterministic():
    a = report_json(verify_theorem("pgl2", 5))
    b = report_json(verify_theorem("pgl2", 5))
    assert a == b


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_membership_at_class_reps_matches_all_triples(family, p, m):
    G = build_group(family, p, m)
    qualifying = scan_reversing_census(G).qualifying
    assert all(c.classes for c in qualifying)
    reps = [t for c in qualifying for t in c.classes]
    everything = [t for c in qualifying for t in oracle_expand(G, c.triples)]
    assert _membership_split_ok(G, reps) is _membership_split_ok(G, everything) is True
    if reps and family != "psl2":
        # x and z trade sides of PSL: one wrong rep must fail the check
        x, y, z = reps[-1]
        assert G.in_psl_part(x) != G.in_psl_part(z)
        assert not _membership_split_ok(G, [*reps[:-1], (z, y, x)])


def test_generating_triples_fall_in_free_orbits():
    # a generating triple's simultaneous centralizer is Z(G), trivial in all
    # three families, so every class of a qualifying pattern holds |G| triples
    counted = 0
    for family, p, m in [*VERIFY_MATRIX, ("pgl2", 19, 1)]:
        G = build_group(family, p, m)
        for census in scan_reversing_census(G).qualifying:
            assert census.raw_triples == len(census.classes) * G.order, (family, p, m)
            counted += 1
    # the six qualifying censuses of the matrix and the one of pgl2 19
    assert counted == 7


def test_report_wire_shape():
    rep = verify_theorem("psl2", 5)
    assert set(rep["lemma_checks"]) == {
        "sylow",
        "no_rotary",
        "pgl_action",
        "membership",
        "construction_agreement",
    }
    for key in ("schema_version", "config", "patterns_found", "maps", "verdict"):
        assert key in rep
    assert rep["maps"][0]["counts"]["E"] == rep["edges"]


def test_verify_generation_requirement_is_enforced():
    # no involution triple below the full group sneaks into the census
    rep = verify_theorem("psl2", 5)
    G = build_group("psl2", 5)
    for census in rep["census"]:
        for t in census["class_reps"]:
            idx = tuple(G.element_from_json(t[n]) for n in ("x", "y", "z"))
            assert generates(G, idx)


def test_verify_refuses_over_budget_before_scanning(monkeypatch):
    # PSL(2,31) fits the default budget but PGL(2,31), which the action check
    # builds, does not: the refusal must come before the census scan
    import revmaps.verify as verify
    from revmaps.groups import BudgetExceeded

    def scan_must_not_run(*args, **kwargs):
        raise AssertionError("the census scan ran before the budget check")

    monkeypatch.setattr(verify, "scan_reversing_census", scan_must_not_run)
    with pytest.raises(BudgetExceeded):
        verify_theorem("psl2", 31)
    with pytest.raises(BudgetExceeded):
        verify_theorem("psl2", 13, budget=1000)


def test_verify_refuses_the_action_check_group_over_budget(monkeypatch):
    # PSL(2,7) has 168 elements and fits; the PGL(2,7) of the action check
    # has 336 and does not
    import revmaps.verify as verify
    from revmaps.groups import BudgetExceeded

    def scan_must_not_run(*args, **kwargs):
        raise AssertionError("the census scan ran before the budget check")

    monkeypatch.setattr(verify, "scan_reversing_census", scan_must_not_run)
    with pytest.raises(BudgetExceeded, match="pgl2 p=7 m=1: group order 336 exceeds budget 300"):
        verify_theorem("psl2", 7, budget=300)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pgl_action_involution_classes_match_conjugacy(p):
    # check_pgl_action reads the two involution classes off involution_classes()
    from revmaps.groups import conjugacy_class

    G = build_group("pgl2", p)
    invs = G.involutions()
    classes = G.involution_classes().classes
    assert len(classes) == 2
    for cls in classes:
        members = tuple(sorted(invs[u] for u in cls.members))
        assert members == conjugacy_class(G, invs[cls.rep])
        assert len({G.in_psl_part(v) for v in members}) == 1
    assert check_pgl_action(G)
