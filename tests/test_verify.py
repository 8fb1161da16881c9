"""Verification harness: coprimality, lcm identity, rotary nonexistence, reports."""

import math

import pytest

from revmaps.groups import build_group, generates
from revmaps.mapgeom import build_revmap
from revmaps.triples import TriplePattern, make_triple
from revmaps.verify import (
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

    for t in (psl_triple(5, 2), pgl_triple(7, 0)):
        M = build_revmap(t.group, t)
        assert check_sylow_lemma(M)
        stabs = M.stabilizer_orders()
        assert math.lcm(*stabs.values()) == t.group.order


def test_sylow_lemma_rejects_deficient_pattern():
    # a (10, 6, 6) triple generates but its stabilizers only reach lcm 30
    G = build_group("psl2", 5)
    invs = G.involutions()
    t = None
    for x in invs:
        for y in invs:
            if y == x or G.pair_order(x, y) != 5:
                continue
            for z in invs:
                if z in (x, y):
                    continue
                if G.pair_order(x, z) == 3 and G.pair_order(y, z) == 3:
                    cand = make_triple(G, x, y, z)
                    if cand.generates:
                        t = cand
                        break
            if t:
                break
        if t:
            break
    assert t is not None and t.pattern == (10, 6, 6)
    M = build_revmap(G, t)
    assert not check_sylow_lemma(M)
    assert not check_coprime(M.chi(), M.edge_count)


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


def test_no_rotary_runs_under_the_verify_budget():
    # PSL(2,23) has order 6072; every lemma check runs under verify's budget
    assert verify_theorem("psl2", 23)["lemma_checks"]["no_rotary"] is True


def test_rotary_budget():
    from revmaps.groups import BudgetExceeded

    G = build_group("psl2", 13)
    with pytest.raises(BudgetExceeded):
        check_no_rotary(G, budget=1000)


# -- projective action suite ---------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_pgl_action_small(p):
    assert check_pgl_action(p)


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


def test_verify_rejects_injected_wrong_pattern():
    # claiming faces (p+1, p+1) must fail: the scan finds the true pattern
    rep = verify_theorem("psl2", 5, expected_pattern=TriplePattern(10, 6, 6))
    assert rep["verdict"] == "fail"


def test_report_is_deterministic():
    a = report_json(verify_theorem("pgl2", 5))
    b = report_json(verify_theorem("pgl2", 5))
    assert a == b


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


def test_pgl_action_budget_is_configurable():
    from revmaps.groups import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        check_pgl_action(7, budget=300)
    assert check_pgl_action(7, budget=336)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_pgl_action_involution_classes_match_conjugacy(p):
    # check_pgl_action reads the two involution classes off involution_classes()
    from revmaps.groups import conjugacy_class

    G = build_group("pgl2", p)
    invs = G.involutions()
    classes = G.involution_classes().classes
    assert len(classes) == 2
    for cls in classes:
        members = tuple(sorted(invs[u] for u in cls.maps))
        assert members == conjugacy_class(G, invs[cls.rep])
        assert len({G.in_psl_part(v) for v in members}) == 1
    assert check_pgl_action(p)


@pytest.mark.parametrize("split", ["one class", "two classes, one member swapped"])
def test_pgl_action_fails_unless_classes_split_by_psl(monkeypatch, split):
    from types import SimpleNamespace

    from revmaps.groups import GroupHandle

    def wrong_classes(G):
        invs = G.involutions()
        if split == "one class":
            parts = [range(len(invs))]
        else:
            inside = [u for u, v in enumerate(invs) if G.in_psl_part(v)]
            outside = [u for u, v in enumerate(invs) if not G.in_psl_part(v)]
            parts = [inside[1:] + outside[:1], outside[1:] + inside[:1]]
        return SimpleNamespace(classes=[SimpleNamespace(maps=dict.fromkeys(q)) for q in parts])

    monkeypatch.setattr(GroupHandle, "involution_classes", wrong_classes)
    assert not check_pgl_action(7)
