"""The census engine against the slow reference loops in ``oracle.py``.

The engine scans one involution per conjugacy class and counts the rest
from orbit sizes; the oracle scans every triple and sweeps all of G.  Both
must give the same census and conjugacy classes, and the engine's
enumeration, like a slotted census, must be the oracle's full enumeration
cut to the triples whose x is the least member of its involution class.
"""

import pytest
from oracle import oracle_class_minima, oracle_classes, oracle_enumerate, oracle_scan

from revmaps import triples
from revmaps.groups import GroupError, build_group
from revmaps.triples import (
    construction_census,
    enumerate_reversing_triples,
    predicted_pattern,
    scan_reversing_census,
    triple_conjugacy_classes,
)
from revmaps.verify import VERIFY_MATRIX

SMALL_MATRIX = [cfg for cfg in VERIFY_MATRIX if cfg[1] <= 13]


def _pattern(family, p, m):
    # psl2 with p = 3 mod 4 has no classified pattern; its would-be one must be empty
    return predicted_pattern(family, p, m) or (2 * p, p + 1, p - 1)


def _fibers(G, full):
    minima = oracle_class_minima(G)
    return [t for t in full if t[0] in minima]


@pytest.mark.parametrize("family,p,m", SMALL_MATRIX)
def test_scan_matches_oracle(family, p, m):
    G = build_group(family, p, m)
    assert scan_reversing_census(G) == oracle_scan(G)


@pytest.mark.parametrize("family,p,m", SMALL_MATRIX)
def test_enumeration_and_classes_match_oracle(family, p, m):
    G = build_group(family, p, m)
    pattern = _pattern(family, p, m)
    full = oracle_enumerate(G, pattern)
    fibers = enumerate_reversing_triples(G, pattern)
    assert fibers == _fibers(G, full)
    # the fibers meet every orbit and report full-orbit minima and sizes
    assert triple_conjugacy_classes(G, fibers) == oracle_classes(G, full)
    if fibers:
        cons = construction_census(G)
        assert triple_conjugacy_classes(G, cons) == oracle_classes(G, cons, check_closed=False)


@pytest.mark.parametrize("family", ["psl2", "pgl2"])
def test_scan_matches_oracle_on_every_pattern(family, monkeypatch):
    # accepting every pattern sends unslotted and tied patterns, whose roles
    # follow element indices, through the engine's fallback
    monkeypatch.setattr(triples, "_coprime_filter", lambda G: lambda orders: True)
    G = build_group(family, 5)
    scan = scan_reversing_census(G)
    assert not all(c.classes for c in scan.qualifying)
    assert scan == oracle_scan(G)


def test_scan_matches_oracle_on_hits_inside_a_later_class(monkeypatch):
    # the generating (12, 12, 12) triples of pgl2 13 lie wholly in the class
    # outside PSL, which is not the first class: every class must be expanded
    monkeypatch.setattr(triples, "_coprime_filter", lambda G: {(12, 12, 12)}.__contains__)
    G = build_group("pgl2", 13)
    scan = scan_reversing_census(G)
    C = G.involution_classes()
    first = C.classes[0]
    assert [c.pattern for c in scan.qualifying] == [(12, 12, 12)]
    assert all(
        C.class_of[C.position[v]] is not first for t in scan.qualifying[0].triples for v in t
    )
    assert scan == oracle_scan(G)


def test_tied_face_orders_have_no_fibers():
    # (10, 6, 6) ties the two face orders, so no role is slotted and the
    # engine lists no fiber for it, though the oracle finds 120 triples
    G = build_group("psl2", 5)
    assert len(oracle_enumerate(G, (10, 6, 6))) == 120
    assert enumerate_reversing_triples(G, (10, 6, 6)) == []


@pytest.mark.parametrize("entry", ["scan", "enumeration"])
def test_scan_and_enumeration_run_one_engine(entry, monkeypatch):
    # both entry points are one pass of the census engine
    calls = []
    engine = triples._fiber_hits

    def counted(G, qual):
        calls.append(G)
        return engine(G, qual)

    monkeypatch.setattr(triples, "_fiber_hits", counted)
    G = build_group("pgl2", 7)
    if entry == "scan":
        scan_reversing_census(G)
    else:
        enumerate_reversing_triples(G, predicted_pattern("pgl2", 7))
    assert calls == [G]


def test_scan_plans_each_order_triple_once(monkeypatch):
    # pgl2 7 has two involution classes; the real filter's plans are made
    # once per pass, not once per class
    calls = []
    roles = triples._roles

    def counted(G, orders):
        calls.append(orders)
        return roles(G, orders)

    monkeypatch.setattr(triples, "_roles", counted)
    G = build_group("pgl2", 7)
    assert len(G.involution_classes().classes) == 2
    assert scan_reversing_census(G).qualifying
    assert calls and len(calls) == len(set(calls))


def test_classes_reject_non_involutions():
    G = build_group("psl2", 5)
    x, y, _ = enumerate_reversing_triples(G, (10, 6, 4))[0]
    with pytest.raises(GroupError):
        triple_conjugacy_classes(G, [(x, y, G.identity)])
