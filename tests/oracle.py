"""Slow reference implementations of the census engine, for tests only.

These are the direct loops the engine in ``revmaps.triples`` replaces: the
scan over every unordered involution triple, the x*y*z enumeration loop and
the conjugation sweep over all |G| elements per class.  They share only the
building blocks (dihedral table, qualifying table, role assignment,
generation test) with the engine, and are compared with it at small p.
"""

from __future__ import annotations

from revmaps import triples
from revmaps.groups import GroupHandle
from revmaps.triples import (
    CensusScan,
    PatternCensus,
    ReversingTriple,
    TriplePattern,
    _dihedral_table,
    _normalize_hit,
    _triple_generates,
)


def oracle_enumerate(G: GroupHandle, pattern: TriplePattern) -> list[ReversingTriple]:
    """Every ordered triple realizing the slotted pattern, by the x*y*z loop."""
    invs = G.involutions()
    dv, d1, d2 = pattern.as_tuple()
    out = []
    for x in invs:
        for y in invs:
            if y == x or 2 * G.pair_order(x, y) != dv:
                continue
            for z in invs:
                if z == x or z == y:
                    continue
                if 2 * G.pair_order(x, z) != d1 or 2 * G.pair_order(y, z) != d2:
                    continue
                if _triple_generates(G, x, y, z, dv, d1, d2):
                    out.append(ReversingTriple(G, x, y, z, (dv, d1, d2), True))
    return out


def oracle_classes(G: GroupHandle, triples, check_closed: bool = True):
    """Conjugation orbits by conjugating each new triple with all of G."""
    tset = set(triples)
    visited: set[tuple[int, int, int]] = set()
    classes = []
    for t in sorted(tset):
        if t in visited:
            continue
        x, y, z = t
        tie = G.pair_order(x, z) == G.pair_order(y, z)
        orbit = set()
        for g in range(G.order):
            gi = G.inv(g)
            cx = G.mul(G.mul(gi, x), g)
            cy = G.mul(G.mul(gi, y), g)
            cz = G.mul(G.mul(gi, z), g)
            if tie and cx > cy:
                cx, cy = cy, cx
            orbit.add((cx, cy, cz))
        if check_closed and not orbit <= tset:
            raise RuntimeError("triple set is not closed under conjugation")
        visited |= orbit
        classes.append((min(orbit), len(orbit)))
    return classes


def oracle_scan(G: GroupHandle) -> CensusScan:
    """The census by scanning all n(n-1)(n-2)/6 unordered involution triples."""
    invs, table = _dihedral_table(G)
    # looked up at call time, so that a test can replace the filter
    qual = triples._qualifying_table(G, table)
    n = len(invs)
    by_pattern: dict[tuple[int, int, int], list] = {}
    slot_ok: dict[tuple[int, int, int], bool] = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if not qual[(table[a][b], table[a][c], table[b][c])]:
                    continue
                (x, y, z), pat, slotted = _normalize_hit(G, invs[a], invs[b], invs[c])
                if not _triple_generates(G, x, y, z, *pat):
                    continue
                by_pattern.setdefault(pat, []).append((x, y, z))
                slot_ok[pat] = slot_ok.get(pat, True) and slotted

    censuses = []
    edges = G.order // 2
    for pat in sorted(by_pattern):
        found = tuple(sorted(by_pattern[pat]))
        chi = sum(G.order // d for d in pat) - edges
        classes = tuple(t for t, _ in oracle_classes(G, found)) if slot_ok[pat] else ()
        censuses.append(PatternCensus(pat, chi, slot_ok[pat], found, classes))
    return CensusScan(
        group=G.descriptor(),
        group_order=G.order,
        involution_count=n,
        combos_scanned=n * (n - 1) * (n - 2) // 6,
        qualifying=tuple(censuses),
    )
