"""Slow reference implementations of the census engine, for tests only.

These are the direct loops the engine in ``revmaps.triples`` replaces: the
scan over every unordered involution triple, the x*y*z enumeration loop and
the conjugation sweep over all |G| elements per class.  They share only the
building blocks (qualifying table, role assignment, generation test) with
the engine, and are compared with it at small p.  Element and pair orders
come from repeated multiplication, not from the closed form in
``gfproj.projective_order``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from revmaps import triples
from revmaps.gfproj import ProjMatrix, mat_multiply
from revmaps.groups import GroupHandle
from revmaps.triples import (
    CensusScan,
    PatternCensus,
    ReversingTriple,
    TriplePattern,
    _normalize_hit,
    _triple_generates,
)


def oracle_matrix_order(g: ProjMatrix) -> int:
    """Smallest n >= 1 with g^n = I, by repeated multiplication."""
    ident = ProjMatrix(1, 0, 0, 1, g.p)
    n, acc = 1, g
    while acc != ident:
        acc = mat_multiply(acc, g)
        n += 1
    return n


@lru_cache(maxsize=None)
def oracle_orders(G: GroupHandle) -> tuple[int, ...]:
    """The order of every element of G, by repeated multiplication.

    The powers g, g^2, ..., g^n = 1 of each element walked give the orders
    of those powers too: |g^k| = n / gcd(n, k).
    """
    orders = [0] * G.order
    for g in range(G.order):
        if orders[g]:
            continue
        powers = [g]
        while powers[-1] != G.identity:
            powers.append(G.mul(powers[-1], g))
        n = len(powers)
        for k, h in enumerate(powers, 1):
            orders[h] = n // math.gcd(n, k)
    return tuple(orders)


def oracle_involutions(G: GroupHandle) -> tuple[int, ...]:
    return tuple(i for i in range(G.order) if i != G.identity and G.mul(i, i) == G.identity)


def oracle_pair_order(G: GroupHandle, u: int, v: int) -> int:
    return oracle_orders(G)[G.mul(u, v)]


@lru_cache(maxsize=None)
def oracle_dihedral_table(G: GroupHandle) -> tuple[tuple[int, ...], ...]:
    """Dihedral orders 2|uv| of the involutions by position, 0 on the diagonal."""
    invs = oracle_involutions(G)
    return tuple(
        tuple(2 * oracle_pair_order(G, u, v) if u != v else 0 for v in invs) for u in invs
    )


def oracle_enumerate(G: GroupHandle, pattern: TriplePattern) -> list[ReversingTriple]:
    """Every ordered triple realizing the slotted pattern, by the x*y*z loop."""
    invs = oracle_involutions(G)
    table = oracle_dihedral_table(G)
    dv, d1, d2 = pattern.as_tuple()
    out = []
    for a, x in enumerate(invs):
        for b, y in enumerate(invs):
            if b == a or table[a][b] != dv:
                continue
            for c, z in enumerate(invs):
                if c == a or c == b:
                    continue
                if table[a][c] != d1 or table[b][c] != d2:
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
        tie = oracle_pair_order(G, x, z) == oracle_pair_order(G, y, z)
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
    invs = oracle_involutions(G)
    table = oracle_dihedral_table(G)
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
