"""Reversing triples: constructions, exhaustive enumeration, conjugacy classes.

A reversing triple for a group G is an ordered triple (x, y, z) of distinct
involutions generating G; it carries the multiset of the three dihedral orders
|<x,y>|, |<x,z>|, |<y,z>|.  The classified families have slotted patterns

    psl2 (p = 1 mod 4):  (2p,   p+1,    p-1)
    pgl2:                (2p,   2(p+1), 2(p-1))
    ext:                 (2mp,  2(p+1), 2(p-1))

where the (x, y) pair always realizes the p-divisible vertex order and x is
the member whose dihedral order with z is the larger face order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import gfproj
from .groups import (
    EXT,
    PGL2,
    PSL2,
    BudgetExceeded,
    GroupError,
    GroupHandle,
    build_group,
    generates,
)

DEFAULT_ENUM_BUDGET = 20000


@dataclass(frozen=True)
class TriplePattern:
    """Slotted dihedral-order pattern (vertex pair, larger face, smaller face)."""

    vertex: int
    face1: int
    face2: int

    def multiset(self) -> tuple[int, int, int]:
        return tuple(sorted((self.vertex, self.face1, self.face2), reverse=True))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.vertex, self.face1, self.face2)

    @classmethod
    def predicted(cls, family: str, p: int, m: int = 1) -> "TriplePattern | None":
        """The pattern the classification allows for the family, if any."""
        if family == PSL2:
            if p % 4 != 1:
                return None
            return cls(2 * p, p + 1, p - 1)
        if family == PGL2:
            return cls(2 * p, 2 * (p + 1), 2 * (p - 1))
        if family == EXT:
            return cls(2 * m * p, 2 * (p + 1), 2 * (p - 1))
        raise GroupError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ReversingTriple:
    group: GroupHandle
    x: int
    y: int
    z: int
    pattern: tuple[int, int, int]
    generates: bool

    def indices(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def to_json(self) -> dict:
        G = self.group
        return {
            "group": G.descriptor(),
            "x": G.element_json(self.x),
            "y": G.element_json(self.y),
            "z": G.element_json(self.z),
            "pattern": list(self.pattern),
        }


class ConstructionError(RuntimeError):
    """A search the theory guarantees to succeed found nothing (a bug signal)."""


# -- building blocks ---------------------------------------------------------


def _fixing_involutions(G: GroupHandle, point: int) -> list[int]:
    """Involutions whose matrix part fixes the given projective point."""
    return [
        i for i in G.involutions() if gfproj.act(G.matrix_part(i), point) == point
    ]


def two_point_stabilizer_involution(G: GroupHandle) -> int:
    """The unique involution fixing both canonical points [0:1] and [1:0].

    In psl2 this exists exactly when p = 1 (mod 4): the pointwise stabilizer
    of the pair is cyclic of order (p-1)/2, which is even only then.
    """
    pts = gfproj.all_points(G.p)
    sigma, tau = pts[0], pts[1]
    hits = [
        i
        for i in G.involutions()
        if gfproj.act(G.matrix_part(i), sigma) == sigma
        and gfproj.act(G.matrix_part(i), tau) == tau
        and G.exponent_part(i) == 0
    ]
    if len(hits) != 1:
        raise ConstructionError(
            f"expected a unique two-point stabilizer involution, found {len(hits)}"
        )
    return hits[0]


def first_element_of_order(G: GroupHandle, n: int) -> int:
    for i in range(G.order):
        if G.element_order(i) == n:
            return i
    raise ConstructionError(f"no element of order {n} in {G!r}")


def cyclic_subgroup_involution(G: GroupHandle, generator: int) -> int:
    """The unique involution of the cyclic group generated by an even-order element."""
    n = G.element_order(generator)
    if n % 2:
        raise GroupError(f"element order {n} is odd, no involution")
    acc = generator
    for _ in range(n // 2 - 1):
        acc = G.mul(acc, generator)
    return acc


def _triple_generates(G: GroupHandle, x: int, y: int, z: int,
                      dv: int, d1: int, d2: int) -> bool:
    """Generation test for an involution triple with known dihedral orders.

    The three dihedral orders all divide |<x,y,z>|, so when their lcm is the
    whole group order, generation is automatic.  In the extended family a
    vertex order 2mp forces the full cyclic factor into the closure (the
    p-th power of xy generates it), leaving only the matrix parts to check.
    """
    if math.lcm(dv, d1, d2) == G.order:
        return True
    if G.family == EXT and dv == 2 * G.m * G.p:
        Gp = build_group(PGL2, G.p)
        px, py, pz = (Gp.index[G.matrix_part(i)] for i in (x, y, z))
        dvp = 2 * Gp.pair_order(px, py)
        d1p = 2 * Gp.pair_order(px, pz)
        d2p = 2 * Gp.pair_order(py, pz)
        if math.lcm(dvp, d1p, d2p) == Gp.order:
            return True
        return generates(Gp, {px, py, pz})
    return generates(G, {x, y, z})


def make_triple(G: GroupHandle, x: int, y: int, z: int) -> ReversingTriple:
    dv = 2 * G.pair_order(x, y)
    d1 = 2 * G.pair_order(x, z)
    d2 = 2 * G.pair_order(y, z)
    return ReversingTriple(
        G, x, y, z, (dv, d1, d2), _triple_generates(G, x, y, z, dv, d1, d2)
    )


# -- the three constructions --------------------------------------------------


def _psl_candidates(G: GroupHandle, k: int) -> tuple[list[int], list[int], int]:
    p = G.p
    if p % 4 != 1:
        raise GroupError(f"construction over PSL(2,p) needs p = 1 (mod 4), got {p}")
    if not 2 <= k <= p:
        raise GroupError(f"point index k must lie in 2..{p}, got {k}")
    z = two_point_stabilizer_involution(G)
    delta = gfproj.all_points(p)[k]
    fixing = _fixing_involutions(G, delta)
    xs = [u for u in fixing if u != z and 2 * G.pair_order(z, u) == p + 1]
    ys = [u for u in fixing if u != z and 2 * G.pair_order(z, u) == p - 1]
    if not xs or not ys:
        raise ConstructionError(f"no qualifying involutions over point {delta}")
    return xs, ys, z


def psl_triple(p: int, k: int) -> ReversingTriple:
    """Reversing triple of PSL(2,p) through the point with canonical index k.

    z is the unique involution of the two-point stabilizer of ([0:1], [1:0]);
    x and y are the first involutions fixing the k-th point at dihedral
    orders p+1 and p-1 with z.  Requires p = 1 (mod 4) and 2 <= k <= p.
    """
    G = build_group(PSL2, p)
    xs, ys, z = _psl_candidates(G, k)
    x = xs[0]
    y = next(v for v in ys if v != x)
    t = make_triple(G, x, y, z)
    if t.pattern != (2 * p, p + 1, p - 1) or not t.generates:
        raise ConstructionError(f"malformed triple {t.pattern} at p={p}, k={k}")
    return t


def _pgl_candidates(G: GroupHandle, k: int) -> tuple[list[int], list[int], int]:
    p = G.p
    if not 0 <= k <= p:
        raise GroupError(f"point index k must lie in 0..{p}, got {k}")
    h = first_element_of_order(G, p + 1)
    z = cyclic_subgroup_involution(G, h)
    delta = gfproj.all_points(p)[k]
    fixing = _fixing_involutions(G, delta)
    xs = [u for u in fixing if u != z and G.pair_order(z, u) == p + 1]
    ys = [u for u in fixing if u != z and G.pair_order(z, u) == p - 1]
    if not xs or not ys:
        raise ConstructionError(f"no qualifying involutions over point {delta}")
    return xs, ys, z


def pgl_triple(p: int, k: int) -> ReversingTriple:
    """Reversing triple of PGL(2,p) through the point with canonical index k.

    z is the involution of a fixed cyclic subgroup of order p+1 (generated by
    the first element of that order); x and y fix the k-th point at dihedral
    orders 2(p+1) and 2(p-1) with z.  Valid for every prime p >= 5 and
    0 <= k <= p.
    """
    G = build_group(PGL2, p)
    xs, ys, z = _pgl_candidates(G, k)
    x = xs[0]
    y = next(v for v in ys if v != x)
    t = make_triple(G, x, y, z)
    if t.pattern != (2 * p, 2 * (p + 1), 2 * (p - 1)) or not t.generates:
        raise ConstructionError(f"malformed triple {t.pattern} at p={p}, k={k}")
    return t


def ext_triple(p: int, m: int, k: int, c1: int, c2: int) -> ReversingTriple:
    """Reversing triple of (Z_m x PSL(2,p)):2 lifted from a PGL(2,p) triple.

    The PGL triple (x_k, y_k, z) through point k is decorated with cyclic
    exponents: x = (c1, x_k), y = (c2, y_k), z = (0, z).  The difference
    c1 - c2 must be a unit mod m so that the product xy has full order mp.
    """
    X = build_group(EXT, p, m)
    if math.gcd((c1 - c2) % m, m) != 1:
        raise GroupError(
            f"c1 - c2 = {(c1 - c2) % m} must generate Z_{m} (be coprime to m)"
        )
    base = pgl_triple(p, k)
    Gp = base.group
    x = X.index[(c1 % m, Gp.elements[base.x])]
    y = X.index[(c2 % m, Gp.elements[base.y])]
    z = X.index[(0, Gp.elements[base.z])]
    t = make_triple(X, x, y, z)
    if t.pattern != (2 * m * p, 2 * (p + 1), 2 * (p - 1)) or not t.generates:
        raise ConstructionError(f"malformed extended triple {t.pattern}")
    return t


def construction_census(G: GroupHandle) -> list[tuple[int, int, int]]:
    """Every triple the construction can produce, over all free choices.

    The free choices are the point index k, the qualifying involution pair
    over that point and, in the extended family, the exponent pair (c1, c2)
    with unit difference.  The anchor involution z is fixed once per family;
    all other triples are conjugates and are compared class-wise.
    """
    p = G.p
    out: list[tuple[int, int, int]] = []
    if G.family == PSL2:
        if p % 4 != 1:
            return []
        for k in range(2, p + 1):
            xs, ys, z = _psl_candidates(G, k)
            out.extend((x, y, z) for x in xs for y in ys if x != y)
    elif G.family == PGL2:
        for k in range(0, p + 1):
            xs, ys, z = _pgl_candidates(G, k)
            out.extend((x, y, z) for x in xs for y in ys if x != y)
    else:
        Gp = build_group(PGL2, p)
        m = G.m
        pairs = [
            (c1, c2)
            for c1 in range(m)
            for c2 in range(m)
            if math.gcd((c1 - c2) % m, m) == 1
        ]
        for bx, by, bz in construction_census(Gp):
            mx, my, mz = Gp.elements[bx], Gp.elements[by], Gp.elements[bz]
            zi = G.index[(0, mz)]
            out.extend(
                (G.index[(c1, mx)], G.index[(c2, my)], zi) for c1, c2 in pairs
            )
    return sorted(set(out))


# -- the census engine -----------------------------------------------------------
#
# Pair orders, chi, the gcd filter and generation are all invariant under
# simultaneous conjugation.  So the engine fixes x to the least member of
# each class of involutions, scans only the (y, z) that complete it (the
# class's fiber), and rebuilds every other triple by conjugating the fiber
# with the class's transversal maps (see ``GroupHandle.involution_classes``).


def _expand(G: GroupHandle, fibers) -> list[tuple[int, int, int]]:
    """Every conjugate (u, y^t_u, z^t_u) of the fiber triples (rep, y, z).

    ``fibers`` pairs each involution class with (y, z) positions at its rep;
    u runs over the class, so each triple comes out once.
    """
    invs = G.involutions()
    out: list[tuple[int, int, int]] = []
    for cls, entries in fibers:
        for u, mu in cls.maps.items():
            x = invs[u]
            out.extend((x, invs[mu[y]], invs[mu[z]]) for y, z in entries)
    return out


def enumerate_reversing_triples(
    G: GroupHandle,
    pattern: TriplePattern,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[ReversingTriple]:
    """All ordered triples realizing the slotted pattern, ascending by indices.

    (x, y) is the pair at the vertex order, x the member at the face1 order
    with z.  Every returned triple generates G.
    """
    if G.order > budget:
        raise BudgetExceeded(f"group order {G.order} exceeds budget {budget}")
    dv, d1, d2 = pattern.as_tuple()
    invs = G.involutions()
    table = G.dihedral_table()
    fibers = []
    for cls in G.involution_classes().classes:
        x = invs[cls.rep]
        row = table[cls.rep]
        ys = [j for j, d in enumerate(row) if d == dv]
        zs = [k for k, d in enumerate(row) if d == d1]
        entries = [
            (j, k)
            for j in ys
            for k in zs
            if table[j][k] == d2 and _triple_generates(G, x, invs[j], invs[k], dv, d1, d2)
        ]
        fibers.append((cls, entries))
    return [
        ReversingTriple(G, x, y, z, (dv, d1, d2), True)
        for x, y, z in sorted(_expand(G, fibers))
    ]


# -- blind census over all involution triples ----------------------------------


@dataclass(frozen=True)
class PatternCensus:
    """All coprime-qualifying reversing triples sharing one dihedral pattern."""

    pattern: tuple[int, int, int]
    chi: int
    slotted: bool
    triples: tuple[tuple[int, int, int], ...]
    classes: tuple[tuple[int, int, int], ...]

    @property
    def multiset(self) -> tuple[int, int, int]:
        return tuple(sorted(self.pattern, reverse=True))


@dataclass(frozen=True)
class CensusScan:
    group: dict
    group_order: int
    involution_count: int
    combos_scanned: int
    qualifying: tuple[PatternCensus, ...]

    def multisets(self) -> list[tuple[int, int, int]]:
        return sorted(c.multiset for c in self.qualifying)


def _qualifying_table(G: GroupHandle, table: Sequence[Sequence[int]]) -> dict:
    values = sorted({d for row in table for d in row if d})
    edges = G.order // 2
    qual = {}
    for u in values:
        for v in values:
            for w in values:
                chi = G.order // u + G.order // v + G.order // w - edges
                qual[(u, v, w)] = math.gcd(abs(chi), edges) == 1
    return qual


def _normalize_hit(G: GroupHandle, e1: int, e2: int, e3: int):
    """Assign (x, y, z) roles inside an unordered qualifying triple.

    z is the member outside the p-divisible (vertex) pair; x takes the larger
    face order.  Ambiguous cases (possible only for unclassified patterns)
    fall back to index order, flagged as unslotted.
    """
    two_p = 2 * G.p
    table = G.dihedral_table()
    at = G.involution_classes().position
    options = []
    for z, u, v in ((e3, e1, e2), (e2, e1, e3), (e1, e2, e3)):
        dv = table[at[u]][at[v]]
        du = table[at[u]][at[z]]
        dw = table[at[v]][at[z]]
        if (du, -u) < (dw, -v):
            u, v, du, dw = v, u, dw, du
        options.append((0 if dv % two_p == 0 else 1, -dv, u, v, z, dv, du, dw))
    options.sort()
    p_divisible = sum(1 for o in options if o[0] == 0)
    best = options[0]
    slotted = p_divisible == 1 and best[6] != best[7]
    _, _, x, y, z, dv, d1, d2 = best
    return (x, y, z), (dv, d1, d2), slotted


def triple_conjugacy_classes(
    G: GroupHandle,
    triples,
    check_closed: bool = True,
) -> list[tuple[tuple[int, int, int], int]]:
    """Split involution triples into conjugation orbits; returns (orbit minimum, orbit size).

    Each triple is folded onto the fiber of the least member r of its x's
    class.  There its orbit is an orbit of the centralizer C(r), so the orbit
    minimum is (r, least pair of that C(r)-orbit) and the orbit size is
    |class of x| * |C(r)-orbit|.  The representative is the least member of
    the full orbit, so two subsets of the same orbit report the same
    representative.  Classes come in the order of their least listed member.

    A triple whose two face orders tie stands for the pair {x, y}: it is read
    with x < y, and its orbit joins those of (x, y, z) and (y, x, z).  With
    ``check_closed`` the triples must be whole orbits; a census built from a
    fixed pattern is.
    """
    C = G.involution_classes()
    invs = G.involutions()
    table = G.dihedral_table()
    listed = set()
    for triple in triples:
        try:
            x, y, z = (C.position[v] for v in triple)
        except KeyError as exc:
            raise GroupError(f"element {exc} of a triple is not an involution") from None
        if x > y and table[x][z] == table[y][z]:
            x, y = y, x
        listed.add((x, y, z))

    def fold(x: int, y: int, z: int) -> tuple[int, int, int]:
        cls = C.class_of[x]
        back = cls.inverse(x)
        return (cls.rep, back[y], back[z])

    def orbit(key: tuple[int, int, int]) -> set[tuple[int, int, int]]:
        r, y, z = key
        return {(r, c[y], c[z]) for c in C.class_of[r].centralizer()}

    seen: set[tuple[int, int, int]] = set()
    classes = []
    covered = 0
    for x, y, z in sorted(listed):
        key = fold(x, y, z)
        if key in seen:
            continue
        members = orbit(key)
        seen |= members
        size = C.class_of[x].size * len(members)
        least = min(members)
        if table[x][z] == table[y][z]:
            swapped = fold(y, x, z)
            if swapped in members:
                size //= 2
            else:
                other = orbit(swapped)
                seen |= other
                least = min(least, min(other))
        covered += size
        classes.append((tuple(invs[i] for i in least), size))
    if check_closed and covered != len(listed):
        raise RuntimeError("triple set is not closed under conjugation")
    return classes


def scan_reversing_census(G: GroupHandle, budget: int = DEFAULT_ENUM_BUDGET) -> CensusScan:
    """Blind census of all involution triples for coprime-qualifying patterns.

    Covers every unordered triple of distinct involutions (each stands for
    all six orderings), keeps those whose cell counts give gcd(chi, |E|) = 1
    and which generate G, and groups them by dihedral pattern with conjugacy
    class representatives.  Only the triples through one involution per
    class are scanned; the rest are their conjugates.  A slotted hit is kept
    where the rep plays x; an unslotted one, whose roles follow element
    indices and so do not commute with conjugation, is kept as an unordered
    set, expanded, and then given its roles.
    """
    if G.order > budget:
        raise BudgetExceeded(f"group order {G.order} exceeds budget {budget}")
    invs = G.involutions()
    table = G.dihedral_table()
    qual = _qualifying_table(G, table)
    n = len(invs)
    two_p = 2 * G.p
    slotted: dict[tuple[int, int, int], list] = {}
    loose = []
    for cls in G.involution_classes().classes:
        r = cls.rep
        x = invs[r]
        row_r = table[r]
        here: dict[tuple[int, int, int], list] = {}
        unordered = []
        for y in range(n):
            if y == r:
                continue
            a = row_r[y]
            row_y = table[y]
            for z in range(y + 1, n):
                if z == r or not qual[(a, row_r[z], row_y[z])]:
                    continue
                b, c = row_r[z], row_y[z]
                # the one pair at a p-divisible order is (x, y); x has the
                # larger face order with z
                divisible = (a % two_p == 0, b % two_p == 0, c % two_p == 0)
                if divisible == (True, False, False) and b != c:
                    entry, pat = (y, z), (a, b, c)
                    mine = b > c
                elif divisible == (False, True, False) and a != c:
                    entry, pat = (z, y), (b, a, c)
                    mine = a > c
                elif divisible == (False, False, True) and a != b:
                    mine = False
                else:
                    if _triple_generates(G, x, invs[y], invs[z], a, b, c):
                        unordered.append((y, z))
                    continue
                # a hit where the rep is not x is the conjugate of one where it is
                if mine and _triple_generates(G, x, invs[entry[0]], invs[entry[1]], *pat):
                    here.setdefault(pat, []).append(entry)
        for pat, entries in here.items():
            slotted.setdefault(pat, []).append((cls, entries))
        loose.append((cls, unordered))

    by_pattern = {pat: _expand(G, fibers) for pat, fibers in slotted.items()}
    for hit in {tuple(sorted(t)) for t in _expand(G, loose)}:
        t, pat, _ = _normalize_hit(G, *hit)
        by_pattern.setdefault(pat, []).append(t)

    censuses = []
    edges = G.order // 2
    for pat in sorted(by_pattern):
        chi = sum(G.order // d for d in pat) - edges
        if pat in slotted:
            fiber = [(invs[c.rep], invs[y], invs[z]) for c, es in slotted[pat] for y, z in es]
            classes = tuple(t for t, _ in triple_conjugacy_classes(G, fiber, check_closed=False))
        else:
            classes = ()
        censuses.append(
            PatternCensus(pat, chi, pat in slotted, tuple(sorted(by_pattern[pat])), classes)
        )
    return CensusScan(
        group=G.descriptor(),
        group_order=G.order,
        involution_count=n,
        combos_scanned=n * (n - 1) * (n - 2) // 6,
        qualifying=tuple(censuses),
    )
