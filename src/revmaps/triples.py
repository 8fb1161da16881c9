"""Reversing triples: constructions, exhaustive enumeration, conjugacy classes.

A reversing triple for a group G is an ordered triple (x, y, z) of distinct
involutions generating G, as ``groups.generates`` decides; it carries the
multiset of the three dihedral orders |<x,y>|, |<x,z>|, |<y,z>|.  The
classified families have slotted patterns

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
    GroupError,
    GroupHandle,
    build_group,
    generates,
)


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


def make_triple(G: GroupHandle, x: int, y: int, z: int) -> ReversingTriple:
    dv = 2 * G.pair_order(x, y)
    d1 = 2 * G.pair_order(x, z)
    d2 = 2 * G.pair_order(y, z)
    return ReversingTriple(G, x, y, z, (dv, d1, d2), generates(G, (x, y, z)))


# -- the three constructions --------------------------------------------------


def _point_indices(G: GroupHandle) -> range:
    """Indices of the points a construction may use; the psl2 anchor fixes 0 and 1."""
    return range(2 if G.family == PSL2 else 0, G.p + 1)


def _point_candidates(G: GroupHandle, k: int) -> tuple[list[int], list[int], int]:
    """The anchor z and the x, y candidates over the k-th projective point.

    x and y fix the point and make the predicted face orders with z.
    """
    p = G.p
    pattern = TriplePattern.predicted(G.family, p)
    if pattern is None:
        raise GroupError(f"construction over PSL(2,p) needs p = 1 (mod 4), got {p}")
    ks = _point_indices(G)
    if k not in ks:
        raise GroupError(f"point index k must lie in {ks.start}..{p}, got {k}")
    if G.family == PSL2:
        z = two_point_stabilizer_involution(G)
    else:
        z = cyclic_subgroup_involution(G, first_element_of_order(G, p + 1))
    delta = gfproj.all_points(p)[k]
    fixing = _fixing_involutions(G, delta)
    xs = [u for u in fixing if u != z and 2 * G.pair_order(z, u) == pattern.face1]
    ys = [u for u in fixing if u != z and 2 * G.pair_order(z, u) == pattern.face2]
    if not xs or not ys:
        raise ConstructionError(f"no qualifying involutions over point {delta}")
    return xs, ys, z


def _point_triple(G: GroupHandle, k: int) -> ReversingTriple:
    xs, ys, z = _point_candidates(G, k)
    x = xs[0]
    y = next(v for v in ys if v != x)
    t = make_triple(G, x, y, z)
    if t.pattern != TriplePattern.predicted(G.family, G.p).as_tuple() or not t.generates:
        raise ConstructionError(f"malformed triple {t.pattern} at p={G.p}, k={k}")
    return t


def psl_triple(p: int, k: int) -> ReversingTriple:
    """Reversing triple of PSL(2,p) through the point with canonical index k.

    z is the unique involution of the two-point stabilizer of ([0:1], [1:0]);
    x and y are the first involutions fixing the k-th point at dihedral
    orders p+1 and p-1 with z.  Requires p = 1 (mod 4) and 2 <= k <= p.
    """
    return _point_triple(build_group(PSL2, p), k)


def pgl_triple(p: int, k: int) -> ReversingTriple:
    """Reversing triple of PGL(2,p) through the point with canonical index k.

    z is the involution of a fixed cyclic subgroup of order p+1 (generated by
    the first element of that order); x and y fix the k-th point at dihedral
    orders 2(p+1) and 2(p-1) with z.  Valid for every prime p >= 5 and
    0 <= k <= p.
    """
    return _point_triple(build_group(PGL2, p), k)


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
    x = X.element(c1, Gp.matrix_part(base.x))
    y = X.element(c2, Gp.matrix_part(base.y))
    z = X.element(0, Gp.matrix_part(base.z))
    t = make_triple(X, x, y, z)
    if t.pattern != TriplePattern.predicted(EXT, p, m).as_tuple() or not t.generates:
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
    if G.family != EXT:
        if TriplePattern.predicted(G.family, p) is None:
            return []
        for k in _point_indices(G):
            xs, ys, z = _point_candidates(G, k)
            out.extend((x, y, z) for x in xs for y in ys if x != y)
    else:
        Gp = build_group(PGL2, p)
        m = G.m
        pairs = [(c1, c2) for c1 in range(m) for c2 in range(m) if math.gcd(c1 - c2, m) == 1]
        for bx, by, bz in construction_census(Gp):
            mx, my = Gp.matrix_part(bx), Gp.matrix_part(by)
            zi = G.element(0, Gp.matrix_part(bz))
            out.extend((G.element(c1, mx), G.element(c2, my), zi) for c1, c2 in pairs)
    return sorted(set(out))


# -- the census engine -----------------------------------------------------------
#
# Pair orders, chi, the gcd filter and generation are all invariant under
# simultaneous conjugation.  So the engine fixes x to the least member of
# each class of involutions and scans only the (y, z) that complete it (the
# class's fiber).  Class questions, and the count of all triples, are
# settled on the fibers: each class comes with its orbit size (see
# ``triple_conjugacy_classes``).


def pattern_chi(order: int, pattern: Sequence[int]) -> int:
    """Euler characteristic of the reversing map of a group of this order.

    The cells are |G|/d per dihedral order d of the pattern, and |G|/2 edges.
    """
    return sum(order // d for d in pattern) - order // 2


def enumerate_reversing_triples(
    G: GroupHandle, pattern: TriplePattern
) -> list[tuple[int, int, int]]:
    """The fiber triples realizing the slotted pattern, ascending.

    (x, y) is the pair at the vertex order, x the member at the face1 order
    with z, and x is the least member of its involution class.  Every
    triple realizing the pattern is conjugate to one of these, so
    ``triple_conjugacy_classes`` of the fibers gives every class of the
    pattern with its full size.  Every returned triple generates G
    (``groups.generates``).
    """
    dv, d1, d2 = pattern.as_tuple()
    invs = G.involutions()
    table = G.dihedral_table()
    out = []
    for cls in G.involution_classes().classes:
        x = invs[cls.rep]
        row = table[cls.rep]
        ys = [j for j, d in enumerate(row) if d == dv]
        zs = [k for k, d in enumerate(row) if d == d1]
        out.extend(
            (x, invs[j], invs[k])
            for j in ys
            for k in zs
            if table[j][k] == d2 and generates(G, (x, invs[j], invs[k]))
        )
    return out


# -- blind census over all involution triples ----------------------------------


@dataclass(frozen=True)
class PatternCensus:
    """The coprime-qualifying reversing triples sharing one dihedral pattern.

    For a slotted pattern ``triples`` holds the scanned fiber triples, x the
    least member of its involution class, and ``classes`` the orbit minima;
    ``raw_triples`` counts every ordered triple, summed from the orbit sizes.
    An unslotted pattern lists all its triples and has no classes.
    """

    pattern: tuple[int, int, int]
    chi: int
    triples: tuple[tuple[int, int, int], ...]
    raw_triples: int
    classes: tuple[tuple[int, int, int], ...]

    @property
    def multiset(self) -> tuple[int, int, int]:
        return tuple(sorted(self.pattern, reverse=True))


@dataclass(frozen=True)
class CensusScan:
    involution_count: int
    combos_scanned: int
    qualifying: tuple[PatternCensus, ...]

    def multisets(self) -> list[tuple[int, int, int]]:
        return sorted(c.multiset for c in self.qualifying)


def _qualifying_table(G: GroupHandle, table: Sequence[Sequence[int]]) -> dict:
    values = sorted({d for row in table for d in row if d})
    edges = G.order // 2
    return {
        (u, v, w): math.gcd(abs(pattern_chi(G.order, (u, v, w))), edges) == 1
        for u in values
        for v in values
        for w in values
    }


def _roles(G: GroupHandle, a: int, b: int, c: int):
    """Assign (x, y, z) roles to the involutions at positions a, b, c.

    z is the member outside the one pair at a dihedral order divisible by
    2p (the vertex pair), and x the member of that pair with the larger face
    order with z.  Without exactly one such pair, or with tied face orders
    (possible only for unclassified patterns), the roles follow position
    order, which is element order, and the hit is unslotted.  Returns the
    positions in role order, the pattern and whether the hit is slotted.
    """
    two_p = 2 * G.p
    table = G.dihedral_table()
    vertex = [
        (u, v, w)
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a))
        if table[u][v] % two_p == 0
    ]
    if len(vertex) == 1:
        x, y, z = vertex[0]
        if table[x][z] != table[y][z]:
            if table[x][z] < table[y][z]:
                x, y = y, x
            return (x, y, z), (table[x][y], table[x][z], table[y][z]), True
    x, y, z = sorted((a, b, c))
    return (x, y, z), (table[x][y], table[x][z], table[y][z]), False


def triple_conjugacy_classes(G: GroupHandle, triples) -> list[tuple[tuple[int, int, int], int]]:
    """The conjugation orbits the involution triples meet, as (orbit minimum, orbit size).

    Each triple is folded onto the fiber of the least member r of its x's
    class.  There its orbit is an orbit of the centralizer C(r), so the orbit
    minimum is (r, least pair of that C(r)-orbit) and the orbit size is
    |class of x| * |C(r)-orbit|.  The representative is the least member of
    the full orbit, so two subsets of the same orbit report the same
    representative.  Classes come in the order of their least listed member.

    The triples need not be whole orbits, and the fibers of
    ``enumerate_reversing_triples`` and of the scan are not: an orbit with
    any member listed is reported with its full size.

    A triple whose two face orders tie stands for the pair {x, y}: it is read
    with x < y, and its orbit joins those of (x, y, z) and (y, x, z).
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
        classes.append((tuple(invs[i] for i in least), size))
    return classes


def scan_reversing_census(G: GroupHandle) -> CensusScan:
    """Blind census of all involution triples for coprime-qualifying patterns.

    Covers every unordered triple of distinct involutions (each stands for
    all six orderings), keeps those whose cell counts give gcd(chi, |E|) = 1
    and which generate G (``groups.generates``), and groups them by dihedral
    pattern with conjugacy class representatives.  Only the triples through
    one involution per class are scanned; the rest are their conjugates.  A
    slotted hit is kept where the rep plays x, and its pattern is counted
    from the orbit sizes of its classes.  An unslotted hit, whose roles
    follow element indices and so do not commute with conjugation, is kept
    as an unordered set, expanded over its class, and then given its roles.
    """
    invs = G.involutions()
    table = G.dihedral_table()
    qual = _qualifying_table(G, table)
    n = len(invs)
    fibers: dict[tuple[int, int, int], list] = {}
    loose = set()
    for cls in G.involution_classes().classes:
        r = cls.rep
        row_r = table[r]
        unordered = []
        for y in range(n):
            if y == r:
                continue
            a = row_r[y]
            row_y = table[y]
            for z in range(y + 1, n):
                if z == r or not qual[(a, row_r[z], row_y[z])]:
                    continue
                (u, v, w), pat, slotted_hit = _roles(G, r, y, z)
                # a slotted hit where the rep is not x is the conjugate of one
                # where it is
                if slotted_hit and u != r:
                    continue
                if generates(G, (invs[u], invs[v], invs[w])):
                    if slotted_hit:
                        fibers.setdefault(pat, []).append((invs[u], invs[v], invs[w]))
                    else:
                        unordered.append((y, z))
        for u, mu in cls.maps.items():
            loose.update(tuple(sorted((u, mu[y], mu[z]))) for y, z in unordered)

    censuses = {}
    for pat, fiber in fibers.items():
        classes = triple_conjugacy_classes(G, fiber)
        censuses[pat] = PatternCensus(
            pat,
            pattern_chi(G.order, pat),
            tuple(sorted(fiber)),
            sum(size for _, size in classes),
            tuple(t for t, _ in classes),
        )
    unslotted: dict[tuple[int, int, int], list] = {}
    for hit in loose:
        t, pat, _ = _roles(G, *hit)
        unslotted.setdefault(pat, []).append(tuple(invs[i] for i in t))
    for pat, found in unslotted.items():
        censuses[pat] = PatternCensus(
            pat, pattern_chi(G.order, pat), tuple(sorted(found)), len(found), ()
        )
    return CensusScan(
        involution_count=n,
        combos_scanned=n * (n - 1) * (n - 2) // 6,
        qualifying=tuple(censuses[pat] for pat in sorted(censuses)),
    )
