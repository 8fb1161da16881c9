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

Triples and patterns are plain tuples: a triple is (x, y, z), element
indices into the cached ``build_group`` handle of its family, and a pattern
is (vertex, face1, face2).  The constructions check each triple's pattern
(``make_triple``) and leave generation to the map builder.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import groupby, permutations, product
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import gfproj
from .groups import (
    EXT,
    PGL2,
    PSL2,
    ConstructionError,
    GroupError,
    GroupHandle,
    build_group,
    generates,
)


def predicted_pattern(family: str, p: int, m: int = 1) -> tuple[int, int, int] | None:
    """The slotted pattern the classification allows for the family, if any."""
    if family == PSL2:
        return (2 * p, p + 1, p - 1) if p % 4 == 1 else None
    if family == PGL2:
        return (2 * p, 2 * (p + 1), 2 * (p - 1))
    if family == EXT:
        return (2 * m * p, 2 * (p + 1), 2 * (p - 1))
    raise GroupError(f"unknown family {family!r}")


def multiset(pattern: Sequence[int]) -> tuple[int, int, int]:
    """The dihedral orders of a pattern, largest first, with the slots forgotten."""
    return tuple(sorted(pattern, reverse=True))


# -- building blocks ---------------------------------------------------------


def _anchor(G: GroupHandle) -> int:
    """The anchor involution z that every construction over the m = 1 handle G shares.

    In psl2 it is diag(1, -1), the one fixing the canonical points [0:1] and
    [1:0]: under ``act``, fixing [1:0] forces c = 0, fixing [0:1] forces
    b = 0, and trace 0 leaves (1, 0, 0, p-1).  It lies in PSL(2,p) iff
    p = 1 (mod 4).  In pgl2 it is the involution of the cyclic group of the
    first element g of order n = p+1: g^(n/2) lies in F_p[g], trace 0, so up
    to scale g - (tr g/2)I: [[a-d, 2b], [2c, d-a]].
    """
    if G.family == PSL2:
        return G.element(0, gfproj.ProjMatrix(1, 0, 0, G.p - 1, G.p))
    g = next((i for i in range(G.order) if G.element_order(i) == G.p + 1), None)
    if g is None:
        raise ConstructionError(f"no element of order {G.p + 1} in {G!r}")
    a, b, c, d, p = G.matrix_part(g)
    return G.element(0, gfproj.proj_matrix(a - d, 2 * b, 2 * c, d - a, p))


def make_triple(G: GroupHandle, x: int, y: int, z: int) -> tuple[int, int, int]:
    """The constructed triple (x, y, z), checked against the family's pattern.

    The one check of a constructed triple: its dihedral orders |<x,y>|,
    |<x,z>|, |<y,z>| must be ``predicted_pattern`` slot for slot, else
    ConstructionError.  Generation is left to the map builder, which tests
    it once.
    """
    got = (2 * G.pair_order(x, y), 2 * G.pair_order(x, z), 2 * G.pair_order(y, z))
    want = predicted_pattern(G.family, G.p, G.m)
    if got != want:
        raise ConstructionError(f"constructed triple has dihedral orders {got}, expected {want}")
    return (x, y, z)


# -- the three constructions --------------------------------------------------


def _point_indices(G: GroupHandle) -> range:
    """Indices of the points a construction may use; the psl2 anchor fixes 0 and 1."""
    return range(2 if G.family == PSL2 else 0, G.p + 1)


def _point_candidates(G: GroupHandle, z: int, k: int) -> tuple[list[int], list[int]]:
    """The x and y candidates over the k-th projective point, for the anchor z.

    x and y fix the point at the predicted face orders face1 and face2 with
    z.  Those differ and exceed 2, so the lists are disjoint and miss z.
    """
    p = G.p
    delta = gfproj.all_points(p)[k]
    # m = 1, so an element's index is its matrix's position in the columns
    A, B, C, D = G.matrix_columns()
    fixing = [u for u in G.involutions() if gfproj.act((A[u], B[u], C[u], D[u], p), delta) == delta]
    _, face1, face2 = predicted_pattern(G.family, p)
    xs = [u for u in fixing if 2 * G.pair_order(z, u) == face1]
    ys = [u for u in fixing if 2 * G.pair_order(z, u) == face2]
    if not xs or not ys:
        raise ConstructionError(f"no qualifying involutions over point {delta}")
    return xs, ys


def _orbit_points(G: GroupHandle) -> list[int]:
    """The first index in ``_point_indices`` of each orbit of C(z) on the points, z the anchor.

    C(z) is transitive on the line in PGL(2,p); in PSL(2,p) it keeps the two
    points z fixes and has two orbits on the rest, the affine squares and
    non-squares (Dickson): positions 2 (the point 1) and v+1, v the least
    non-square.
    """
    if G.family == PGL2:
        return [0]
    p = G.p
    return [2, 1 + next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)]


def _point_triple(G: GroupHandle, k: int) -> tuple[int, int, int]:
    """The first candidates x, y over the k-th point with the anchor; the inputs checked here."""
    if predicted_pattern(G.family, G.p) is None:
        raise GroupError(f"construction over PSL(2,p) needs p = 1 (mod 4), got {G.p}")
    ks = _point_indices(G)
    if k not in ks:
        raise GroupError(f"point index k must lie in {ks.start}..{G.p}, got {k}")
    z = _anchor(G)
    xs, ys = _point_candidates(G, z, k)
    return make_triple(G, xs[0], ys[0], z)


def psl_triple(p: int, k: int) -> tuple[int, int, int]:
    """Reversing triple (x, y, z) of PSL(2,p) through the point with canonical index k.

    z is the unique involution of the two-point stabilizer of ([0:1], [1:0]);
    x and y are the first involutions fixing the k-th point at dihedral
    orders p+1 and p-1 with z.  Requires p = 1 (mod 4) and 2 <= k <= p.
    The indices are into ``build_group("psl2", p)``.
    """
    return _point_triple(build_group(PSL2, p), k)


def pgl_triple(p: int, k: int) -> tuple[int, int, int]:
    """Reversing triple (x, y, z) of PGL(2,p) through the point with canonical index k.

    z is the involution of a fixed cyclic subgroup of order p+1 (generated by
    the first element of that order); x and y fix the k-th point at dihedral
    orders 2(p+1) and 2(p-1) with z.  Valid for every prime p >= 5 and
    0 <= k <= p.  The indices are into ``build_group("pgl2", p)``.
    """
    return _point_triple(build_group(PGL2, p), k)


def _lift(X: GroupHandle, Gp: GroupHandle, base, c1: int, c2: int) -> tuple[int, int, int]:
    """The PGL(2,p) triple base = (x, y, z) of Gp lifted to (c1, x), (c2, y), (0, z) in X."""
    return tuple(X.element_from(c, Gp, u) for c, u in zip((c1, c2, 0), base))


def ext_triple(p: int, m: int, k: int, c1: int, c2: int) -> tuple[int, int, int]:
    """Reversing triple (x, y, z) of (Z_m x PSL(2,p)):2 lifted from a PGL(2,p) triple.

    The PGL triple (x_k, y_k, z) through point k is decorated with cyclic
    exponents: x = (c1, x_k), y = (c2, y_k), z = (0, z).  The difference
    c1 - c2 must be a unit mod m so that the product xy has full order mp.
    The indices are into ``build_group("ext", p, m)``.
    """
    X = build_group(EXT, p, m)
    if math.gcd((c1 - c2) % m, m) != 1:
        raise GroupError(f"c1 - c2 = {(c1 - c2) % m} must generate Z_{m} (be coprime to m)")
    Gp = X.matrix_group
    return make_triple(X, *_lift(X, Gp, _point_triple(Gp, k), c1, c2))


def construction_census(G: GroupHandle) -> list[tuple[int, int, int]]:
    """The construction's triples over one point per orbit of C(z); in ext, those with c1 = 0.

    The free choices are the point index k, the qualifying involution pair
    over that point and, in the extended family, the exponent pair (c1, c2)
    with unit difference.  The anchor involution z is fixed once per family;
    all other triples are conjugates and are compared class-wise.  So k runs
    over ``_orbit_points``: conjugation by c in C(z) sends the candidates
    over a point onto those over its image, at the same orders with z.  In
    ext only the lifts with c1 = 0 are listed, m*phi(m) down to phi(m) per
    base triple: conjugation by (d, 1) fixes z = (0, z), which lies in the
    PSL part when p = 3 (mod 4), and sends (c, u) to (c + 2d, u) for x and
    y, which lie outside it.  m is odd, so d = -c1/2 mod m moves every lift
    (c1, c2) to (0, c2 - c1), and the classes are those of the full lift.
    """
    if G.family == EXT:
        Gp = G.matrix_group
        units = [c2 for c2 in range(G.m) if math.gcd(c2, G.m) == 1]
        return sorted(
            {_lift(G, Gp, base, 0, c2) for base in construction_census(Gp) for c2 in units}
        )
    if predicted_pattern(G.family, G.p) is None:
        return []
    z = _anchor(G)
    return sorted(
        {(x, y, z) for k in _orbit_points(G) for x, y in product(*_point_candidates(G, z, k))}
    )


# -- the census engine -----------------------------------------------------------
#
# Pair orders, chi, the gcd filter and generation are all invariant under
# simultaneous conjugation.  So the engine, ``_fiber_hits``, fixes x to the
# least member of each class of involutions and scans only the (y, z) that
# complete it (the class's fiber), for the blind census and the enumeration
# alike.  Each asks one predicate of an order triple: the census whether its
# map is coprime (``check_coprime`` of ``pattern_chi``), the enumeration
# whether it orders the pattern.  The engine plans each order triple once
# per pass.  Class questions, and the count of all triples, are settled on
# the fibers (see ``triple_conjugacy_classes``).


def pattern_chi(order: int, pattern: Sequence[int]) -> int:
    """Euler characteristic of the reversing map of a group of this order.

    The cells are |G|/d per dihedral order d of the pattern, and |G|/2 edges.
    """
    return sum(order // d for d in pattern) - order // 2


def check_coprime(chi: int, edges: int) -> bool:
    """gcd(|chi|, edges) == 1, with the usual gcd(0, n) = n convention."""
    return math.gcd(abs(chi), edges) == 1


def enumerate_reversing_triples(
    G: GroupHandle, pattern: Sequence[int]
) -> list[tuple[int, int, int]]:
    """The fiber triples realizing the slotted pattern, ascending.

    (x, y) is the pair at the vertex order, x the member at the face1 order
    with z, and x is the least member of its involution class: the slotted
    fibers of ``_fiber_hits`` with only the orderings of the pattern
    qualifying.  Every triple realizing the pattern is conjugate to one of
    these, so ``triple_conjugacy_classes`` of the fibers gives every class
    of the pattern with its full size.  Every one generates G.  A pattern
    the engine does not slot as given (tied face orders, say) has none.
    """
    pattern = tuple(pattern)
    fibers, _ = _fiber_hits(G, set(permutations(pattern)).__contains__)
    return sorted(fibers.get(pattern, []))


# -- blind census over all involution triples ----------------------------------


class PatternCensus(NamedTuple):
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


class CensusScan(NamedTuple):
    involution_count: int
    combos_scanned: int
    qualifying: tuple[PatternCensus, ...]


def _coprime_filter(G: GroupHandle):
    """The census filter: an order triple qualifies when its map's chi is coprime to |E|."""
    return lambda orders: check_coprime(pattern_chi(G.order, orders), G.order // 2)


def _roles(G: GroupHandle, orders: tuple[int, int, int]):
    """The roles of the involutions a, b, c read off their dihedral orders, if slotted.

    ``orders`` are the dihedral orders of (a, b), (a, c) and (b, c).  z is
    the member outside the one pair at a dihedral order divisible by 2p (the
    vertex pair), and x the member of that pair with the larger face order
    with z.  Returns the indices 0, 1, 2 of a, b, c in (x, y, z) order and
    the pattern.  Without exactly one such pair, or with tied face orders
    (possible only for unclassified patterns), returns None: the hit is
    unslotted, and its roles follow element order.
    """
    ab, ac, bc = orders
    two_p = 2 * G.p
    # each pair, the member outside it, and the orders of the pair and of
    # its two members with that one
    vertex = [
        cand
        for cand in ((0, 1, 2, ab, ac, bc), (0, 2, 1, ac, ab, bc), (1, 2, 0, bc, ab, ac))
        if cand[3] % two_p == 0
    ]
    if len(vertex) == 1:
        x, y, z, xy, xz, yz = vertex[0]
        if xz != yz:
            if xz < yz:
                x, y, xz, yz = y, x, yz, xz
            return (x, y, z), (xy, xz, yz)
    return None


def triple_conjugacy_classes(G: GroupHandle, triples) -> list[tuple[tuple[int, int, int], int]]:
    """The conjugation orbits the involution triples meet, as (orbit minimum, orbit size).

    Each triple is folded onto the fiber of the least member r of its x's
    class along x's Schreier path, walked once per x for all its (y, z).
    There its orbit is an orbit of the centralizer C(r), so the orbit
    minimum is (r, least pair of that C(r)-orbit) and the orbit size is
    |class of x| * |C(r)-orbit|, closed breadth first (``_pair_orbit``)
    under the conjugation maps of the certified generators of
    ``groups.centralizer_generators``, which the handle keeps per class.
    The representative is the least member of the full orbit, so two subsets
    of the same orbit report the same representative.  Classes come in the
    order of their least listed member.

    The triples need not be whole orbits, and the fibers of
    ``enumerate_reversing_triples`` and of the scan are not: an orbit with
    any member listed is reported with its full size.
    """
    C = G.involution_classes()
    invs = G.involutions()
    try:
        listed = sorted({(C.position[x], C.position[y], C.position[z]) for x, y, z in triples})
    except KeyError as exc:
        raise GroupError(f"element {exc} of a triple is not an involution") from None
    seen: set[tuple[int, int, int]] = set()
    classes = []
    for x, rows in groupby(listed, key=itemgetter(0)):
        cls = C.class_of[x]
        r = cls.rep
        folded = cls.to_rep(x, [v for _, y, z in rows for v in (y, z)])
        for y, z in zip(folded[::2], folded[1::2]):
            if (r, y, z) in seen:
                continue
            orbit = _pair_orbit(C.centralizer_maps(G, cls), y, z)
            seen.update((r, a, b) for a, b in orbit)
            classes.append((tuple(invs[i] for i in (r, *min(orbit))), cls.size * len(orbit)))
    return classes


def _pair_orbit(maps: list[list[int]], y: int, z: int) -> list[tuple[int, int]]:
    """The orbit of the position pair (y, z) under the conjugation maps, breadth first."""
    orbit = [(y, z)]
    seen = set(orbit)
    for a, b in orbit:
        for c in maps:
            if (c[a], c[b]) not in seen:
                seen.add((c[a], c[b]))
                orbit.append((c[a], c[b]))
    return orbit


def _buckets(row: Sequence[int]) -> dict[int, list[int]]:
    """The positions of a table row by their value, ascending; the diagonal 0 left out."""
    out: dict[int, list[int]] = {}
    for y, d in enumerate(row):
        if d:
            out.setdefault(d, []).append(y)
    return out


def _pairs(table, ys: list[int], zs: list[int], orders):
    """The pairs y < z with y in ys and z in zs whose dihedral order is in orders, as (y, z, order).

    Both lists ascend.  Only the rows of the shorter list are read.
    """
    if len(ys) <= len(zs):
        for y in ys:
            row = table[y]
            for z in zs[bisect_right(zs, y) :]:
                if row[z] in orders:
                    yield y, z, row[z]
    else:
        for z in zs:
            row = table[z]
            for y in ys[: bisect_left(ys, z)]:
                if row[y] in orders:
                    yield y, z, row[y]


def _fiber_hits(G: GroupHandle, qual) -> tuple[dict, list]:
    """The census engine: the generating triples through each class rep that qualify.

    ``qual((a, b, c))`` says whether a triple (r, y, z) whose pairs (r, y),
    (r, z) and (y, z) have dihedral orders a, b and c counts.  The engine is
    exhaustive, but it visits only the pairs it may keep.  Every pair of
    involutions is conjugate to one through a class rep, so the reps' rows
    hold every dihedral order, and each order triple over them is planned
    once per pass.  A plan is kept where the triple qualifies and its
    slotted roles, read off the three orders alone by ``_roles``, put r at
    x (a slotted hit where r is not x is the conjugate of one where it is),
    or where it is unslotted.  It is (slots, spans): the roles and pattern,
    or None, and whether the lcm of the orders is |G|.  Dihedral orders are
    even, so that is the first check of ``generates``, and a hit that spans
    is taken without the call.  Generation is invariant under simultaneous
    conjugation, so a slotted hit that does not span is settled with its
    whole orbit under C(r) (``_pair_orbit``) by one call; an unslotted hit
    is tested alone.  Through each rep r the other positions are
    bucketed by their dihedral order with r; for a planned (a, b) only y in
    bucket a and z in bucket b are visited, and only the table rows of the
    shorter bucket are read.  A pair never visited fails ``qual`` or is the
    conjugate of a kept hit.  With nothing qualifying no pair is visited
    and no row but the reps' is built.

    Returns the slotted fibers by pattern, element triples (x, y, z) with x
    the rep, and the unslotted hits as (class, flat positions y1, z1, ...).
    """
    invs, table = G.involutions(), G.dihedral_table()
    C = G.involution_classes()
    inv_classes = C.classes
    buckets = [_buckets(table[cls.rep]) for cls in inv_classes]
    plans: dict[tuple[int, int], dict] = {}
    for orders in product(sorted(set().union(*buckets)), repeat=3):
        if qual(orders):
            slots = _roles(G, orders)
            if slots is None or slots[0][0] == 0:
                plan = (slots, math.lcm(*orders) == G.order)
                plans.setdefault(orders[:2], {})[orders[2]] = plan
    fibers: dict[tuple[int, int, int], list] = {}
    unslotted = []
    for cls, bucket in zip(inv_classes, buckets):
        r = cls.rep
        unordered = []
        # generation by pair, in both orders: the scan may meet a conjugate
        # of (y, z) as (z', y')
        settled: dict[tuple[int, int], bool] = {}
        for (a, b), hits in plans.items():
            if a not in bucket or b not in bucket:
                continue
            for y, z, c in _pairs(table, bucket[a], bucket[b], hits):
                slots, spans = hits[c]
                t = (invs[r], invs[y], invs[z])
                if not spans and slots is not None and (y, z) not in settled:
                    ok = generates(G, t)
                    for u, v in _pair_orbit(C.centralizer_maps(G, cls), y, z):
                        settled[u, v] = settled[v, u] = ok
                if spans or (generates(G, t) if slots is None else settled[y, z]):
                    if slots is None:
                        unordered += (y, z)
                    else:
                        roles, pat = slots
                        fibers.setdefault(pat, []).append(tuple(t[i] for i in roles))
        if unordered:
            unslotted.append((cls, unordered))
    return fibers, unslotted


def scan_reversing_census(G: GroupHandle) -> CensusScan:
    """Blind census of all involution triples for coprime-qualifying patterns.

    Covers every unordered triple of distinct involutions (each stands for
    all six orderings), keeps those whose cell counts give gcd(chi, |E|) = 1
    and which generate G (``groups.generates``), and groups them by dihedral
    pattern with conjugacy class representatives.  Only the triples through
    one involution per class are scanned, by the census engine
    ``_fiber_hits``; the rest are their conjugates.  A slotted hit is kept
    where the rep plays x, and its pattern is counted from the orbit sizes
    of its classes.  An unslotted hit, whose roles follow element indices
    and so do not commute with conjugation, is kept as an unordered set,
    expanded over its class, and then given its roles.
    """
    invs, table = G.involutions(), G.dihedral_table()
    n = len(invs)
    fibers, unslotted = _fiber_hits(G, _coprime_filter(G))
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
    loose = set()
    for cls, pairs in unslotted:
        for u in cls.members:
            images = cls.from_rep(u, pairs)
            loose.update(tuple(sorted((u, y, z))) for y, z in zip(images[::2], images[1::2]))
    by_pattern: dict[tuple[int, int, int], list] = {}
    for x, y, z in loose:
        pat = (table[x][y], table[x][z], table[y][z])
        by_pattern.setdefault(pat, []).append((invs[x], invs[y], invs[z]))
    for pat, found in by_pattern.items():
        censuses[pat] = PatternCensus(
            pat, pattern_chi(G.order, pat), tuple(sorted(found)), len(found), ()
        )
    return CensusScan(
        involution_count=n,
        combos_scanned=n * (n - 1) * (n - 2) // 6,
        qualifying=tuple(censuses[pat] for pat in sorted(censuses)),
    )
