"""Slow reference implementations of the census engine and the map builder.

The census part holds the direct loops the engine in ``revmaps.triples``
replaces: the scan over every unordered involution triple, the x*y*z
enumeration loop and the conjugation sweep over all |G| elements per class.
The same sweep gives the element classes that ``revmaps.groups`` reads off
conjugation orbits.
They share only the coprimality filter ``triples._coprime_filter`` and the
generation test with the engine, and are compared with it at small p; the
roles of a hit follow the documented rule, written out here on elements.
Element and pair orders come from repeated multiplication, not from the
closed form in ``gfproj.projective_order``: ``mat_multiply`` and
``mat_inverse`` form the normalized product and inverse of matrices, which
the library never forms, and ``oracle_matrix_order`` multiplies until the
identity.

The group part lists PGL(2,p) as one ProjMatrix per element
(``oracle_all_matrices``), where ``revmaps.gfproj.all_matrices`` gives four
entry columns, flags PSL(2,p) by a sweep of determinants
(``oracle_psl_flags``), where the listing flags each block of matrices as
it builds it, cuts PSL(2,p) out of the PGL(2,p) columns by those flags
(``oracle_psl_matrices``), where ``revmaps.gfproj.psl_matrices`` lists it
from its determinants, builds the elements of each family as
(exponent, matrix) pairs and multiplies them by the twisted product of the
``revmaps.groups`` docstring, with no use of the handle's index encoding or its point-code
table: PSL membership is Euler's criterion, inverses are searched, and
``oracle_conjugate`` conjugates by these products.

The map part builds a map as a coset incidence geometry, the way the paper
states it: cells are coset blocks, two cells are incident iff their cosets
meet, the flags are the mutually incident (vertex, edge, face) triples, and
partners are found by grouping flags on tuple keys.  ``revmaps.mapgeom``
instead takes the flags G x {face family} and keeps only the partners of
the identity flags, checked when a map is built, and is compared with this;
``oracle_partner_maps`` extends those partners to every flag by ``G.mul``,
and ``oracle_flag_system`` labels every one of those flags with its coset
blocks, pairs them by their labels and colours the whole flag graph.
``oracle_right_cosets`` finds each right coset as the orbit of the
generators under left multiplication by ``oracle_product``, where
``revmaps.groups.right_cosets`` walks two cycles of the left
multiplication by r = u*v per coset, and ``oracle_closure`` closes a
subgroup breadth first by the same product, where
``revmaps.groups.subgroup_closure`` lists a dihedral span by powers.
``oracle_graph`` classifies the underlying graph from its edge list, the
Petersen graph by an explicit isomorphism.  ``oracle_sylow_lemma`` is the
stabilizer lemma in two parts, the lcm and the full prime powers of |G|,
which ``revmaps.verify`` reduces to the lcm.  ``oracle_pgl_action`` is the
exhaustive projective-action check on PGL(2,p) or PSL(2,p): it walks every
element of order p+1, or (p+1)/2 in PSL(2,p), around the line and counts
the fixed points of every involution, where ``revmaps.verify`` keeps only
what the distinct-images check and the class comparison leave open.
``oracle_no_rotary`` tries every involution with every class rep, where
``revmaps.verify`` first filters the pairs of element orders, and
``oracle_cyclic_subgroup_involution`` takes the power g^(n/2) that
``revmaps.triples._anchor`` reads off the entries of g, with n = p+1.
``oracle_involution_generators`` finds the generating triple by one
multiplied-out pair order per score, where ``revmaps.groups`` reads three
bulk rows of the dihedral table's kernel, and
``oracle_construction_census`` lists the construction over every point and
lifts every ext base triple with all m*phi(m) exponent pairs, where
``revmaps.triples`` takes one point per orbit of the anchor's centralizer
and lifts only the exponent pairs with c1 = 0, and ``oracle_orbit_points``
finds those orbits by acting with the whole centralizer, where
``revmaps.triples._orbit_points`` takes their closed form (Dickson).
``oracle_centralizer`` closes the centralizer of a class rep from Schreier
generators over the class's Schreier vector, where ``revmaps.groups`` reads
two or three commuting involutions off the dihedral table, and
``oracle_fold_classes`` folds triples onto the fibers and takes each orbit
as the images under that whole closure.  ``oracle_flag_regular_triple`` is
the nested search over involution triples that ``revmaps.verify`` replaced
with the fixed, order-certified triple of PSL(2,5).
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from itertools import combinations, compress, product

from revmaps import gfproj, triples, verify
from revmaps.gfproj import GFProjError, ProjMatrix, check_prime, proj_matrix
from revmaps.groups import (
    EXT,
    PGL2,
    GroupHandle,
    build_group,
    conjugacy_class_reps,
    generates,
)
from revmaps.mapgeom import SCHEMA_VERSION, MapError, MapGeometry
from revmaps.triples import CensusScan, PatternCensus


def mat_multiply(lhs: ProjMatrix, rhs: ProjMatrix) -> ProjMatrix:
    """Normalized product of two projective matrices over the same F_p."""
    if lhs.p != rhs.p:
        raise GFProjError(f"modulus mismatch: {lhs.p} vs {rhs.p}")
    a, b, c, d, p = lhs
    e, f, g, h, _ = rhs
    return proj_matrix(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, p)


def mat_inverse(m: ProjMatrix) -> ProjMatrix:
    # the adjugate is a scalar multiple of the inverse
    return proj_matrix(m.d, -m.b, -m.c, m.a, m.p)


def oracle_matrix_order(g: ProjMatrix) -> int:
    """Smallest n >= 1 with g^n = I, by repeated multiplication."""
    ident = ProjMatrix(1, 0, 0, 1, g.p)
    n, acc = 1, g
    while acc != ident:
        acc = mat_multiply(acc, g)
        n += 1
    return n


def oracle_all_matrices(p: int) -> list[ProjMatrix]:
    """All of PGL(2,p) as normalized matrices in ascending tuple order, one ProjMatrix each.

    Normalized classes have a = 0, b = 1 (det = -c) or a = 1 (det = d - bc).
    """
    check_prime(p)
    out = [ProjMatrix(0, 1, c, d, p) for c in range(1, p) for d in range(p)]
    out += [
        ProjMatrix(1, b, c, d, p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (d - b * c) % p
    ]
    return out


def oracle_in_psl(g: ProjMatrix) -> bool:
    """True iff det(g) is a nonzero square mod p, by Euler's criterion."""
    return pow(g.a * g.d - g.b * g.c, (g.p - 1) // 2, g.p) == 1


def oracle_psl_flags(cols: gfproj.Columns, p: int) -> bytes:
    """1 for each matrix of the columns in PSL(2,p), else 0: whether det is a nonzero square mod p.

    One determinant per matrix against a table of squares.  Well defined on
    scalar classes: rescaling multiplies det by a square.
    """
    squares = bytearray(p)
    for x in range(1, p):
        squares[x * x % p] = 1
    return bytes([squares[(a * d - b * c) % p] for a, b, c, d in zip(*cols)])


def oracle_psl_matrices(p: int) -> gfproj.Columns:
    """The columns of PGL(2,p) cut to the matrices ``oracle_psl_flags`` marks."""
    cols, _ = gfproj.all_matrices(p)
    flags = oracle_psl_flags(cols, p)
    return tuple(array("H", compress(col, flags)) for col in cols)


Pair = tuple[int, ProjMatrix]


def oracle_elements(family: str, p: int, m: int) -> list[Pair]:
    """The family's group as ascending (exponent, matrix) pairs.

    The matrix part runs over PSL(2,p) for psl2 and PGL(2,p) otherwise, the
    exponent over Z_m.
    """
    mats = [g for g in oracle_all_matrices(p) if family != "psl2" or oracle_in_psl(g)]
    return sorted((e, g) for e in range(m) for g in mats)


def oracle_product(x: Pair, y: Pair, m: int) -> Pair:
    """(i, g) * (j, h) = (i + eps(g)*j mod m, g*h), eps(g) = +1 iff g in PSL."""
    (i, g), (j, h) = x, y
    return ((i + j if oracle_in_psl(g) else i - j) % m, mat_multiply(g, h))


def oracle_twisted_orders(pairs: list[Pair], m: int) -> dict[Pair, int]:
    """The order of every pair, by repeated twisted multiplication."""
    ident = (0, ProjMatrix(1, 0, 0, 1, pairs[0][1].p))
    orders = {}
    for x in pairs:
        n, acc = 1, x
        while acc != ident:
            acc = oracle_product(acc, x, m)
            n += 1
        orders[x] = n
    return orders


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


def oracle_involution_generators(G: GroupHandle) -> list[int]:
    """The generating triple of ``revmaps.groups``, scored one ``oracle_pair_order`` at a time.

    In M = G, or PGL(2,p) in ext: x = diag(1, -1) and y = [[1, 1], [0, -1]],
    or in psl2 with p = 3 mod 4 x = [[0, 1], [-1, 0]] and the first y with
    |xy| = (p+1)/2; then the first involution w with lcm(2|xy|, 2|xw|,
    2|yw|, |xyw|) = |M|.  In ext, x is lifted with exponent 1.
    """
    p = G.p
    M = build_group(PGL2, p) if G.family == "ext" else G
    invs = oracle_involutions(M)
    if G.family == "psl2" and p % 4 == 3:
        x = M.element(0, ProjMatrix(0, 1, p - 1, 0, p))
        y = next(v for v in invs if oracle_pair_order(M, x, v) == (p + 1) // 2)
    else:
        x = M.element(0, ProjMatrix(1, 0, 0, p - 1, p))
        y = M.element(0, ProjMatrix(1, 1, 0, p - 1, p))
    xy = M.mul(x, y)

    def reached(w: int) -> int:
        pairs = (oracle_pair_order(M, u, v) for u, v in ((x, y), (x, w), (y, w)))
        return math.lcm(*(n + n for n in pairs), oracle_pair_order(M, xy, w))

    w = next(v for v in invs if reached(v) == M.order)
    return [G.element_from(e, M, u) for e, u in zip((1, 0, 0), (x, y, w))]


def oracle_close_maps(gens, ident: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every product of the position maps gens, closed breadth first from ident."""
    elems = {ident}
    frontier = [ident]
    for e in frontier:
        for g in gens:
            h = tuple([g[j] for j in e])
            if h not in elems:
                elems.add(h)
                frontier.append(h)
    return elems


def oracle_centralizer(G: GroupHandle, cls) -> set[tuple[int, ...]]:
    """The conjugation maps, on involution positions, of every element of C(cls.rep).

    Closed from the Schreier generators t_u s t_{u^s}^-1 of the class's
    Schreier vector until it reaches |G| / |class| elements.
    """
    positions = range(len(G.involutions()))
    ident = tuple(positions)
    gens: list[tuple[int, ...]] = []
    elems = {ident}
    for u in cls.members:
        if len(elems) * cls.size == G.order:
            break
        mu = cls.from_rep(u, positions)
        for g in cls._generators:
            h = tuple(cls.to_rep(g[u], [g[j] for j in mu]))
            if h not in elems:
                gens.append(h)
                elems = oracle_close_maps(gens, ident)
    return elems


def oracle_fold_classes(G: GroupHandle, triples) -> list[tuple[tuple[int, int, int], int]]:
    """``triple_conjugacy_classes``, each orbit the images under all of ``oracle_centralizer``."""
    C = G.involution_classes()
    invs = G.involutions()
    seen: set[tuple[int, int, int]] = set()
    cents: dict[int, set[tuple[int, ...]]] = {}
    classes = []
    for triple in sorted({tuple(C.position[v] for v in t) for t in triples}):
        cls = C.class_of[triple[0]]
        r = cls.rep
        y, z = cls.to_rep(triple[0], triple[1:])
        if (r, y, z) in seen:
            continue
        if r not in cents:
            cents[r] = oracle_centralizer(G, cls)
        members = {(r, c[y], c[z]) for c in cents[r]}
        seen |= members
        classes.append((tuple(invs[i] for i in min(members)), cls.size * len(members)))
    return classes


def oracle_construction_census(G: GroupHandle) -> list[tuple[int, int, int]]:
    """The construction census over every point and, in ext, every exponent pair (c1, c2)."""
    if G.family == EXT:
        Gp = build_group(PGL2, G.p)
        m = G.m
        pairs = [(c1, c2) for c1 in range(m) for c2 in range(m) if math.gcd(c1 - c2, m) == 1]
        return sorted(
            {
                tuple(G.element_from(c, Gp, u) for c, u in zip((c1, c2, 0), base))
                for base in oracle_construction_census(Gp)
                for c1, c2 in pairs
            }
        )
    if triples.predicted_pattern(G.family, G.p) is None:
        return []
    z = triples._anchor(G)
    return sorted(
        {
            (x, y, z)
            for k in triples._point_indices(G)
            for x, y in product(*triples._point_candidates(G, z, k))
        }
    )


def oracle_orbit_points(G: GroupHandle) -> list[int]:
    """The first position in ``triples._point_indices`` of each orbit of C(z), z the anchor.

    C(z) is found by multiplying z with every element, and its orbits by
    acting on the points breadth first.
    """
    z = triples._anchor(G)
    cent = [g for g in range(G.order) if G.mul(g, z) == G.mul(z, g)]
    moves = [G.matrix_part(g) for g in cent]
    points = gfproj.all_points(G.p)
    seen: set[int] = set()
    firsts = []
    for k in triples._point_indices(G):
        if points[k] not in seen:
            firsts.append(k)
            orbit = [points[k]]
            seen.add(points[k])
            for delta in orbit:
                images = {gfproj.act(g, delta) for g in moves} - seen
                seen |= images
                orbit += images
    return firsts


def oracle_pattern(G: GroupHandle, triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """The dihedral orders (|<x,y>|, |<x,z>|, |<y,z>|) of a triple, by repeated multiplication."""
    x, y, z = triple
    return tuple(2 * oracle_pair_order(G, u, v) for u, v in ((x, y), (x, z), (y, z)))


def oracle_enumerate(G: GroupHandle, pattern: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Every ordered triple realizing the slotted pattern, by the x*y*z loop."""
    invs = oracle_involutions(G)
    table = oracle_dihedral_table(G)
    dv, d1, d2 = pattern
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
                if generates(G, (x, y, z)):
                    out.append((x, y, z))
    return out


def oracle_roles(G: GroupHandle, hit) -> tuple[tuple[int, int, int], bool]:
    """Roles (x, y, z) of an unordered involution triple, and whether it is slotted.

    z is the member outside the one pair whose dihedral order 2p divides,
    and x the member of that pair with the larger face order with z.
    Otherwise the roles follow index order and the hit is unslotted.
    """
    a, b, c = sorted(hit)
    divisible = [
        (u, v, w)
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a))
        if oracle_pair_order(G, u, v) % G.p == 0
    ]
    if len(divisible) == 1:
        u, v, z = divisible[0]
        du, dv = oracle_pair_order(G, u, z), oracle_pair_order(G, v, z)
        if du > dv:
            return (u, v, z), True
        if dv > du:
            return (v, u, z), True
    return (a, b, c), False


@lru_cache(maxsize=None)
def oracle_inverse(x: Pair, m: int) -> Pair:
    """The pair y with x*y = 1, searched among the m pairs over the inverse matrix."""
    ident = (0, ProjMatrix(1, 0, 0, 1, x[1].p))
    pairs = ((j, mat_inverse(x[1])) for j in range(m))
    return next(y for y in pairs if oracle_product(x, y, m) == ident)


def oracle_conjugate(G: GroupHandle, i: int, g: int) -> int:
    """g^-1 * i * g, by two ``oracle_product`` calls on (exponent, matrix) pairs."""
    pairs, at = _pairs_of(G)
    x = pairs[g]
    return at[oracle_product(oracle_product(oracle_inverse(x, G.m), pairs[i], G.m), x, G.m)]


def oracle_conjugacy_class(G: GroupHandle, g: int) -> tuple[int, ...]:
    """The conjugacy class of g, by conjugating it with every element of G."""
    return tuple(sorted({oracle_conjugate(G, g, h) for h in range(G.order)}))


def oracle_two_point_stabilizer_involution(G: GroupHandle) -> int:
    """The involution of exponent 0 fixing [0:1] and [1:0], by a sweep that checks it is unique."""
    sigma, tau = gfproj.all_points(G.p)[:2]
    hits = [
        i
        for i in oracle_involutions(G)
        if gfproj.act(G.matrix_part(i), sigma) == sigma
        and gfproj.act(G.matrix_part(i), tau) == tau
        and G.exponent_part(i) == 0
    ]
    assert len(hits) == 1, f"expected a unique two-point stabilizer involution, found {len(hits)}"
    return hits[0]


def oracle_cyclic_subgroup_involution(G: GroupHandle, n: int) -> int:
    """The involution of the cyclic group of the first element g of even order n, as g^(n/2).

    The power loop ``triples._anchor`` replaces by its closed form for the
    pgl2 anchor, n = p+1.
    """
    g = next((i for i in range(G.order) if G.element_order(i) == n), None)
    if g is None:
        raise triples.ConstructionError(f"no element of order {n} in {G!r}")
    acc = g
    for _ in range(n // 2 - 1):
        acc = G.mul(acc, g)
    return acc


def oracle_no_rotary(G: GroupHandle) -> bool:
    """``verify.check_no_rotary`` without its order filter: every (class rep, involution) pair.

    ``verify.check_coprime`` is looked up at call time, so that a test can
    replace the filter.
    """
    edges = G.order // 2
    invs = G.involutions()
    for a in conjugacy_class_reps(G):
        if a == G.identity:
            continue
        v = G.order // G.element_order(a)
        for z in invs:
            f = G.order // G.pair_order(a, z)
            chi = v - edges + f
            if verify.check_coprime(chi, edges) and generates(G, {a, z}):
                return False
    return True


def oracle_class_minima(G: GroupHandle) -> set[int]:
    """The least member of each class of involutions, by conjugating with all of G."""
    left = set(oracle_involutions(G))
    minima = set()
    while left:
        v = min(left)
        minima.add(v)
        left -= set(oracle_conjugacy_class(G, v))
    return minima


def oracle_classes(G: GroupHandle, triples, check_closed: bool = True):
    """Conjugation orbits by conjugating each new triple with all of G."""
    tset = set(triples)
    visited: set[tuple[int, int, int]] = set()
    classes = []
    for x, y, z in sorted(tset):
        if (x, y, z) in visited:
            continue
        orbit = set()
        for g in range(G.order):
            gi = G.inv(g)
            orbit.add(tuple(G.mul(G.mul(gi, v), g) for v in (x, y, z)))
        if check_closed and not orbit <= tset:
            raise RuntimeError("triple set is not closed under conjugation")
        visited |= orbit
        classes.append((min(orbit), len(orbit)))
    return classes


def oracle_scan(G: GroupHandle) -> CensusScan:
    """The census by scanning all n(n-1)(n-2)/6 unordered involution triples."""
    invs = oracle_involutions(G)
    table = oracle_dihedral_table(G)
    # the engine's filter on an order triple, looked up at call time so that
    # a test can replace it
    qual = triples._coprime_filter(G)
    n = len(invs)
    by_pattern: dict[tuple[int, int, int], list] = {}
    slot_ok: dict[tuple[int, int, int], bool] = {}
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if not qual((table[a][b], table[a][c], table[b][c])):
                    continue
                (x, y, z), slotted = oracle_roles(G, (invs[a], invs[b], invs[c]))
                pat = tuple(2 * oracle_pair_order(G, u, v) for u, v in ((x, y), (x, z), (y, z)))
                if not generates(G, (x, y, z)):
                    continue
                by_pattern.setdefault(pat, []).append((x, y, z))
                slot_ok[pat] = slot_ok.get(pat, True) and slotted

    censuses = []
    edges = G.order // 2
    minima = oracle_class_minima(G)
    for pat in sorted(by_pattern):
        found = tuple(sorted(by_pattern[pat]))
        chi = sum(G.order // d for d in pat) - edges
        if slot_ok[pat]:
            # a slotted pattern keeps the triples whose x is least in its class
            kept = tuple(t for t in found if t[0] in minima)
            classes = tuple(t for t, _ in oracle_classes(G, found))
        else:
            kept, classes = found, ()
        censuses.append(PatternCensus(pat, chi, kept, len(found), classes))
    return CensusScan(
        involution_count=n,
        combos_scanned=n * (n - 1) * (n - 2) // 6,
        qualifying=tuple(censuses),
    )


def oracle_expand(G: GroupHandle, fibers) -> list[tuple[int, int, int]]:
    """Every conjugate (x^g, y^g, z^g) of the fiber triples (rep, y, z), ascending.

    g runs over one element of G per conjugate of each rep, found by
    sweeping all of G, so each triple of a slotted census comes out once.
    """
    transversals: dict[int, dict[int, int]] = {}
    out: list[tuple[int, int, int]] = []
    for x, y, z in fibers:
        if x not in transversals:
            transversals[x] = {}
            for g in range(G.order):
                transversals[x].setdefault(G.mul(G.mul(G.inv(g), x), g), g)
        for u, g in transversals[x].items():
            out.append((u, G.mul(G.mul(G.inv(g), y), g), G.mul(G.mul(G.inv(g), z), g)))
    return sorted(out)


# -- maps as coset incidence geometries ------------------------------------------


@lru_cache(maxsize=None)
def _pairs_of(G: GroupHandle) -> tuple[list[Pair], dict[Pair, int]]:
    """The (exponent, matrix) pair of every element index of G, and its inverse."""
    pairs = [(G.exponent_part(i), G.matrix_part(i)) for i in range(G.order)]
    return pairs, {x: i for i, x in enumerate(pairs)}


def oracle_closure(G: GroupHandle, gens) -> tuple[int, ...]:
    """The sorted members of <gens>, closed breadth first by ``oracle_product``."""
    pairs, at = _pairs_of(G)
    gens = [pairs[s] for s in set(gens)]
    ident = (0, ProjMatrix(1, 0, 0, 1, G.p))
    seen = {ident}
    frontier = [ident]
    for x in frontier:
        for s in gens:
            y = oracle_product(x, s, G.m)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(at[x] for x in seen))


def oracle_right_cosets(G: GroupHandle, gens) -> list[int]:
    """The right coset <gens>g of every element g, as ids numbered by least member.

    Hg is the orbit of g under left multiplication by the generators s,
    each product taken by ``oracle_product`` on (exponent, matrix) pairs and
    searched breadth first.
    """
    pairs, at = _pairs_of(G)
    gens = [pairs[s] for s in set(gens)]
    label = [-1] * G.order
    count = 0
    for g in range(G.order):
        if label[g] >= 0:
            continue
        label[g] = count
        orbit = [pairs[g]]
        for x in orbit:
            for s in gens:
                y = oracle_product(s, x, G.m)
                w = at[y]
                if label[w] != count:
                    label[w] = count
                    orbit.append(y)
        count += 1
    return label


def _coset_blocks(G: GroupHandle, gens) -> list[tuple[int, ...]]:
    """The right cosets of <gens> as sorted blocks, ordered by least member."""
    members = oracle_closure(G, gens)
    placed: set[int] = set()
    blocks = []
    for g in range(G.order):
        if g not in placed:
            block = tuple(sorted(G.mul(h, g) for h in members))
            placed.update(block)
            blocks.append(block)
    return blocks


def _cell_of(G: GroupHandle, blocks, offset: int = 0) -> list[int]:
    of = [0] * G.order
    for i, block in enumerate(blocks, start=offset):
        for g in block:
            of[g] = i
    return of


def _tuple_pairing(flags, drop: int) -> list[int]:
    """Partners of the flags that agree off coordinate ``drop``."""
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, flag in enumerate(flags):
        groups.setdefault(flag[:drop] + flag[drop + 1 :], []).append(idx)
    out = [0] * len(flags)
    for members in groups.values():
        if len(members) != 2:
            raise RuntimeError(f"{len(members)} flags share two coordinates")
        a, b = members
        out[a], out[b] = b, a
    return out


def _bipartite(rhos) -> bool:
    n = len(rhos[0])
    color = [-1] * n
    color[0] = 0
    stack = [0]
    ok = True
    while stack:
        i = stack.pop()
        for rho in rhos:
            j = rho[i]
            if color[j] < 0:
                color[j] = 1 - color[i]
                stack.append(j)
            elif color[j] == color[i]:
                ok = False
    if -1 in color:
        raise RuntimeError("flag graph is disconnected")
    return ok


def _cell_generators(kind: str, generators) -> tuple[tuple[str, ...], tuple]:
    """Role names, and the generators of the vertex, edge and each face family's cells."""
    a, b, c = generators
    if kind == "reversing":
        return ("x", "y", "z"), ((a, b), (c,), [(a, c), (b, c)])
    return ("r0", "r1", "r2"), ((b, c), (a, c), [(a, b)])


def _isomorphic(adj_a: list[set[int]], adj_b: list[set[int]]) -> bool:
    """Whether two simple graphs are isomorphic, by backtracking over vertex maps."""
    n = len(adj_a)
    if n != len(adj_b) or sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or len(adj_b[w]) != len(adj_a[v]):
                continue
            if all((u in adj_a[v]) == (mapping[u] in adj_b[w]) for u in range(v)):
                mapping[v], used[w] = w, True
                if extend(v + 1):
                    return True
                mapping[v], used[w] = -1, False
        return False

    return extend(0)


def oracle_graph(V: int, pairs) -> dict:
    """The graph part of a map record, from the edge endpoint pairs alone.

    The Petersen graph is matched by an explicit isomorphism with the
    disjointness graph of the 2-subsets of a 5-set.
    """
    degree = [0] * V
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    loops = sum(a == b for a, b in pairs)
    simple = loops == 0 and len(set(pairs)) == len(pairs)
    adj: list[set[int]] = [set() for _ in range(V)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    verts = list(combinations(range(5), 2))
    petersen = [{j for j, w in enumerate(verts) if not set(v) & set(w)} for v in verts]
    if not simple:
        recognized = "other"
    elif all(len(a) == V - 1 for a in adj):
        recognized = f"complete({V})"
    elif _isomorphic(adj, petersen):
        recognized = "petersen"
    else:
        recognized = "other"
    return {
        "recognized": recognized,
        "degree_sequence": sorted(degree),
        "loops": loops,
        "simple": simple,
    }


def oracle_map(G: GroupHandle, kind: str, generators) -> tuple[dict, list[tuple[int, int]]]:
    """The map record and the sorted edge endpoint pairs of the incidence geometry.

    ``kind`` and ``generators`` are as in ``revmaps.mapgeom``: (x, y, z) for
    a reversing map, (r0, r1, r2) for a flag-regular one.
    """
    names, cells = _cell_generators(kind, generators)
    vertices = _coset_blocks(G, cells[0])
    edges = _coset_blocks(G, cells[1])
    faces: list[tuple[int, ...]] = []
    face_of = []
    orbit_sizes = []
    for gens in cells[2]:
        blocks = _coset_blocks(G, gens)
        face_of.append(_cell_of(G, blocks, len(faces)))
        faces.extend(blocks)
        orbit_sizes.append(len(blocks))
    vertex_of = _cell_of(G, vertices)

    edge_vertices = [sorted({vertex_of[g] for g in block}) for block in edges]
    edge_faces = [sorted({of[g] for of in face_of for g in block}) for block in edges]
    vf = {(vertex_of[g], of[g]) for g in range(G.order) for of in face_of}
    flags = sorted(
        (v, e, f)
        for e, (vs, fs) in enumerate(zip(edge_vertices, edge_faces))
        for v in vs
        for f in fs
        if (v, f) in vf
    )
    if len(flags) != 4 * len(edges):
        raise RuntimeError(f"{len(flags)} flags for {len(edges)} edges")
    orientable = _bipartite([_tuple_pairing(flags, drop) for drop in range(3)])

    V, E, F = len(vertices), len(edges), len(faces)
    chi = V - E + F
    valency = [0] * V
    length = [0] * F
    for vs, fs in zip(edge_vertices, edge_faces):
        for v in vs:
            valency[v] += 1
        for f in fs:
            length[f] += 1
    n1 = orbit_sizes[0]
    n2 = F - n1
    lengths = {"1": sorted(set(length[:n1]))}
    stabilizers = {"vertex": len(vertices[0]), "edge": len(edges[0])}
    if kind == "reversing":
        lengths["2"] = sorted(set(length[n1:]))
        stabilizers.update(face1=len(faces[0]), face2=len(faces[n1]))
    else:
        stabilizers["face"] = len(faces[0])
    if len(set(valency)) != 1 or any(len(ls) != 1 for ls in lengths.values()):
        raise RuntimeError("valency or face length is not constant")

    pairs = sorted((vs[0], vs[-1]) for vs in edge_vertices)
    record = {
        "schema_version": SCHEMA_VERSION,
        "group": {**G.descriptor(), "order": G.order},
        "kind": kind,
        "triple": {name: G.element_json(i) for name, i in zip(names, generators)},
        "counts": {"V": V, "E": E, "F1": n1, "F2": n2, "F": F},
        "chi": chi,
        "orientable": orientable,
        "genus": (2 - chi) // 2 if orientable else 2 - chi,
        "flags": len(flags),
        "stabilizer_orders": stabilizers,
        "vertex_valency": valency[0],
        "face_lengths": {k: ls[0] for k, ls in lengths.items()},
        "graph": oracle_graph(V, pairs),
    }
    return record, pairs


def _label_pairing(keys: list[int], own: list[int], cell: str) -> tuple[int, ...]:
    """Pair the flags of equal key; each pair must differ in its own ``cell``."""
    first: dict[int, int] = {}
    out = [-1] * len(keys)
    for i, k in enumerate(keys):
        j = first.setdefault(k, i)
        if j == i:
            continue
        if out[j] >= 0:
            raise MapError(f"more than two flags share all but their {cell}; not a map")
        if own[i] == own[j]:
            raise MapError(f"flags {j} and {i} differ in no {cell}; the geometry is degenerate")
        out[i], out[j] = j, i
    if -1 in out:
        raise MapError(f"flag {out.index(-1)} has no {cell} partner; not a map")
    return tuple(out)


def oracle_flag_system(G: GroupHandle, kind: str, generators) -> tuple:
    """rho_v, rho_e, rho_f and the orientability of a map, from flag labels of its own.

    ``kind`` and ``generators`` are as in ``oracle_map``.  The flags
    G x {face family} are labelled with coset blocks of the cell
    generators, faces of family 2 numbered after family 1.  Flags sharing
    two cells are paired on integer keys over all flags, and the
    orientability is the bipartiteness of the whole flag graph.
    """
    _, (vertex_gens, edge_gens, face_gens) = _cell_generators(kind, generators)
    vertex = _cell_of(G, _coset_blocks(G, vertex_gens)) * len(face_gens)
    edge = _cell_of(G, _coset_blocks(G, edge_gens)) * len(face_gens)
    face: list[int] = []
    for gens in face_gens:
        face += _cell_of(G, _coset_blocks(G, gens), len(set(face)))
    E, F = len(set(edge)), len(set(face))
    rho_v = _label_pairing([e * F + f for e, f in zip(edge, face)], vertex, "vertex")
    rho_e = _label_pairing([v * F + f for v, f in zip(vertex, face)], edge, "edge")
    rho_f = _label_pairing([v * E + e for v, e in zip(vertex, edge)], face, "face")
    return rho_v, rho_e, rho_f, _bipartite([rho_v, rho_e, rho_f])


def oracle_partner_maps(M: MapGeometry) -> tuple[tuple[int, ...], ...]:
    """rho_v, rho_e, rho_f of ``M``, its identity partners extended to every flag.

    The partner (s, k) of the identity flag of family l sends flag
    l*|G| + g to k*|G| + s*g, one ``G.mul`` per flag.
    """
    G, n = M.group, M.group.order
    maps = []
    for cell in range(3):
        rho: list[int] = []
        for partners in M.partners:
            s, k = partners[cell]
            rho += [k * n + G.mul(s, g) for g in range(n)]
        maps.append(tuple(rho))
    return tuple(maps)


def _prime_power_parts(n: int) -> list[int]:
    """The full prime powers of n, by trial division."""
    parts = []
    d = 2
    while d * d <= n:
        q = 1
        while n % d == 0:
            n //= d
            q *= d
        if q > 1:
            parts.append(q)
        d += 1
    if n > 1:
        parts.append(n)
    return parts


def oracle_sylow_lemma(M: MapGeometry) -> bool:
    """The stabilizer orders lcm to |G| and each full prime power of |G| divides one."""
    orders = list(M.stabilizer_orders().values())
    if math.lcm(*orders) != M.group.order:
        return False
    return all(any(s % q == 0 for s in orders) for q in _prime_power_parts(M.group.order))


def oracle_conjugate_overlap(G: GroupHandle, s: int, H) -> int:
    """|H & sHs|, two multiplications per member of H."""
    return sum(G.mul(G.mul(s, h), s) in H for h in H)


def oracle_pgl_action(family: str, p: int) -> bool:
    """Exhaustive check of the projective-line action of PGL(2,p) or PSL(2,p).

    G is the family's group, of index i = 1 (pgl2) or 2 (psl2) in PGL(2,p).
    Verifies |G| distinct images of three points, a cyclic two-point
    stabilizer of order (p-1)/i, that every cyclic subgroup of order
    (p+1)/i has orbits of its full size (regular on PGL(2,p)), Dickson's
    fixed-point rule for every involution (two fixed points if it lies
    inside PSL exactly when p = 1 (mod 4), else none), and that the
    involutions inside and outside PSL form one conjugacy class per
    non-empty side.  The two-point stabilizer of a sharply 3-transitive
    PGL(2,p) has p-1 elements and sends the third point to each other point
    once.
    """
    G = build_group(family, p)
    pts = gfproj.all_points(p)
    # the images of the first three points, one per element
    images = [tuple(gfproj.act(G.matrix_part(g), pt) for pt in pts[:3]) for g in range(G.order)]
    if len(set(images)) != G.order:
        return False

    stab = [g for g, (a, b, _) in enumerate(images) if a == pts[0] and b == pts[1]]
    if not any(G.element_order(g) == G.order // (p * (p + 1)) for g in stab):
        return False

    cycle = G.order // (p * (p - 1))
    for g in range(G.order):
        if G.element_order(g) == cycle:
            mat = G.matrix_part(g)
            orbit = {pts[0]}
            x = pts[0]
            for _ in range(cycle):
                x = gfproj.act(mat, x)
                orbit.add(x)
            if len(orbit) != cycle:
                return False

    inside = []
    outside = []
    invs = G.involutions()
    for i in invs:
        fixed = len(gfproj.fixed_points(G.matrix_part(i)))
        if fixed != (2 if G.in_psl_part(i) == (p % 4 == 1) else 0):
            return False
        (inside if G.in_psl_part(i) else outside).append(i)
    classes = sorted(sorted(invs[u] for u in cls.members) for cls in G.involution_classes().classes)
    return classes == sorted(side for side in (inside, outside) if side)


def oracle_flag_regular_triple(G: GroupHandle) -> tuple[int, int, int] | None:
    """The first involution triple (r0, r1, r2) with |r0 r1| = 3, |r0 r2| = 2 and |r1 r2| = 5."""
    invs = G.involutions()
    return next(
        (
            (r0, r1, r2)
            for r0 in invs
            for r1 in invs
            if r1 != r0 and G.pair_order(r0, r1) == 3
            for r2 in invs
            if r2 not in (r0, r1) and G.pair_order(r0, r2) == 2 and G.pair_order(r1, r2) == 5
        ),
        None,
    )
