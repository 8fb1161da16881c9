"""The verification harness.

``verify_theorem`` blindly scans every involution triple of a group for
reversing maps whose Euler characteristic is coprime to the edge number,
compares the surviving dihedral patterns with the classified one, rebuilds a
map per conjugacy class, and runs the structural cross-checks (stabilizer lcm
identity, rotary nonexistence, projective action properties, PSL membership
split, construction agreement).  ``a5_exceptional_case`` covers the one
flag-regular configuration, on PSL(2,5).
"""

from __future__ import annotations

import json
import math

from . import gfproj
from .groups import (
    EXT,
    PGL2,
    PSL2,
    DEFAULT_BUDGET,
    GroupHandle,
    build_group,
    conjugacy_class_reps,
    generates,
)
from .mapgeom import (
    SCHEMA_VERSION,
    MapGeometry,
    build_regular_map,
    build_revmap,
    map_record,
)
from .triples import (
    CensusScan,
    ConstructionError,
    check_coprime,
    construction_census,
    enumerate_reversing_triples,
    multiset,
    pattern_chi,
    predicted_pattern,
    scan_reversing_census,
    triple_conjugacy_classes,
)


def check_sylow_lemma(M: MapGeometry) -> bool:
    """The cell stabilizer orders lcm to |G|.

    This is the arithmetic consequence of Sylow subgroups sitting inside cell
    stabilizers; it holds for every map whose chi is coprime to |E|.  The
    lcm takes each prime at its highest power among the orders, so an lcm
    of |G| already puts every full prime power of |G| inside one of them.
    """
    return math.lcm(*M.stabilizer_orders().values()) == M.group.order


def _checked_record(M: MapGeometry, chi: int) -> tuple[dict, bool]:
    """The map's record with its coprimality and Sylow-lemma checks, and its verdict.

    The conditions every checked map meets: Euler characteristic chi, no
    orientation, chi coprime to |E|, the lcm identity, four flags per edge.
    """
    rec = map_record(M)
    rec["coprime"] = check_coprime(rec["chi"], rec["counts"]["E"])
    rec["lcm_identity"] = check_sylow_lemma(M)
    ok = rec["chi"] == chi and not rec["orientable"] and rec["flags"] == 4 * rec["counts"]["E"]
    return rec, ok and rec["coprime"] and rec["lcm_identity"]


def census_json(G: GroupHandle, scan: CensusScan) -> list[dict]:
    """The qualifying patterns of a scan, as ``enumerate`` and ``verify`` write them."""
    return [
        {
            "pattern": list(c.pattern),
            "chi": c.chi,
            "raw_triples": c.raw_triples,
            "classes": len(c.classes),
            "class_reps": [
                {"x": G.element_json(x), "y": G.element_json(y), "z": G.element_json(z)}
                for x, y, z in c.classes
            ],
        }
        for c in scan.qualifying
    ]


def check_no_rotary(G: GroupHandle) -> bool:
    """No generating pair (a, z), z an involution, gives a coprime rotary map.

    A rotary map has chi = |G|/|a| - |G|/2 + |G|/|az|, the ``pattern_chi``
    of the orders (|a|, |az|).  a runs over the class reps (everything
    tested is conjugation invariant), whose orders are all element orders,
    |az| among them, as conjugates share their order.  The orders l passing
    the gcd filter with |a| are listed first, and only the involutions z
    with |az| among them are tried.
    """
    n = G.order
    orders = {a: G.element_order(a) for a in conjugacy_class_reps(G)}
    for a, k in orders.items():
        faces = {l for l in set(orders.values()) if check_coprime(pattern_chi(n, (k, l)), n // 2)}
        hits = (z for z in G.involutions() if G.pair_order(a, z) in faces)
        if k > 1 and faces and any(generates(G, {a, z}) for z in hits):
            return False
    return True


def check_pgl_action(G: GroupHandle) -> bool:
    """The projective-line action of the PGL(2,p) handle G, each property proved once.

    Computed: the points each element sends to 0, infinity and 1 (point
    indices 0, p and 1), read off the entry columns by
    ``gfproj.preimage_points``, are all (p+1)p(p-1) = |PGL(2,p)| ordered
    triples of distinct points, told apart by one integer code each (so
    are the images of those points, the same triples for g^-1), the
    stabilizer of 0 and infinity holds an element of order p-1, and the
    involutions inside and outside PSL each form a single conjugacy class.
    Fixed-point counts are class invariants, so one involution tests the
    two-fixed-point rule on the side it constrains: inside PSL when
    p = 1 (mod 4), outside when p = 3.

    Implied by the distinct images, and so not walked:
      - no non-identity element fixes three points: if h fixed a, b, c and k
        sends the first three points to (a, b, c), then k h k^-1 fixes the
        first three points, so k h k^-1 = 1;
      - every cyclic subgroup of order n = p+1 >= 6 is regular: an orbit of
        d < n points is fixed by g^d != 1, so d <= 2, and those short
        orbits, all fixed by g^2 != 1, hold at most two points; the other
        n-2 points lie in an orbit of size n, which is all of them.
    """
    p = G.p
    # the handle's own points and point index are what this certifies, so
    # they are recomputed from its entries, not read
    zero, inf, one = gfproj.preimage_points(G.matrix_columns(), p)
    n = p + 1
    seen = bytearray(n**3)  # a mark per point code: a set of |G| codes takes megabytes
    for x, y, z in zip(zero, inf, one):
        seen[(x * n + y) * n + z] = 1
    if seen.count(1) != G.order:
        return False

    stab = [g for g, (a, b) in enumerate(zip(zero, inf)) if a == 0 and b == p]
    if not any(G.element_order(g) == p - 1 for g in stab):
        return False

    invs = G.involutions()
    inside = [i for i in invs if G.in_psl_part(i)]
    outside = [i for i in invs if not G.in_psl_part(i)]
    classes = sorted(sorted(invs[u] for u in cls.members) for cls in G.involution_classes().classes)
    if classes != sorted([inside, outside]):
        return False
    constrained = inside if p % 4 == 1 else outside
    return len(gfproj.fixed_points(G.matrix_part(constrained[0]))) == 2


# the flag-regular triple r0, r1, r2 of PSL(2,5), as normalized entries (a, b, c, d)
A5_TRIPLE = ((0, 1, 1, 0), (1, 0, 1, 4), (0, 1, 4, 0))


def a5_exceptional_case() -> dict:
    """Build and check the two dual flag-regular maps of PSL(2,5).

    The triple ``A5_TRIPLE`` is fixed and certified by |r0 r1| = 3, |r0 r2| = 2
    and |r1 r2| = 5, else a ConstructionError; the map and its dual live on
    the projective plane with underlying graphs K6 and the Petersen graph.
    Elements of orders 2, 3 and 5 generate A5, which has no subgroup of order
    30, so the certificate does not test generation; ``build_regular_map`` does.
    """
    G = build_group(PSL2, 5)
    found = tuple(G.element(0, gfproj.ProjMatrix(*mat, 5)) for mat in A5_TRIPLE)
    r0, r1, r2 = found
    if (G.pair_order(r0, r1), G.pair_order(r0, r2), G.pair_order(r1, r2)) != (3, 2, 5):
        raise ConstructionError(f"the fixed triple {A5_TRIPLE} of PSL(2,5) fails its orders")

    maps = []
    checks = True
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        M = build_regular_map(G, *gens)
        rec, ok = _checked_record(M, 1)
        # the elements on the vertex and edge through the identity form the arc stabilizer
        V, E, _ = M.stabilizers
        rec["stabilizer_orders"]["arc"] = len(V & E)
        checks &= ok and rec["genus"] == 1
        maps.append(rec)

    counts = [tuple(r["counts"][k] for k in "VEF") for r in maps]
    recognized = {r["graph"]["recognized"] for r in maps}
    checks &= sorted(counts) == [(6, 15, 10), (10, 15, 6)]
    checks &= recognized == {"complete(6)", "petersen"}
    # the vertex, edge, face and arc stabilizer orders of each map
    checks &= all(set(r["stabilizer_orders"].values()) == {10, 6, 4, 2} for r in maps)

    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"family": PSL2, "p": 5, "m": 1, "kind": "flag_regular"},
        "triple": {
            name: G.element_json(i) for name, i in zip(("r0", "r1", "r2"), found)
        },
        "maps": maps,
        "verdict": "pass" if checks else "fail",
    }


def _membership_split_ok(G: GroupHandle, triples) -> bool:
    """PSL membership of census triples must follow the parity rule.

    The vertex pair lies inside PSL iff p = 1 (mod 4) (outside otherwise),
    and z sits on the opposite side; in the extended family this applies to
    the matrix parts and z must carry exponent 0.  Both are unchanged by
    conjugation, so the class representatives of a pattern settle it.
    """
    if G.family == PSL2:
        # every element lies in PSL: nothing to test, so it should read skipped (ROADMAP item 1)
        return True
    inside_xy = G.p % 4 == 1
    return all(
        G.in_psl_part(x) == inside_xy
        and G.in_psl_part(y) == inside_xy
        and G.in_psl_part(z) != inside_xy
        and G.exponent_part(z) == 0
        for x, y, z in triples
    )


def _construction_agreement(
    G: GroupHandle, predicted: tuple[int, int, int], scan: CensusScan
) -> bool:
    """Construction closure meets exactly the predicted pattern's classes.

    Both are compared at their class representatives, the orbit minima.  A
    construction triple whose orbit minimum is a class rep of the pattern is
    conjugate to a triple realizing it, so it realizes the pattern and
    generates.  The classes are read off the scan when it holds the pattern,
    else enumerated: both are passes of the census engine ``_fiber_hits``,
    which keeps the same fibers of a pattern whenever it qualifies.
    """
    cons = construction_census(G)
    if not cons:
        return False
    reps = {c.pattern: c.classes for c in scan.qualifying}.get(predicted)
    if reps is None:
        enum = enumerate_reversing_triples(G, predicted)
        reps = [rep for rep, _ in triple_conjugacy_classes(G, enum)]
    return {rep for rep, _ in triple_conjugacy_classes(G, cons)} == set(reps)


def verify_theorem(
    family: str,
    p: int,
    m: int = 1,
    *,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> dict:
    """Reproduce the classification for one (family, p, m) configuration.

    The verdict is "pass" iff the blind scan finds exactly the patterns the
    classification allows (the predicted pattern when its own map is coprime,
    nothing otherwise), every rebuilt map passes ``_checked_record`` at its
    pattern's chi with |G|/2 edges, and all side checks hold.  No group of
    more than ``budget`` elements is built: neither the group nor the
    PGL(2,p) of the action check, and both are refused before the scan
    starts.  ``jobs`` is accepted and ignored.
    """
    G = build_group(family, p, m, budget=budget)
    # the action check's PGL(2,p) can exceed a budget the group fits
    pgl = build_group(PGL2, p, budget=budget)
    scan = scan_reversing_census(G)
    predicted = predicted_pattern(family, p, m)
    edges = G.order // 2

    predicted_chi = None if predicted is None else pattern_chi(G.order, predicted)
    predicted_qualifies = predicted_chi is not None and check_coprime(predicted_chi, edges)

    expected_multisets = [multiset(predicted)] if predicted_qualifies else []
    found_multisets = sorted(multiset(c.pattern) for c in scan.qualifying)
    patterns_ok = found_multisets == expected_multisets

    maps = []
    maps_ok = True
    for census in scan.qualifying:
        for rep in census.classes or census.triples[:1]:
            M = build_revmap(G, *rep)
            rec, ok = _checked_record(M, census.chi)
            maps.append(rec)
            maps_ok &= ok and rec["counts"]["E"] == edges

    # class reps, or every triple of an unslotted pattern (its roles follow element order)
    membership_triples = [t for c in scan.qualifying for t in c.classes or c.triples]
    lemma_checks = {
        "sylow": maps_ok,
        "no_rotary": check_no_rotary(G),
        "pgl_action": check_pgl_action(pgl),
        "membership": _membership_split_ok(G, membership_triples),
        "construction_agreement": (
            predicted is None or _construction_agreement(G, predicted, scan)
        ),
    }

    verdict = patterns_ok and all(lemma_checks.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {"family": family, "p": p, "m": m},
        "group_order": G.order,
        "edges": edges,
        "involution_count": scan.involution_count,
        "combos_scanned": scan.combos_scanned,
        "predicted_pattern": list(predicted) if predicted else None,
        "predicted_chi": predicted_chi,
        "predicted_qualifies": predicted_qualifies,
        "patterns_found": [list(ms) for ms in found_multisets],
        "census": census_json(G, scan),
        "maps": maps,
        "lemma_checks": lemma_checks,
        "verdict": "pass" if verdict else "fail",
    }


def report_json(report: dict) -> str:
    """Canonical JSON bytes of a report; identical inputs give identical text."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


VERIFY_MATRIX: tuple[tuple[str, int, int], ...] = (
    (PSL2, 5, 1),
    (PSL2, 7, 1),
    (PSL2, 11, 1),
    (PSL2, 13, 1),
    (PGL2, 5, 1),
    (PGL2, 7, 1),
    (PGL2, 11, 1),
    (EXT, 7, 3),
    (EXT, 7, 5),
    (EXT, 11, 3),
)


def run_verify_matrix(budget: int = DEFAULT_BUDGET) -> dict:
    """All desk-scale configurations plus the flag-regular pair of PSL(2,5).

    The overall verdict ands the per-config ones and the pair's.
    """
    reports = [verify_theorem(family, p, m, budget=budget) for family, p, m in VERIFY_MATRIX]
    a5 = a5_exceptional_case()
    passed = a5["verdict"] == "pass" and all(r["verdict"] == "pass" for r in reports)
    return {
        "schema_version": SCHEMA_VERSION,
        "configs": reports,
        "flag_regular": a5,
        "verdict": "pass" if passed else "fail",
    }
