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
    BudgetExceeded,
    GroupHandle,
    build_group,
    conjugacy_class_reps,
    generates,
    pgl_order,
)
from .mapgeom import (
    SCHEMA_VERSION,
    MapGeometry,
    build_regular_map,
    build_revmap,
    flag_system,
    map_record,
    surface_invariants,
)
from .triples import (
    DEFAULT_ENUM_BUDGET,
    ConstructionError,
    ReversingTriple,
    TriplePattern,
    construction_census,
    enumerate_reversing_triples,
    scan_reversing_census,
    triple_conjugacy_classes,
)


def check_coprime(chi: int, edges: int) -> bool:
    """gcd(|chi|, edges) == 1, with the usual gcd(0, n) = n convention."""
    return math.gcd(abs(chi), edges) == 1


def _prime_power_parts(n: int) -> list[int]:
    parts = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            parts.append(q)
        d += 1
    if n > 1:
        parts.append(n)
    return parts


def stabilizer_lcm_identity(group_order: int, stabilizer_orders) -> bool:
    orders = list(stabilizer_orders)
    if math.lcm(*orders) != group_order:
        return False
    return all(
        any(s % q == 0 for s in orders) for q in _prime_power_parts(group_order)
    )


def check_sylow_lemma(M: MapGeometry) -> bool:
    """Stabilizer orders must cover every full prime power of |G| and lcm to |G|.

    This is the arithmetic consequence of Sylow subgroups sitting inside cell
    stabilizers; it holds for every map whose chi is coprime to |E|.
    """
    orders = list(M.stabilizer_orders().values())
    return stabilizer_lcm_identity(M.group.order, orders)


def check_no_rotary(G: GroupHandle, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """No generating pair (a, z), z an involution, gives a coprime rotary map.

    Rotary cell counts are |V| = |G|/|a|, |E| = |G|/2, |F| = |G|/|az|.  The
    scan fixes a up to conjugacy (all the tested quantities are invariant
    under simultaneous conjugation) and tries every involution z.
    """
    if G.order > budget:
        raise BudgetExceeded(f"group order {G.order} exceeds budget {budget}")
    edges = G.order // 2
    invs = G.involutions()
    for a in conjugacy_class_reps(G):
        if a == G.identity:
            continue
        v = G.order // G.element_order(a)
        for z in invs:
            f = G.order // G.pair_order(a, z)
            chi = v - edges + f
            if math.gcd(abs(chi), edges) == 1 and generates(G, {a, z}):
                return False
    return True


def check_pgl_action(p: int, budget: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Exhaustive check of the projective-line action of PGL(2,p).

    Verifies sharp 3-transitivity, the cyclic two-point stabilizer of order
    p-1 acting sharply on the remaining points, regularity of every cyclic
    subgroup of order p+1, the two-fixed-point rule for involutions by the
    residue of p mod 4, and that the involutions inside and outside PSL each
    form a single conjugacy class.
    """
    if (p + 1) * p * (p - 1) > budget:
        raise BudgetExceeded(f"PGL(2,{p}) exceeds the action-check budget {budget}")
    G = build_group(PGL2, p)
    pts = gfproj.all_points(p)
    expected = (p + 1) * p * (p - 1)
    if G.order != expected:
        return False

    base = pts[:3]
    images: dict[tuple[int, int, int], int] = {}
    for g in range(G.order):
        mat = G.elements[g]
        key = (gfproj.act(mat, base[0]), gfproj.act(mat, base[1]), gfproj.act(mat, base[2]))
        images[key] = images.get(key, 0) + 1
    if len(images) != expected or any(v != 1 for v in images.values()):
        return False

    stab = [
        g
        for g in range(G.order)
        if gfproj.act(G.elements[g], pts[0]) == pts[0]
        and gfproj.act(G.elements[g], pts[1]) == pts[1]
    ]
    if len(stab) != p - 1:
        return False
    if not any(G.element_order(g) == p - 1 for g in stab):
        return False
    rest = {gfproj.act(G.elements[g], pts[2]) for g in stab}
    if len(rest) != p - 1 or pts[0] in rest or pts[1] in rest:
        return False

    for g in range(G.order):
        if G.element_order(g) == p + 1:
            mat = G.elements[g]
            orbit = {pts[0]}
            x = pts[0]
            for _ in range(p + 1):
                x = gfproj.act(mat, x)
                orbit.add(x)
            if len(orbit) != p + 1:
                return False

    inside = []
    outside = []
    invs = G.involutions()
    for i in invs:
        fixed = len(gfproj.fixed_points(G.elements[i]))
        if G.in_psl_part(i):
            inside.append(i)
            if p % 4 == 1 and fixed != 2:
                return False
        else:
            outside.append(i)
            if p % 4 == 3 and fixed != 2:
                return False
    classes = sorted(sorted(invs[u] for u in cls.maps) for cls in G.involution_classes().classes)
    return classes == sorted([inside, outside])


def _arc_stabilizer_order(M: MapGeometry) -> int:
    # the blocks through the identity are the stabilizer subgroups themselves
    e = M.group.identity
    vblock = next(set(b) for b in M.vertices if e in b)
    eblock = next(set(b) for b in M.edges if e in b)
    return len(vblock & eblock)


def a5_exceptional_case() -> dict:
    """Build and check the two dual flag-regular maps of PSL(2,5).

    Searches the first involution triple (r0, r1, r2) with commuting r0, r2,
    |r1 r2| = 5 and |r0 r1| = 3; the resulting map and its dual live on the
    projective plane with underlying graphs K6 and the Petersen graph.
    """
    G = build_group(PSL2, 5)
    invs = G.involutions()
    found = None
    for r0 in invs:
        for r1 in invs:
            if r1 == r0:
                continue
            if G.pair_order(r0, r1) != 3:
                continue
            for r2 in invs:
                if r2 in (r0, r1):
                    continue
                if G.pair_order(r0, r2) == 2 and G.pair_order(r1, r2) == 5:
                    if generates(G, {r0, r1, r2}):
                        found = (r0, r1, r2)
                        break
            if found:
                break
        if found:
            break
    if found is None:
        raise ConstructionError("no flag-regular generator triple in PSL(2,5)")
    r0, r1, r2 = found

    maps = []
    checks = True
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        M = build_regular_map(G, *gens)
        fs = flag_system(M)
        rec = map_record(M, fs)
        rec["stabilizer_orders"]["arc"] = _arc_stabilizer_order(M)
        rec["coprime"] = check_coprime(rec["chi"], rec["counts"]["E"])
        rec["lcm_identity"] = stabilizer_lcm_identity(
            G.order,
            [
                rec["stabilizer_orders"]["vertex"],
                rec["stabilizer_orders"]["edge"],
                rec["stabilizer_orders"]["face"],
            ],
        )
        checks &= rec["chi"] == 1 and not rec["orientable"] and rec["genus"] == 1
        checks &= rec["coprime"] and rec["lcm_identity"] and len(fs) == G.order
        maps.append(rec)

    counts = [tuple(r["counts"][k] for k in "VEF") for r in maps]
    recognized = {r["graph"]["recognized"] for r in maps}
    checks &= sorted(counts) == [(6, 15, 10), (10, 15, 6)]
    checks &= recognized == {"complete(6)", "petersen"}
    stab_sets = [
        {
            r["stabilizer_orders"]["vertex"],
            r["stabilizer_orders"]["edge"],
            r["stabilizer_orders"]["face"],
            r["stabilizer_orders"]["arc"],
        }
        for r in maps
    ]
    checks &= all(s == {10, 6, 4, 2} for s in stab_sets)

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
    the matrix parts and z must carry exponent 0.
    """
    inside_xy = G.p % 4 == 1
    for x, y, z in triples:
        if G.family == PSL2:
            ok = G.in_psl_part(x) and G.in_psl_part(y) and G.in_psl_part(z)
        else:
            ok = (
                G.in_psl_part(x) == inside_xy
                and G.in_psl_part(y) == inside_xy
                and G.in_psl_part(z) != inside_xy
            )
            if G.family == EXT:
                ok = ok and G.exponent_part(z) == 0
        if not ok:
            return False
    return True


def _construction_agreement(
    G: GroupHandle,
    predicted: TriplePattern,
    budget: int,
    scan_class_reps: tuple | None = None,
) -> bool:
    """Construction closure equals pattern enumeration, up to conjugacy.

    When the pattern also passed the coprimality filter, the blind census
    classes must coincide with the enumeration classes as well.
    """
    cons = construction_census(G)
    if not cons:
        return False
    enum = [t.indices() for t in enumerate_reversing_triples(G, predicted, budget)]
    enum_set = set(enum)
    if not set(cons) <= enum_set:
        return False
    cons_reps = {rep for rep, _ in triple_conjugacy_classes(G, cons, check_closed=False)}
    enum_reps = {rep for rep, _ in triple_conjugacy_classes(G, enum)}
    if cons_reps != enum_reps:
        return False
    if scan_class_reps is not None and set(scan_class_reps) != enum_reps:
        return False
    return True


def verify_theorem(
    family: str,
    p: int,
    m: int = 1,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
    jobs: int = 1,
    expected_pattern: TriplePattern | None = None,
) -> dict:
    """Reproduce the classification for one (family, p, m) configuration.

    The verdict is "pass" iff the blind scan finds exactly the patterns the
    classification allows (the predicted pattern when its own map is coprime,
    nothing otherwise), every rebuilt map checks out (chi, nonorientability,
    coprimality, stabilizer lcm), and all side checks hold.  Every
    exhaustive stage, the rotary check included, shares ``budget``, and all
    of it is checked before the scan starts; ``jobs`` is accepted and
    ignored.
    """
    G = build_group(family, p, m, budget=budget)
    # the action check builds PGL(2,p), which can exceed a budget the group
    # fits; refuse now rather than after the scan
    if pgl_order(p) > budget:
        raise BudgetExceeded(f"PGL(2,{p}) exceeds the action-check budget {budget}")
    scan = scan_reversing_census(G, budget)
    predicted = expected_pattern or TriplePattern.predicted(family, p, m)
    edges = G.order // 2

    predicted_chi = None
    predicted_qualifies = False
    if predicted is not None:
        predicted_chi = sum(G.order // d for d in predicted.as_tuple()) - edges
        predicted_qualifies = check_coprime(predicted_chi, edges)

    expected_multisets = [predicted.multiset()] if predicted_qualifies else []
    found_multisets = scan.multisets()
    patterns_ok = found_multisets == sorted(expected_multisets)

    maps = []
    maps_ok = True
    census_summary = []
    all_triples: list[tuple[int, int, int]] = []
    for census in scan.qualifying:
        all_triples.extend(census.triples)
        census_summary.append(
            {
                "pattern": list(census.pattern),
                "chi": census.chi,
                "raw_triples": len(census.triples),
                "classes": len(census.classes),
                "class_reps": [
                    ReversingTriple(G, *rep, census.pattern, True).to_json()
                    for rep in census.classes
                ],
            }
        )
        reps = census.classes or census.triples[:1]
        for rep in reps:
            t = ReversingTriple(G, *rep, census.pattern, True)
            M = build_revmap(G, t)
            fs = flag_system(M)
            inv = surface_invariants(M, fs)
            rec = map_record(M, fs)
            rec["coprime"] = check_coprime(inv.chi, M.edge_count)
            rec["lcm_identity"] = check_sylow_lemma(M)
            maps.append(rec)
            maps_ok &= (
                inv.chi == census.chi
                and not inv.orientable
                and rec["coprime"]
                and rec["lcm_identity"]
                and len(fs) == 4 * M.edge_count
                and M.edge_count == edges
            )

    lemma_checks = {
        "sylow": maps_ok,
        "no_rotary": check_no_rotary(G, budget),
        "pgl_action": check_pgl_action(p, budget),
        "membership": _membership_split_ok(G, all_triples),
        "construction_agreement": (
            _construction_agreement(
                G,
                predicted,
                budget,
                scan_class_reps=(
                    next(
                        (
                            c.classes
                            for c in scan.qualifying
                            if c.pattern == predicted.as_tuple()
                        ),
                        (),
                    )
                    if predicted_qualifies
                    else None
                ),
            )
            if predicted is not None
            else True
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
        "predicted_pattern": list(predicted.as_tuple()) if predicted else None,
        "predicted_chi": predicted_chi,
        "predicted_qualifies": predicted_qualifies,
        "patterns_found": [list(ms) for ms in found_multisets],
        "census": census_summary,
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


def run_verify_matrix(budget: int = DEFAULT_ENUM_BUDGET) -> dict:
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
