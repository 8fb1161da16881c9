"""Acceptance criteria, one test per criterion, exact assertions throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The shared session fixture executes the whole verification
matrix once and records per-configuration wall times.
"""

import time

from oracle import oracle_expand, oracle_pattern

from revmaps.groups import build_group
from revmaps.triples import ext_triple, scan_reversing_census
from revmaps.verify import (
    a5_exceptional_case,
    check_coprime,
    check_no_rotary,
    check_pgl_action,
    report_json,
    run_verify_matrix,
)
from revmaps.gfproj import fixed_points


def _announce(n, text):
    print(f"\n[criterion {n}] PASS - {text}")


def test_criterion_1_a5_exceptional_maps():
    t0 = time.perf_counter()
    rep = a5_exceptional_case()
    elapsed = time.perf_counter() - t0
    assert rep["verdict"] == "pass"
    counts = sorted(tuple(r["counts"][k] for k in "VEF") for r in rep["maps"])
    assert counts == [(6, 15, 10), (10, 15, 6)]
    recognized = {r["graph"]["recognized"] for r in rep["maps"]}
    assert recognized == {"complete(6)", "petersen"}
    for r in rep["maps"]:
        assert r["chi"] == 1 and not r["orientable"]
        assert set(r["stabilizer_orders"].values()) == {10, 6, 4, 2}
    assert elapsed < 1.0
    _announce(1, f"both dual flag-regular maps verified in {elapsed:.2f}s")


def test_criterion_2_psl25_family(matrix_reports):
    reports, durations = matrix_reports
    rep = reports[("psl2", 5, 1)]
    assert rep["verdict"] == "pass"
    assert rep["involution_count"] == 15
    assert rep["combos_scanned"] == 455  # all unordered triples out of 15^3 ordered
    assert rep["patterns_found"] == [[10, 6, 4]]
    assert rep["maps"], "expected rebuilt maps per conjugacy class"
    for rec in rep["maps"]:
        assert rec["counts"] == {"V": 6, "E": 30, "F1": 10, "F2": 15, "F": 25}
        assert rec["chi"] == 1
        assert rec["orientable"] is False  # by flag-graph bipartiteness failure
    assert durations[("psl2", 5, 1)] < 5.0
    _announce(2, f"PSL(2,5): pattern {{10,6,4}} only, {rep['census'][0]['raw_triples']} triples")


def test_criterion_3_negative_controls(matrix_reports):
    reports, durations = matrix_reports
    for p in (7, 11):
        rep = reports[("psl2", p, 1)]
        assert rep["verdict"] == "pass"
        assert rep["patterns_found"] == []
        assert rep["predicted_pattern"] is None
        assert durations[("psl2", p, 1)] < 30.0
    _announce(3, "PSL(2,7) and PSL(2,11): zero qualifying reversing triples")


def test_criterion_4_psl213(matrix_reports):
    reports, durations = matrix_reports
    rep = reports[("psl2", 13, 1)]
    assert rep["verdict"] == "pass"
    assert rep["patterns_found"] == [[26, 14, 12]]
    census = rep["census"][0]
    assert census["pattern"] == [26, 14, 12]
    assert census["chi"] == -335
    assert check_coprime(-335, 546)
    # every enumerated triple has x, y fixing a common point and z fixing a pair
    G = build_group("psl2", 13)
    scan = scan_reversing_census(G)
    assert len(scan.qualifying) == 1
    everything = oracle_expand(G, scan.qualifying[0].triples)
    assert len(everything) == scan.qualifying[0].raw_triples == 13104
    for x, y, z in everything:
        fx = set(fixed_points(G.matrix_part(x)))
        fy = set(fixed_points(G.matrix_part(y)))
        assert fx & fy
        assert len(fixed_points(G.matrix_part(z))) == 2
    assert durations[("psl2", 13, 1)] < 300.0
    _announce(4, f"PSL(2,13): chi=-335, {len(everything)} triples all in standard form")


def test_criterion_5_pgl_family(matrix_reports):
    reports, durations = matrix_reports
    expected_chi = {5: -23, 7: -95, 11: -479}
    total = 0.0
    for p in (5, 7, 11):
        rep = reports[("pgl2", p, 1)]
        assert rep["verdict"] == "pass"
        census = rep["census"]
        assert len(census) == 1
        assert census[0]["pattern"] == [2 * p, 2 * (p + 1), 2 * (p - 1)]
        assert census[0]["chi"] == expected_chi[p]
        assert check_coprime(expected_chi[p], rep["edges"])
        assert rep["lemma_checks"]["membership"] is True
        total += durations[("pgl2", p, 1)]
    assert total < 600.0
    _announce(5, f"PGL(2,p) for p in 5,7,11: exact patterns and membership split ({total:.1f}s)")


def test_criterion_6_ext_family(matrix_reports):
    reports, durations = matrix_reports
    for p, m, pattern in ((7, 3, (42, 16, 12)), (7, 5, (70, 16, 12)), (11, 3, (66, 24, 20))):
        assert oracle_pattern(build_group("ext", p, m), ext_triple(p, m, 0, 1, 0)) == pattern
    rep = reports[("ext", 7, 5)]
    assert rep["verdict"] == "pass"
    assert rep["census"][0]["chi"] == -571
    assert rep["edges"] == 840
    assert check_coprime(-571, 840)
    total = 0.0
    for key in (("ext", 7, 3), ("ext", 7, 5), ("ext", 11, 3)):
        rep = reports[key]
        assert rep["verdict"] == "pass"
        assert rep["lemma_checks"]["construction_agreement"] is True
        total += durations[key]
    assert total < 900.0
    _announce(6, f"extended family: construction patterns and census agreement ({total:.1f}s)")


def test_criterion_7_rotary_nonexistence():
    t0 = time.perf_counter()
    for family, p in (("psl2", 5), ("pgl2", 5), ("psl2", 7)):
        assert check_no_rotary(build_group(family, p))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(7, f"no coprime vertex-rotary pair exists ({elapsed:.1f}s)")


def test_criterion_8_projective_action_suite():
    t0 = time.perf_counter()
    for p in (5, 7, 11, 13):
        assert check_pgl_action(build_group("pgl2", p))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(8, f"sharply 3-transitive action suite for p in 5,7,11,13 ({elapsed:.1f}s)")


def test_criterion_9_lcm_identity(matrix_reports):
    reports, _ = matrix_reports
    maps_checked = 0
    for rep in reports.values():
        for rec in rep["maps"]:
            assert rec["coprime"]
            assert rec["lcm_identity"]
            maps_checked += 1
    for rec in a5_exceptional_case()["maps"]:
        assert rec["lcm_identity"]
        maps_checked += 1
    assert maps_checked > 0
    _announce(9, f"stabilizer lcm identity exact on all {maps_checked} emitted maps")


def test_criterion_10_determinism():
    first = report_json(run_verify_matrix())
    second = report_json(run_verify_matrix())
    assert first == second
    _announce(10, f"two full matrix runs byte-identical ({len(first)} bytes)")
