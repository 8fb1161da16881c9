"""Closed-form element and pair orders against repeated multiplication.

``gfproj.projective_order`` reads the order of a matrix off tr^2/det, and
``GroupHandle`` derives element orders, pair orders, the involution list and
the dihedral table from it without multiplying.  The oracle walks powers.
"""

import random

import pytest
from oracle import (
    mat_inverse,
    oracle_all_matrices,
    oracle_dihedral_table,
    oracle_involutions,
    oracle_matrix_order,
    oracle_orders,
    oracle_pair_order,
)

from revmaps import cli, groups
from revmaps.gfproj import (
    _invariant_orders,
    is_prime,
    product_orders,
    proj_matrix,
    projective_order,
)
from revmaps.groups import build_group
from revmaps.triples import scan_reversing_census
from revmaps.verify import VERIFY_MATRIX


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_matrix_orders_match_power_loop(p):
    rng = random.Random(p)
    for g in oracle_all_matrices(p):
        n = oracle_matrix_order(g)
        assert projective_order(*g) == n
        # any representative of the class, unreduced
        lam = rng.randrange(1, p)
        a, b, c, d, _ = g
        assert projective_order(lam * a + p, lam * b, lam * c - p, lam * d, p) == n


@pytest.mark.parametrize("p", [p for p in range(5, 62) if is_prime(p)] + [101, 211])
def test_invariant_orders_match_power_loop(p):
    # one representative per s = tr^2/det: [[0, -1/s], [1, 1]] has trace 1 and
    # determinant 1/s, and s = 0 is a traceless matrix
    reps = [proj_matrix(0, -1, 1, 0, p)]
    reps += [proj_matrix(0, -pow(s, -1, p), 1, 1, p) for s in range(1, p)]
    assert _invariant_orders(p) == tuple(oracle_matrix_order(g) for g in reps)


@pytest.mark.parametrize("family,p", [("pgl2", 7), ("psl2", 13)])
def test_product_orders_read_one_at_the_inverse(family, p):
    # g * mats[y] is scalar exactly where mats[y] is g^-1; the generating
    # triple reads these entries of the involution rows
    G = build_group(family, p)
    mats = [G.matrix_part(v) for v in G.involutions()]
    row = product_orders(mats)
    longer = next(G.matrix_part(i) for i in range(G.order) if G.element_order(i) > 2)
    for g in (mats[0], longer):
        ones = [y for y, n in enumerate(row(g)) if n == 1]
        assert ones == [y for y, h in enumerate(mats) if h == mat_inverse(g)]
    assert row(mats[0])[0] == 1  # an involution is its own inverse


def test_invariant_ends():
    # tr = 0 gives an involution; tr^2 = 4 det a unipotent class, unless scalar
    assert projective_order(0, 1, 1, 0, 7) == 2
    assert projective_order(1, 1, 0, 1, 7) == 7
    assert projective_order(3, 0, 0, 3, 7) == 1


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_element_orders_match_power_loop(family, p, m):
    # for ext this covers every exponent of Z_m with every matrix part
    G = build_group(family, p, m)
    assert tuple(G.element_order(i) for i in range(G.order)) == oracle_orders(G)


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_involutions_match_power_loop(family, p, m):
    G = build_group(family, p, m)
    assert G.involutions() == oracle_involutions(G)


@pytest.mark.parametrize(
    "family,p,m",
    [(family, p, 1) for family in ("psl2", "pgl2") for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
    + [("ext", 7, 3), ("ext", 7, 5), ("ext", 11, 3), ("ext", 7, 9), ("ext", 11, 15)],
)
def test_involutions_match_the_element_order_sweep(family, p, m):
    # the trace-0 listing against is_involution over every element: psl2
    # and pgl2 for every p <= 31, and ext at m = 3, 5, 9 and 15
    G = build_group(family, p, m)
    assert G.involutions() == tuple(i for i in range(G.order) if G.is_involution(i))


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_pair_orders_match_power_loop(family, p, m):
    G = build_group(family, p, m)
    invs = G.involutions()
    for u in invs:
        for v in invs:
            assert G.pair_order(u, v) == oracle_pair_order(G, u, v)
    rng = random.Random(f"{family}{p}{m}")
    for i in rng.sample(range(G.order), min(200, G.order)):
        j = rng.randrange(G.order)
        assert G.pair_order(i, j) == oracle_pair_order(G, i, j)
        # a product of mutual inverses is scalar, at tr^2/det = 4
        assert G.pair_order(i, G.inv(i)) == 1
        assert G.pair_order(G.inv(i), i) == 1


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_dihedral_table_matches_power_loop(family, p, m):
    G = build_group(family, p, m)
    table = G.dihedral_table()
    assert tuple(tuple(row) for row in table) == oracle_dihedral_table(G)
    assert G.dihedral_table() is table


def test_dihedral_table_is_built_only_by_the_scans(monkeypatch, tmp_path):
    # fresh handles: set-up, involutions() and the construct, check and export
    # commands leave the quadratic table unbuilt
    monkeypatch.setattr(groups, "_CACHE", {})
    G = build_group("pgl2", 7)
    G.involutions()
    common = ["--family", "ext", "--p", "7", "--m", "3"]
    record = str(tmp_path / "record.json")
    assert cli.main(["construct", *common, "--output", record]) == 0
    assert cli.main(["check", "--input", record, "--output", str(tmp_path / "c.json")]) == 0
    assert cli.main(["export", *common, "--output", str(tmp_path / "g.dot")]) == 0
    assert len(groups._CACHE) == 2
    assert all(H._dihedral is None or not H._dihedral.built() for H in groups._CACHE.values())
    scan_reversing_census(G)
    assert G.dihedral_table().built()


@pytest.mark.parametrize("p", [7, 11])
def test_a_scan_without_qualifying_patterns_builds_only_the_rep_rows(monkeypatch, p):
    # psl2 with p = 3 mod 4: no pattern passes the gcd filter, so the scan
    # visits no pair and reads no row but the class reps'
    monkeypatch.setattr(groups, "_CACHE", {})
    G = build_group("psl2", p)
    scan = scan_reversing_census(G)
    assert scan.qualifying == ()
    reps = [cls.rep for cls in G.involution_classes().classes]
    assert G.dihedral_table().built() == reps


def test_a_scan_with_hits_reads_the_vertex_rows_only(monkeypatch):
    # pgl2 19: only a pair through the rep at the vertex order 38 can be kept
    # with the rep as x, so the scan reads the rows of that bucket alone
    monkeypatch.setattr(groups, "_CACHE", {})
    G = build_group("pgl2", 19)
    assert [c.pattern for c in scan_reversing_census(G).qualifying] == [(38, 40, 36)]
    table = G.dihedral_table()
    reps = [cls.rep for cls in G.involution_classes().classes]
    vertex = {y for y, d in enumerate(table[reps[0]]) if d == 38}
    assert set(reps) <= set(table.built()) <= set(reps) | vertex
    assert len(table.built()) < len(G.involutions()) // 4
