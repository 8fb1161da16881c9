"""Coset map geometry, flag systems, surfaces, underlying graphs."""

import pytest

from revmaps.groups import build_group, subgroup_closure
from revmaps.mapgeom import (
    MapError,
    UnderlyingGraph,
    build_regular_map,
    build_revmap,
    face_lengths,
    flag_system,
    map_record,
    recognize_graph,
    surface_invariants,
    to_dot,
    underlying_graph,
    vertex_valencies,
)
from revmaps.triples import make_triple, ext_triple, pgl_triple, psl_triple
from revmaps.verify import a5_exceptional_case


def _triple_with_pair_orders(G, n_xy, n_xz, n_yz, require_generates=True):
    invs = G.involutions()
    for x in invs:
        for y in invs:
            if y == x or G.pair_order(x, y) != n_xy:
                continue
            for z in invs:
                if z in (x, y):
                    continue
                if G.pair_order(x, z) == n_xz and G.pair_order(y, z) == n_yz:
                    t = make_triple(G, x, y, z)
                    if t.generates or not require_generates:
                        return t
    raise AssertionError("no such triple")


# -- reversing maps ---------------------------------------------------------------


def test_psl25_map_cells():
    t = psl_triple(5, 2)
    M = build_revmap(t.group, t)
    assert (M.vertex_count, M.edge_count, M.face_count) == (6, 30, 25)
    assert M.face_counts_by_orbit() == (10, 15)
    assert M.chi() == 1


def test_pgl27_map_cells():
    t = pgl_triple(7, 0)
    M = build_revmap(t.group, t)
    assert (M.vertex_count, M.edge_count, M.face_count) == (24, 168, 49)
    assert M.face_counts_by_orbit() == (21, 28)
    assert M.chi() == -95


def test_cell_count_identity():
    # |V|*|G_v| = 2|E| * ... = |G| for each cell family
    t = pgl_triple(5, 0)
    M = build_revmap(t.group, t)
    n = t.group.order
    stabs = M.stabilizer_orders()
    n1, n2 = M.face_counts_by_orbit()
    assert M.vertex_count * stabs["vertex"] == n
    assert M.edge_count * stabs["edge"] == n
    assert n1 * stabs["face1"] == n
    assert n2 * stabs["face2"] == n


def test_non_generating_triple_rejected():
    G = build_group("psl2", 5)
    base = psl_triple(5, 2)
    x, y = base.x, base.y
    mirrored = G.conjugate(y, x)  # third reflection inside the same D10
    t = make_triple(G, x, y, mirrored)
    assert not t.generates
    with pytest.raises(MapError):
        build_revmap(G, t)


# -- flag systems ------------------------------------------------------------------


def test_flag_count_reversing():
    t = psl_triple(5, 2)
    M = build_revmap(t.group, t)
    assert len(flag_system(M)) == 120


def test_flag_count_pgl25():
    t = pgl_triple(5, 0)
    M = build_revmap(t.group, t)
    assert len(flag_system(M)) == 240


def test_flag_partner_maps_are_fixed_point_free_involutions():
    t = psl_triple(5, 2)
    fs = flag_system(build_revmap(t.group, t))
    for rho in (fs.rho_v, fs.rho_e, fs.rho_f):
        for i, j in enumerate(rho):
            assert j != i
            assert rho[j] == i


def test_vertex_and_face_partners_commute():
    t = pgl_triple(5, 0)
    fs = flag_system(build_revmap(t.group, t))
    for i in range(len(fs)):
        assert fs.rho_f[fs.rho_v[i]] == fs.rho_v[fs.rho_f[i]]


# -- surface invariants --------------------------------------------------------------


def test_psl25_surface():
    t = psl_triple(5, 2)
    inv = surface_invariants(build_revmap(t.group, t))
    assert (inv.chi, inv.orientable, inv.genus) == (1, False, 1)


def test_pgl27_surface():
    t = pgl_triple(7, 0)
    inv = surface_invariants(build_revmap(t.group, t))
    assert (inv.chi, inv.orientable, inv.genus) == (-95, False, 97)


def test_orientable_branch():
    # all three involutions outside PSL: every orientation word lands in PSL,
    # so the supporting surface is orientable and chi must be even
    G = build_group("pgl2", 7)
    outside = [i for i in G.involutions() if not G.in_psl_part(i)]
    t = None
    for x in outside:
        for y in outside:
            if y == x:
                continue
            for z in outside:
                if z not in (x, y):
                    cand = make_triple(G, x, y, z)
                    if cand.generates:
                        t = cand
                        break
            if t:
                break
        if t:
            break
    M = build_revmap(G, t)
    inv = surface_invariants(M)
    assert inv.orientable
    assert inv.chi % 2 == 0
    assert inv.genus == (2 - inv.chi) // 2


def test_duality_rotating_roles_keeps_chi():
    t = psl_triple(5, 2)
    G = t.group
    chis = set()
    for order in ((t.x, t.y, t.z), (t.y, t.z, t.x), (t.z, t.x, t.y)):
        chis.add(build_revmap(G, make_triple(G, *order)).chi())
    assert chis == {1}


# -- flag-regular maps -----------------------------------------------------------------


def test_regular_map_requires_commuting_ends():
    G = build_group("psl2", 5)
    rep = a5_exceptional_case()
    assert rep["verdict"] == "pass"
    r0, r1, r2 = (G.element_from_json(rep["triple"][n]) for n in ("r0", "r1", "r2"))
    # |r0 r1| = 3, so the pair (r0, r1) cannot take the commuting end roles
    with pytest.raises(MapError):
        build_regular_map(G, r0, r2, r1)


def test_regular_map_flag_count_is_group_order():
    G = build_group("psl2", 5)
    rep = a5_exceptional_case()
    assert all(r["flags"] == G.order for r in rep["maps"])


# -- underlying graphs -------------------------------------------------------------------


def test_k6_and_petersen_recognition():
    rep = a5_exceptional_case()
    assert {r["graph"]["recognized"] for r in rep["maps"]} == {
        "complete(6)",
        "petersen",
    }
    by_graph = {r["graph"]["recognized"]: r for r in rep["maps"]}
    assert by_graph["complete(6)"]["vertex_valency"] == 5
    assert by_graph["petersen"]["vertex_valency"] == 3


def test_underlying_graphs_are_connected():
    for t in (psl_triple(5, 2), pgl_triple(5, 0)):
        g = underlying_graph(build_revmap(t.group, t))
        reached = {0}
        frontier = [0]
        adj = g.adjacency()
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in reached]
            reached.update(frontier)
        assert reached == set(range(g.vertex_count))


def test_reversing_multigraph_is_other():
    t = psl_triple(5, 2)
    M = build_revmap(t.group, t)
    g = underlying_graph(M)
    assert g.vertex_count == 6
    assert not g.is_simple
    assert recognize_graph(g) == "other"
    assert vertex_valencies(M) == (10,) * 6


def test_face_lengths_are_half_the_stabilizer_orders():
    t = psl_triple(5, 2)
    M = build_revmap(t.group, t)
    lengths = face_lengths(M)
    n1, _ = M.face_counts_by_orbit()
    assert set(lengths[:n1]) == {3}  # faces of the D6 family
    assert set(lengths[n1:]) == {2}  # faces of the Klein family


def test_recognize_plain_graphs():
    k4 = UnderlyingGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert recognize_graph(k4) == "complete(4)"
    from itertools import combinations

    verts = list(combinations(range(5), 2))
    edges = tuple(
        sorted(
            (i, j)
            for i in range(10)
            for j in range(i + 1, 10)
            if not set(verts[i]) & set(verts[j])
        )
    )
    assert recognize_graph(UnderlyingGraph(10, edges)) == "petersen"
    path = UnderlyingGraph(3, ((0, 1), (1, 2)))
    assert recognize_graph(path) == "other"
    doubled = UnderlyingGraph(2, ((0, 1), (0, 1)))
    assert recognize_graph(doubled) == "other"


def test_dot_export_carries_multiplicities():
    t = psl_triple(5, 2)
    M = build_revmap(t.group, t)
    dot = to_dot(underlying_graph(M))
    assert dot.startswith("graph underlying {")
    assert 'label="x2"' in dot
    assert dot.strip().endswith("}")


# -- records -----------------------------------------------------------------------------


def test_map_record_shape():
    t = ext_triple(7, 5, 0, 1, 0)
    M = build_revmap(t.group, t)
    rec = map_record(M)
    assert rec["counts"] == {"V": 24, "E": 840, "F1": 105, "F2": 140, "F": 245}
    assert rec["chi"] == -571
    assert rec["orientable"] is False
    assert rec["genus"] == 573
    assert rec["stabilizer_orders"] == {
        "vertex": 70,
        "edge": 2,
        "face1": 16,
        "face2": 12,
    }
    assert rec["group"] == {"family": "ext", "p": 7, "m": 5, "order": 1680}
    assert set(rec["triple"]) == {"x", "y", "z"}
    assert rec["triple"]["x"]["exp"] == 1
