"""Coset map geometry, flags, surfaces, underlying graphs."""

import pytest
from oracle import oracle_conjugate, oracle_partner_maps

from revmaps.groups import build_group, generates
from revmaps.mapgeom import (
    MapError,
    MapGeometry,
    UnderlyingGraph,
    _assemble,
    build_regular_map,
    build_revmap,
    flag_system,
    map_record,
    recognize_graph,
    surface_invariants,
    to_dot,
    underlying_graph,
)
from revmaps.triples import ext_triple, pgl_triple, psl_triple
from revmaps.verify import a5_exceptional_case


# -- reversing maps ---------------------------------------------------------------


def test_psl25_map_cells():
    M = build_revmap(build_group("psl2", 5), *psl_triple(5, 2))
    assert (M.vertex_count, M.edge_count, M.face_count) == (6, 30, 25)
    assert M.face_counts_by_orbit() == (10, 15)
    assert M.chi() == 1


def test_pgl27_map_cells():
    M = build_revmap(build_group("pgl2", 7), *pgl_triple(7, 0))
    assert (M.vertex_count, M.edge_count, M.face_count) == (24, 168, 49)
    assert M.face_counts_by_orbit() == (21, 28)
    assert M.chi() == -95


def test_cell_count_identity():
    # |V|*|G_v| = 2|E| * ... = |G| for each cell family
    G = build_group("pgl2", 5)
    M = build_revmap(G, *pgl_triple(5, 0))
    n = G.order
    stabs = M.stabilizer_orders()
    n1, n2 = M.face_counts_by_orbit()
    assert M.vertex_count * stabs["vertex"] == n
    assert M.edge_count * stabs["edge"] == n
    assert n1 * stabs["face1"] == n
    assert n2 * stabs["face2"] == n


def test_non_generating_triple_rejected():
    G = build_group("psl2", 5)
    x, y, _ = psl_triple(5, 2)
    mirrored = oracle_conjugate(G, y, x)  # third reflection inside the same D10
    assert not generates(G, (x, y, mirrored))
    with pytest.raises(MapError, match="do not generate the group"):
        build_revmap(G, x, y, mirrored)


@pytest.mark.parametrize("bad_z", ["repeated", "order_p"])
def test_builder_refuses_what_is_not_three_distinct_involutions(bad_z):
    G = build_group("psl2", 5)
    x, y, _ = psl_triple(5, 2)
    z = x if bad_z == "repeated" else G.mul(x, y)  # xy has order p = 5
    with pytest.raises(MapError, match="not three distinct involutions"):
        build_revmap(G, x, y, z)


def test_edge_inside_the_vertex_stabilizer_is_rejected():
    # z = x y x lies in <x,y>: both ends of every edge are one vertex, so the
    # two flags on an edge and face differ in no vertex
    G = build_group("psl2", 5)
    x, y, _ = psl_triple(5, 2)
    z = G.mul(G.mul(x, y), x)
    assert G.is_involution(z) and z not in (x, y)
    # (x, y, xyx) generates only <x,y>, which build_revmap refuses first; the
    # geometry itself is refused once, when it is assembled
    with pytest.raises(MapError, match="differ in no vertex"):
        _assemble(G, "reversing", (x, y, z))


# -- flags ------------------------------------------------------------------------


def test_flag_count_reversing():
    G = build_group("psl2", 5)
    M = build_revmap(G, *psl_triple(5, 2))
    assert flag_system(M) == range(2 * G.order)
    assert map_record(M)["flags"] == len(flag_system(M)) == 120
    # the benchmark reads this len as the flags built: no tuple of two fields
    assert not isinstance(flag_system(M), tuple)


def test_flag_ids_of_the_a5_pair():
    # one face family: the flags are the elements of A5
    G = build_group("psl2", 5)
    triple = a5_exceptional_case()["triple"]
    r0, r1, r2 = (G.element_from_json(triple[n]) for n in ("r0", "r1", "r2"))
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        M = build_regular_map(G, *gens)
        assert flag_system(M) == range(60)
        assert map_record(M)["flags"] == len(flag_system(M))


def test_flag_count_pgl25():
    M = build_revmap(build_group("pgl2", 5), *pgl_triple(5, 0))
    assert len(flag_system(M)) == 240


def test_flag_partner_maps_are_fixed_point_free_involutions():
    # the identity partners of the map, extended to every flag by left multiplication
    for rho in oracle_partner_maps(build_revmap(build_group("psl2", 5), *psl_triple(5, 2))):
        for i, j in enumerate(rho):
            assert j != i
            assert rho[j] == i


def test_vertex_and_face_partners_commute():
    M = build_revmap(build_group("pgl2", 5), *pgl_triple(5, 0))
    rho_v, _, rho_f = oracle_partner_maps(M)
    for i in range(len(rho_v)):
        assert rho_f[rho_v[i]] == rho_v[rho_f[i]]


# -- surface invariants --------------------------------------------------------------


def test_psl25_surface():
    inv = surface_invariants(build_revmap(build_group("psl2", 5), *psl_triple(5, 2)))
    assert (inv.chi, inv.orientable, inv.genus) == (1, False, 1)


def test_pgl27_surface():
    inv = surface_invariants(build_revmap(build_group("pgl2", 7), *pgl_triple(7, 0)))
    assert (inv.chi, inv.orientable, inv.genus) == (-95, False, 97)


def test_orientable_branch():
    # all three involutions outside PSL: every orientation word lands in PSL,
    # so the supporting surface is orientable and chi must be even
    G = build_group("pgl2", 7)
    outside = [i for i in G.involutions() if not G.in_psl_part(i)]
    t = next(
        (x, y, z)
        for x in outside
        for y in outside
        for z in outside
        if len({x, y, z}) == 3 and generates(G, (x, y, z))
    )
    M = build_revmap(G, *t)
    inv = surface_invariants(M)
    assert inv.orientable
    assert inv.chi % 2 == 0
    assert inv.genus == (2 - inv.chi) // 2


def test_orientable_odd_chi_is_refused():
    # a hand-built geometry with every generator outside PSL, so orientable,
    # and cells V, E, F1, F2 = 3, 2, 1, 1, so chi = 3: no such surface exists
    G = build_group("pgl2", 5)
    outside = tuple(i for i in G.involutions() if not G.in_psl_part(i))[:3]
    stabilizers = tuple(frozenset(range(n)) for n in (40, 60, 120, 120))
    M = MapGeometry(G, "reversing", outside, stabilizers, ())
    assert M.chi() == 3
    with pytest.raises(MapError, match="odd Euler characteristic 3"):
        surface_invariants(M)


def test_duality_rotating_roles_keeps_chi():
    G = build_group("psl2", 5)
    x, y, z = psl_triple(5, 2)
    chis = set()
    for order in ((x, y, z), (y, z, x), (z, x, y)):
        chis.add(build_revmap(G, *order).chi())
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
    for family, t in (("psl2", psl_triple(5, 2)), ("pgl2", pgl_triple(5, 0))):
        g = underlying_graph(build_revmap(build_group(family, 5), *t))
        reached = {0}
        frontier = [0]
        adj = g.adjacency()
        while frontier:
            frontier = [w for v in frontier for w in adj[v] if w not in reached]
            reached.update(frontier)
        assert reached == set(range(g.vertex_count))


def test_reversing_multigraph_is_other():
    M = build_revmap(build_group("psl2", 5), *psl_triple(5, 2))
    g = underlying_graph(M)
    assert g.vertex_count == 6
    assert not g.is_simple
    assert recognize_graph(g) == "other"
    assert map_record(M)["vertex_valency"] == 10


def test_face_lengths_are_half_the_stabilizer_orders():
    M = build_revmap(build_group("psl2", 5), *psl_triple(5, 2))
    lengths = map_record(M)["face_lengths"]
    assert lengths["1"] == 3  # faces of the D6 family
    assert lengths["2"] == 2  # faces of the Klein family


def test_recognize_plain_graphs():
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
    M = build_revmap(build_group("psl2", 5), *psl_triple(5, 2))
    dot = to_dot(underlying_graph(M))
    assert dot.startswith("graph underlying {")
    assert 'label="x2"' in dot
    assert dot.strip().endswith("}")


# -- records -----------------------------------------------------------------------------


def test_map_record_shape():
    M = build_revmap(build_group("ext", 7, 5), *ext_triple(7, 5, 0, 1, 0))
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
