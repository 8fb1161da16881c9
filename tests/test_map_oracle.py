"""The map builder against the incidence geometry in ``oracle.py``.

``revmaps.mapgeom`` reads a map record off the cell stabilizers and the
generators, and keeps the partners of the identity flags, which extend to
the partner maps on the flags G x {face family} by left multiplication; the
oracle enumerates the mutually incident cell triples of the coset geometry,
labels those flags with coset blocks of its own, pairs them on keys over all
of them, two-colours the whole flag graph and classifies the underlying
graph by explicit isomorphism.  Both must give the same record, partner
maps, orientability, flag count and edge endpoints on every map the program
builds, orientable ones included.
"""

import random
from itertools import combinations

import pytest
from oracle import (
    oracle_conjugate_overlap,
    oracle_flag_system,
    oracle_graph,
    oracle_map,
    oracle_partner_maps,
    oracle_right_cosets,
)

from revmaps.groups import build_group, generates, right_cosets, subgroup_closure
from revmaps.mapgeom import (
    MapError,
    UnderlyingGraph,
    _assemble,
    _cell_generators,
    _conjugate_overlap,
    build_regular_map,
    build_revmap,
    flag_system,
    map_record,
    recognize_graph,
    surface_invariants,
    underlying_graph,
)
from revmaps.triples import ext_triple, pgl_triple, psl_triple, scan_reversing_census
from revmaps.verify import VERIFY_MATRIX, a5_exceptional_case


def _assert_matches_oracle(M):
    record, pairs = oracle_map(M.group, M.kind, M.generators)
    assert map_record(M) == record
    assert len(flag_system(M)) == record["flags"]
    rho_v, rho_e, rho_f, orientable = oracle_flag_system(M.group, M.kind, M.generators)
    assert oracle_partner_maps(M) == (rho_v, rho_e, rho_f)
    assert surface_invariants(M).orientable is orientable
    assert list(underlying_graph(M).edges) == pairs


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_rebuilt_maps_match_oracle(family, p, m):
    # the maps verify_theorem rebuilds: one per class of each qualifying pattern
    G = build_group(family, p, m)
    for census in scan_reversing_census(G).qualifying:
        for rep in census.classes or census.triples[:1]:
            _assert_matches_oracle(build_revmap(G, *rep))


def test_a5_pair_matches_oracle():
    G = build_group("psl2", 5)
    triple = a5_exceptional_case()["triple"]
    r0, r1, r2 = (G.element_from_json(triple[n]) for n in ("r0", "r1", "r2"))
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        _assert_matches_oracle(build_regular_map(G, *gens))


# every group the construct benchmark draws from: the default triple (named
# by the group alone) and one at another point k and, in EXT, another
# exponent pair (c1, c2) with c1 - c2 a unit mod m
CONSTRUCT_CALLS = (
    [
        pytest.param(("psl2", p), psl_triple, (p, k), id=f"psl2-{p}" + (f"-k{k}" if k != 2 else ""))
        for p in (5, 13, 17)
        for k in (2, p)
    ]
    + [
        pytest.param(("pgl2", p), pgl_triple, (p, k), id=f"pgl2-{p}" + (f"-k{k}" if k else ""))
        for p in (5, 7, 11, 13, 17, 19)
        for k in (0, p)
    ]
    + [
        pytest.param(
            ("ext", p, m), ext_triple, (p, m, *kc), id=f"ext-{p}-{m}" + (f"-k{p}" if kc[0] else "")
        )
        for p, m in ((7, 3), (7, 5), (7, 9), (11, 3), (11, 5))
        for kc in ((0, 1, 0), (p, m - 1, 1))
    ]
)


@pytest.mark.parametrize("group,make,args", CONSTRUCT_CALLS)
def test_constructed_maps_match_oracle(group, make, args):
    _assert_matches_oracle(build_revmap(build_group(*group), *make(*args)))


def _assert_overlap_matches_oracle(M):
    # map_record's simplicity test: |H & sHs| for the vertex stabilizer H and
    # the vertex partner s, from one conjugation sweep against two products per member
    (s, _), _, _ = M.partners[0]
    H = M.stabilizers[0]
    assert _conjugate_overlap(M.group, s, H) == oracle_conjugate_overlap(M.group, s, H)


@pytest.mark.parametrize("group,make,args", CONSTRUCT_CALLS)
def test_constructed_simplicity_overlap_matches_oracle(group, make, args):
    _assert_overlap_matches_oracle(build_revmap(build_group(*group), *make(*args)))


def test_a5_simplicity_overlap_matches_oracle():
    G = build_group("psl2", 5)
    triple = a5_exceptional_case()["triple"]
    r0, r1, r2 = (G.element_from_json(triple[n]) for n in ("r0", "r1", "r2"))
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        _assert_overlap_matches_oracle(build_regular_map(G, *gens))


def _assert_cosets_match_oracle(M):
    # the cells of every kind, vertex, edge and each face family: two cycles
    # of the cell's rotation per coset against the generators' orbits
    G = M.group
    for gens in _cell_generators(M.kind, M.generators):
        assert right_cosets(G, gens) == oracle_right_cosets(G, gens), gens


@pytest.mark.parametrize(
    "group,make,args",
    [
        (("psl2", 5), psl_triple, (5, 2)),
        (("psl2", 13), psl_triple, (13, 2)),
        (("pgl2", 7), pgl_triple, (7, 0)),
        (("pgl2", 11), pgl_triple, (11, 0)),
        (("pgl2", 19), pgl_triple, (19, 0)),
        (("ext", 7, 3), ext_triple, (7, 3, 0, 1, 0)),
        (("ext", 7, 5), ext_triple, (7, 5, 0, 1, 0)),
        (("ext", 7, 9), ext_triple, (7, 9, 0, 1, 0)),
        (("ext", 11, 3), ext_triple, (11, 3, 0, 1, 0)),
    ],
    ids=[
        "psl2-5",
        "psl2-13",
        "pgl2-7",
        "pgl2-11",
        "pgl2-19",
        "ext-7-3",
        "ext-7-5",
        "ext-7-9",
        "ext-11-3",
    ],
)
def test_right_cosets_match_oracle(group, make, args):
    _assert_cosets_match_oracle(build_revmap(build_group(*group), *make(*args)))


def test_a5_right_cosets_match_oracle():
    G = build_group("psl2", 5)
    triple = a5_exceptional_case()["triple"]
    r0, r1, r2 = (G.element_from_json(triple[n]) for n in ("r0", "r1", "r2"))
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        _assert_cosets_match_oracle(build_regular_map(G, *gens))


@pytest.mark.parametrize("family,p,m,idx", [("pgl2", 7, 1, (0, 7, 53)), ("ext", 7, 3, (0, 7, 389))])
def test_orientable_maps_match_oracle(family, p, m, idx):
    # x, y and z all lie outside the index-2 subgroup (the PSL part), so the
    # map is orientable; the rebuilt and default constructed maps are not
    G = build_group(family, p, m)
    assert not any(G.in_psl_part(s) for s in idx)
    M = build_revmap(G, *idx)
    assert map_record(M)["orientable"] is True
    _assert_matches_oracle(M)


def _random_cubic_graph(rng: random.Random) -> list[tuple[int, int]]:
    """A random simple cubic graph on ten vertices, by pairing three stubs per vertex."""
    while True:
        stubs = [v for v in range(10) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, 30, 2)}
        if len(edges) == 15 and all(a != b for a, b in edges):
            return sorted(edges)


def test_graph_recognition_matches_oracle():
    # relabelled Petersen graphs and random cubic graphs on ten vertices: the
    # girth test in recognize_graph against an explicit isomorphism
    rng = random.Random(0)
    verts = list(combinations(range(5), 2))
    petersen = [(i, j) for i, j in combinations(range(10), 2) if not set(verts[i]) & set(verts[j])]
    seen = set()
    for trial in range(60):
        if trial % 2:
            pairs = _random_cubic_graph(rng)
        else:
            relabel = rng.sample(range(10), 10)
            pairs = sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in petersen)
        got = recognize_graph(UnderlyingGraph(10, tuple(pairs)))
        assert got == oracle_graph(10, pairs)["recognized"]
        seen.add(got)
    assert seen == {"petersen", "other"}


def test_four_flags_sharing_a_vertex_and_face_are_rejected():
    # |<x,y> & <x,z>| = 4: four flags of face family 1 share each vertex and
    # face, so there is no edge partner map; the check at the identity flag,
    # made when the map is built, and the pairing over all flags must both
    # refuse the geometry
    G = build_group("psl2", 7)
    x, y, z = 0, 50, 59
    assert all(G.is_involution(s) for s in (x, y, z))
    vertex = set(subgroup_closure(G, (x, y)))
    assert len(vertex & set(subgroup_closure(G, (x, z)))) == 4
    assert z not in vertex  # the vertex partners pass
    # the triple does not generate PSL(2,7), so build_revmap would refuse it first
    assert not generates(G, (x, y, z))
    for build in (_assemble, oracle_flag_system):
        with pytest.raises(MapError, match="more than two flags share all but their edge"):
            build(G, "reversing", (x, y, z))
