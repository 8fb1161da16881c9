"""The permutation map builder against the incidence geometry in ``oracle.py``.

``revmaps.mapgeom`` reads the partner maps on the flags G x {face family}
off left multiplications; the oracle enumerates the mutually incident cell
triples of the coset geometry, and labels those flags with coset blocks of
its own and pairs them on keys over all of them.  Both must give the same
record, partner maps, orientability, flag count and edge endpoints on every
map the program builds.
"""

import pytest
from oracle import oracle_flag_system, oracle_map

from revmaps.groups import build_group, subgroup_closure
from revmaps.mapgeom import (
    MapError,
    build_regular_map,
    build_revmap,
    flag_system,
    map_record,
    surface_invariants,
    underlying_graph,
)
from revmaps.triples import (
    ReversingTriple,
    ext_triple,
    make_triple,
    pgl_triple,
    psl_triple,
    scan_reversing_census,
)
from revmaps.verify import VERIFY_MATRIX, a5_exceptional_case


def _assert_matches_oracle(M):
    record, pairs = oracle_map(M.group, M.kind, M.generators)
    assert map_record(M) == record
    fs = flag_system(M)
    assert len(fs) == record["flags"]
    rho_v, rho_e, rho_f, orientable = oracle_flag_system(M)
    assert (fs.rho_v, fs.rho_e, fs.rho_f) == (rho_v, rho_e, rho_f)
    assert surface_invariants(M).orientable is orientable
    assert list(underlying_graph(M).edges) == pairs


@pytest.mark.parametrize("family,p,m", VERIFY_MATRIX)
def test_rebuilt_maps_match_oracle(family, p, m):
    # the maps verify_theorem rebuilds: one per class of each qualifying pattern
    G = build_group(family, p, m)
    for census in scan_reversing_census(G).qualifying:
        for rep in census.classes or census.triples[:1]:
            _assert_matches_oracle(build_revmap(G, ReversingTriple(G, *rep, census.pattern, True)))


def test_a5_pair_matches_oracle():
    G = build_group("psl2", 5)
    triple = a5_exceptional_case()["triple"]
    r0, r1, r2 = (G.element_from_json(triple[n]) for n in ("r0", "r1", "r2"))
    for gens in ((r0, r1, r2), (r2, r1, r0)):
        _assert_matches_oracle(build_regular_map(G, *gens))


@pytest.mark.parametrize(
    "make",
    [lambda: psl_triple(13, 2), lambda: pgl_triple(7, 0), lambda: ext_triple(7, 5, 0, 1, 0)],
    ids=["psl2-13", "pgl2-7", "ext-7-5"],
)
def test_constructed_maps_match_oracle(make):
    # the triples construct builds by default
    t = make()
    _assert_matches_oracle(build_revmap(t.group, t))


def test_four_flags_sharing_a_vertex_and_face_are_rejected():
    # |<x,y> & <x,z>| = 4: four flags of face family 1 share each vertex and
    # face, so there is no edge partner map; the check at the identity flag
    # and the pairing over all flags must both refuse the geometry
    G = build_group("psl2", 7)
    x, y, z = 0, 50, 59
    assert all(G.is_involution(s) for s in (x, y, z))
    vertex = set(subgroup_closure(G, (x, y)).members)
    assert len(vertex & set(subgroup_closure(G, (x, z)).members)) == 4
    assert z not in vertex  # the vertex partners pass
    M = build_revmap(G, ReversingTriple(G, x, y, z, make_triple(G, x, y, z).pattern, True))
    for build in (flag_system, oracle_flag_system):
        with pytest.raises(MapError, match="more than two flags share all but their edge"):
            build(M)
