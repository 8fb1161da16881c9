"""Maps as coset incidence geometries: cells, flags, surface invariants.

A reversing map is assembled from a generating involution triple (x, y, z):
vertices are the right cosets of <x,y>, edges of <z>, and the two face
families of <x,z> and <y,z>; two cells are incident iff the cosets meet.
A flag-regular map uses three involutions r0, r1, r2 with (r0 r2)^2 = 1 and
cells <r1,r2>, <r0,r2>, <r0,r1>.

Orientability is decided on the flag graph: flags are the mutually incident
(vertex, edge, face) triples, each flag has exactly one partner differing in
any single coordinate, and the supporting surface is orientable iff the graph
on flags joined by the three partner involutions is bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groups import GroupHandle, SubgroupHandle, generates, right_cosets, subgroup_closure
from .triples import ReversingTriple

# the version of the record and report layout written by every writer
SCHEMA_VERSION = 2


class MapError(ValueError):
    """The given data does not describe a well-formed map."""


@dataclass(frozen=True)
class MapGeometry:
    group: GroupHandle
    kind: str  # "reversing" or "flag_regular"
    generators: tuple[int, ...]
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]
    face_orbit: tuple[int, ...]  # orbit label (1 or 2) per face
    edge_vertices: tuple[tuple[int, ...], ...]
    edge_faces: tuple[tuple[int, ...], ...]
    vf_incidence: frozenset[tuple[int, int]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def face_counts_by_orbit(self) -> tuple[int, int]:
        one = sum(1 for o in self.face_orbit if o == 1)
        return one, len(self.faces) - one

    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def stabilizer_orders(self) -> dict[str, int]:
        orders = {
            "vertex": len(self.vertices[0]),
            "edge": len(self.edges[0]),
        }
        n1, _ = self.face_counts_by_orbit()
        if self.kind == "reversing":
            orders["face1"] = len(self.faces[0])
            orders["face2"] = len(self.faces[n1])
        else:
            orders["face"] = len(self.faces[0])
        return orders

    def degeneracies(self) -> list[str]:
        problems = []
        for e, (vs, fs) in enumerate(zip(self.edge_vertices, self.edge_faces)):
            if not 1 <= len(vs) <= 2:
                problems.append(f"edge {e} touches {len(vs)} vertices")
            if not 1 <= len(fs) <= 2:
                problems.append(f"edge {e} touches {len(fs)} faces")
            if len(vs) == 1:
                problems.append(f"edge {e} is a loop")
            if len(fs) == 1:
                problems.append(f"edge {e} borders a single face")
        return problems


def _assemble(
    G: GroupHandle,
    vertex_sub: SubgroupHandle,
    edge_sub: SubgroupHandle,
    face_subs: list[SubgroupHandle],
    kind: str,
    generators: tuple[int, ...],
) -> MapGeometry:
    vertex_blocks = right_cosets(G, vertex_sub).blocks
    edge_blocks = right_cosets(G, edge_sub).blocks
    face_blocks: list[tuple[int, ...]] = []
    face_orbit: list[int] = []
    face_of: list[list[int]] = []
    for orbit, sub in enumerate(face_subs, start=1):
        blocks = right_cosets(G, sub).blocks
        offset = len(face_blocks)
        face_blocks.extend(blocks)
        face_orbit.extend([orbit] * len(blocks))
        lookup = [0] * G.order
        for fid, block in enumerate(blocks, start=offset):
            for g in block:
                lookup[g] = fid
        face_of.append(lookup)

    vertex_of = [0] * G.order
    for vid, block in enumerate(vertex_blocks):
        for g in block:
            vertex_of[g] = vid
    edge_of = [0] * G.order
    for eid, block in enumerate(edge_blocks):
        for g in block:
            edge_of[g] = eid

    edge_vertices = tuple(
        tuple(sorted({vertex_of[g] for g in block})) for block in edge_blocks
    )
    edge_faces = tuple(
        tuple(sorted({lookup[g] for lookup in face_of for g in block}))
        for block in edge_blocks
    )
    vf = frozenset(
        (vertex_of[g], lookup[g]) for g in range(G.order) for lookup in face_of
    )
    return MapGeometry(
        group=G,
        kind=kind,
        generators=generators,
        vertices=vertex_blocks,
        edges=edge_blocks,
        faces=tuple(face_blocks),
        face_orbit=tuple(face_orbit),
        edge_vertices=edge_vertices,
        edge_faces=edge_faces,
        vf_incidence=vf,
    )


def build_revmap(G: GroupHandle, t: ReversingTriple) -> MapGeometry:
    """Coset geometry of a generating reversing triple."""
    if not t.generates:
        raise MapError("the triple does not generate the group")
    x, y, z = t.indices()
    return _assemble(
        G,
        subgroup_closure(G, (x, y)),
        subgroup_closure(G, (z,)),
        [subgroup_closure(G, (x, z)), subgroup_closure(G, (y, z))],
        "reversing",
        (x, y, z),
    )


def build_regular_map(G: GroupHandle, r0: int, r1: int, r2: int) -> MapGeometry:
    """Coset geometry of a flag-regular generator triple.

    r0, r1, r2 must be involutions generating G with r0 and r2 commuting;
    the flag count then equals |G|.
    """
    for r in (r0, r1, r2):
        if not G.is_involution(r):
            raise MapError("flag-regular generators must be involutions")
    if G.mul(r0, r2) == G.identity or not G.is_involution(G.mul(r0, r2)):
        raise MapError("r0 and r2 must be distinct commuting involutions")
    if not generates(G, {r0, r1, r2}):
        raise MapError("generators do not generate the group")
    return _assemble(
        G,
        subgroup_closure(G, (r1, r2)),
        subgroup_closure(G, (r0, r2)),
        [subgroup_closure(G, (r0, r1))],
        "flag_regular",
        (r0, r1, r2),
    )


@dataclass(frozen=True)
class FlagSystem:
    flags: tuple[tuple[int, int, int], ...]
    rho_v: tuple[int, ...]
    rho_e: tuple[int, ...]
    rho_f: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.flags)


def _pairing(flags, key) -> tuple[int, ...]:
    groups: dict = {}
    for idx, flag in enumerate(flags):
        groups.setdefault(key(flag), []).append(idx)
    out = [0] * len(flags)
    for k, members in groups.items():
        if len(members) != 2:
            raise MapError(
                f"{len(members)} flags share coordinates {k}; geometry is not a map"
            )
        a, b = members
        out[a], out[b] = b, a
    return tuple(out)


def flag_system(M: MapGeometry) -> FlagSystem:
    """All mutually incident (vertex, edge, face) triples with partner maps.

    Each of the three partner maps swaps exactly one coordinate and must be a
    fixed-point-free involution, otherwise the geometry is rejected.
    """
    problems = M.degeneracies()
    if problems:
        raise MapError("; ".join(problems))
    flags = []
    for e, (vs, fs) in enumerate(zip(M.edge_vertices, M.edge_faces)):
        for v in vs:
            for f in fs:
                if (v, f) in M.vf_incidence:
                    flags.append((v, e, f))
    flags = tuple(sorted(flags))
    if len(flags) != 4 * M.edge_count:
        raise MapError(
            f"{len(flags)} flags for {M.edge_count} edges; expected {4 * M.edge_count}"
        )
    rho_v = _pairing(flags, lambda fl: (fl[1], fl[2]))
    rho_e = _pairing(flags, lambda fl: (fl[0], fl[2]))
    rho_f = _pairing(flags, lambda fl: (fl[0], fl[1]))
    return FlagSystem(flags, rho_v, rho_e, rho_f)


def _flag_graph_bipartite(fs: FlagSystem) -> bool:
    """2-colorability of the flag graph; also requires connectivity."""
    n = len(fs.flags)
    color = [-1] * n
    color[0] = 0
    queue = [0]
    seen = 1
    bipartite = True
    while queue:
        nxt = []
        for i in queue:
            for rho in (fs.rho_v, fs.rho_e, fs.rho_f):
                j = rho[i]
                if color[j] < 0:
                    color[j] = 1 - color[i]
                    nxt.append(j)
                    seen += 1
                elif color[j] == color[i]:
                    bipartite = False
        queue = nxt
    if seen != n:
        raise MapError("flag graph is disconnected; not a map of a connected graph")
    return bipartite


@dataclass(frozen=True)
class SurfaceInvariants:
    chi: int
    orientable: bool
    genus: int


def surface_invariants(M: MapGeometry, fs: FlagSystem | None = None) -> SurfaceInvariants:
    """Euler characteristic, orientability and genus of the supporting surface.

    chi = |V| - |E| + |F|; orientability comes from flag graph bipartiteness
    and is cross-checked against the parity of chi (an odd chi can never be
    orientable).
    """
    if fs is None:
        fs = flag_system(M)
    chi = M.chi()
    orientable = _flag_graph_bipartite(fs)
    if orientable and chi % 2:
        raise MapError(f"orientable surface with odd Euler characteristic {chi}")
    genus = (2 - chi) // 2 if orientable else 2 - chi
    return SurfaceInvariants(chi, orientable, genus)


@dataclass(frozen=True)
class UnderlyingGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # endpoint pairs, loops as (v, v)

    @property
    def loop_count(self) -> int:
        return sum(1 for a, b in self.edges if a == b)

    @property
    def is_simple(self) -> bool:
        return self.loop_count == 0 and len(set(self.edges)) == len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(sorted(deg))

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return adj


def underlying_graph(M: MapGeometry) -> UnderlyingGraph:
    """Multigraph on the vertex cells; one edge per edge cell."""
    pairs = []
    for vs in M.edge_vertices:
        if len(vs) == 1:
            pairs.append((vs[0], vs[0]))
        else:
            pairs.append((vs[0], vs[1]))
    return UnderlyingGraph(M.vertex_count, tuple(sorted(pairs)))


def vertex_valencies(M: MapGeometry) -> tuple[int, ...]:
    val = [0] * M.vertex_count
    for vs in M.edge_vertices:
        for v in set(vs):
            val[v] += 1
    return tuple(val)


def face_lengths(M: MapGeometry) -> tuple[int, ...]:
    lengths = [0] * M.face_count
    for fs in M.edge_faces:
        for f in set(fs):
            lengths[f] += 1
    return tuple(lengths)


def _petersen_adjacency() -> list[set[int]]:
    verts = list(combinations(range(5), 2))
    return [
        {j for j, w in enumerate(verts) if not set(v) & set(w)}
        for v in verts
    ]


def _isomorphic(adj_a: list[set[int]], adj_b: list[set[int]]) -> bool:
    n = len(adj_a)
    if n != len(adj_b):
        return False
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or len(adj_b[w]) != len(adj_a[v]):
                continue
            ok = True
            for u in range(v):
                if (u in adj_a[v]) != (mapping[u] in adj_b[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def recognize_graph(g: UnderlyingGraph) -> str:
    """Classify as complete(n), petersen, or other; multigraphs are other."""
    if not g.is_simple:
        return "other"
    n = g.vertex_count
    if len(g.edges) == n * (n - 1) // 2:
        if set(g.edges) == {(a, b) for a in range(n) for b in range(a + 1, n)}:
            return f"complete({n})"
    if n == 10 and len(g.edges) == 15 and g.degree_sequence() == (3,) * 10:
        if _isomorphic(g.adjacency(), _petersen_adjacency()):
            return "petersen"
    return "other"


def map_record(M: MapGeometry, fs: FlagSystem | None = None) -> dict:
    """JSON-ready summary of a map: counts, invariants, graph recognition."""
    if fs is None:
        fs = flag_system(M)
    inv = surface_invariants(M, fs)
    graph = underlying_graph(M)
    vals = sorted(set(vertex_valencies(M)))
    if len(vals) != 1:
        raise MapError(f"vertex valency is not constant: {vals}")
    lengths = face_lengths(M)
    per_orbit: dict[int, set[int]] = {}
    for f, length in enumerate(lengths):
        per_orbit.setdefault(M.face_orbit[f], set()).add(length)
    if any(len(v) != 1 for v in per_orbit.values()):
        raise MapError("face length is not constant on a face orbit")
    n1, n2 = M.face_counts_by_orbit()
    rec = {
        "schema_version": SCHEMA_VERSION,
        "group": {**M.group.descriptor(), "order": M.group.order},
        "kind": M.kind,
        "triple": {
            name: M.group.element_json(i)
            for name, i in zip(
                ("x", "y", "z") if M.kind == "reversing" else ("r0", "r1", "r2"),
                M.generators,
            )
        },
        "counts": {
            "V": M.vertex_count,
            "E": M.edge_count,
            "F1": n1,
            "F2": n2,
            "F": M.face_count,
        },
        "chi": inv.chi,
        "orientable": inv.orientable,
        "genus": inv.genus,
        "flags": len(fs),
        "stabilizer_orders": M.stabilizer_orders(),
        "vertex_valency": vals[0],
        "face_lengths": {
            str(orbit): sorted(vals_)[0] for orbit, vals_ in sorted(per_orbit.items())
        },
        "graph": {
            "recognized": recognize_graph(graph),
            "degree_sequence": list(graph.degree_sequence()),
            "loops": graph.loop_count,
            "simple": graph.is_simple,
        },
    }
    return rec


def to_dot(g: UnderlyingGraph, name: str = "underlying") -> str:
    """DOT text of the underlying graph with edge multiplicity annotations."""
    mult: dict[tuple[int, int], int] = {}
    for pair in g.edges:
        mult[pair] = mult.get(pair, 0) + 1
    lines = [f"graph {name} {{"]
    for v in range(g.vertex_count):
        lines.append(f"  {v};")
    for (a, b), k in sorted(mult.items()):
        label = f' [label="x{k}"]' if k > 1 else ""
        lines.append(f"  {a} -- {b}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
