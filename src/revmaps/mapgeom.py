"""Maps as coset labels over flags: cells, flags, surface invariants.

A reversing map is built from a generating involution triple (x, y, z):
vertices are the right cosets of <x,y>, edges of <z>, and the two face
families of <x,z> and <y,z>.  A flag-regular map uses three involutions
r0, r1, r2 with (r0 r2)^2 = 1 and cells <r1,r2>, <r0,r2>, <r0,r1>, and one
face family.  Each cell is an orbit of the left-multiplication permutations
of its generators; the three permutations of a map are computed once per
build and shared by all its cell kinds.

The flags of a non-degenerate map are G x {face family}: flag l*|G| + g is
the element g in face family l, and it lies on the vertex, edge and face
cosets through g.  A map is three label arrays over its flags, and every
count, stabilizer order and incidence is read off them.  Two flags are
partners when they share two of the three cells; each partner map must be a
fixed-point-free involution that changes the third cell, otherwise the
geometry is rejected.  The supporting surface is orientable iff the graph on
flags joined by the three partner maps is bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groups import GroupHandle, generates, right_cosets, subgroup_closure
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
    # cell ids of each flag; faces of family 2 are numbered after family 1
    vertex: tuple[int, ...]
    edge: tuple[int, ...]
    face: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return max(self.vertex) + 1

    @property
    def edge_count(self) -> int:
        return max(self.edge) + 1

    @property
    def face_count(self) -> int:
        return max(self.face) + 1

    def face_counts_by_orbit(self) -> tuple[int, int]:
        one = max(self.face[: self.group.order]) + 1
        return one, self.face_count - one

    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def stabilizer_orders(self) -> dict[str, int]:
        n = self.group.order
        orders = {"vertex": n // self.vertex_count, "edge": n // self.edge_count}
        n1, n2 = self.face_counts_by_orbit()
        if self.kind == "reversing":
            orders["face1"] = n // n1
            orders["face2"] = n // n2
        else:
            orders["face"] = n // n1
        return orders


def _assemble(
    G: GroupHandle,
    vertex_gens: tuple[int, ...],
    edge_gens: tuple[int, ...],
    face_gens: list[tuple[int, ...]],
    kind: str,
    generators: tuple[int, ...],
) -> MapGeometry:
    # one left-multiplication permutation per generator serves every cell kind
    perms = {s: G.left_perm(s) for s in set(generators)}
    vertex = right_cosets(G, subgroup_closure(G, vertex_gens), perms)
    edge = right_cosets(G, subgroup_closure(G, edge_gens), perms)
    face: list[int] = []
    offset = 0
    for gens in face_gens:
        sub = subgroup_closure(G, gens)
        face.extend(offset + c for c in right_cosets(G, sub, perms))
        offset += G.order // sub.order
    # one run of |G| flags per face family
    families = len(face_gens)
    return MapGeometry(
        G, kind, generators, tuple(vertex * families), tuple(edge * families), tuple(face)
    )


def build_revmap(G: GroupHandle, t: ReversingTriple) -> MapGeometry:
    """Coset geometry of a generating reversing triple."""
    if not t.generates:
        raise MapError("the triple does not generate the group")
    x, y, z = t.indices()
    return _assemble(G, (x, y), (z,), [(x, z), (y, z)], "reversing", (x, y, z))


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
    return _assemble(G, (r1, r2), (r0, r2), [(r0, r1)], "flag_regular", (r0, r1, r2))


@dataclass(frozen=True)
class FlagSystem:
    rho_v: tuple[int, ...]
    rho_e: tuple[int, ...]
    rho_f: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rho_v)


def _partners(keys: list[int], own: tuple[int, ...], cell: str) -> tuple[int, ...]:
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


def flag_system(M: MapGeometry) -> FlagSystem:
    """The three partner maps on the flags G x {face family}.

    Flags sharing their edge and face are vertex partners, flags sharing
    their vertex and face edge partners, and flags sharing their vertex and
    edge face partners.  Each partner map must be a fixed-point-free
    involution that changes its own cell, otherwise the geometry is rejected.
    """
    E, F = M.edge_count, M.face_count
    rho_v = _partners([e * F + f for e, f in zip(M.edge, M.face)], M.vertex, "vertex")
    rho_e = _partners([v * F + f for v, f in zip(M.vertex, M.face)], M.edge, "edge")
    rho_f = _partners([v * E + e for v, e in zip(M.vertex, M.edge)], M.face, "face")
    return FlagSystem(rho_v, rho_e, rho_f)


def _flag_graph_bipartite(fs: FlagSystem) -> bool:
    """2-colorability of the flag graph; also requires connectivity."""
    n = len(fs)
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


def _cells_around(cells: tuple[int, ...], count: int, met: tuple[int, ...]) -> list[list[int]]:
    """For each of ``count`` cells, the ``met`` cells it shares a flag with."""
    out: list[list[int]] = [[] for _ in range(count)]
    for c, m in set(zip(cells, met)):
        out[c].append(m)
    return out


def underlying_graph(M: MapGeometry) -> UnderlyingGraph:
    """Multigraph on the vertex cells; one edge per edge cell."""
    ends = _cells_around(M.edge, M.edge_count, M.vertex)
    pairs = sorted((min(vs), max(vs)) for vs in ends)
    return UnderlyingGraph(M.vertex_count, tuple(pairs))


def vertex_valencies(M: MapGeometry) -> tuple[int, ...]:
    return tuple(len(es) for es in _cells_around(M.vertex, M.vertex_count, M.edge))


def face_lengths(M: MapGeometry) -> tuple[int, ...]:
    return tuple(len(es) for es in _cells_around(M.face, M.face_count, M.edge))


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


def map_record(M: MapGeometry) -> dict:
    """JSON-ready summary of a map: counts, invariants, graph recognition."""
    fs = flag_system(M)
    inv = surface_invariants(M, fs)
    graph = underlying_graph(M)
    vals = sorted(set(vertex_valencies(M)))
    if len(vals) != 1:
        raise MapError(f"vertex valency is not constant: {vals}")
    n1, n2 = M.face_counts_by_orbit()
    per_orbit: dict[int, set[int]] = {}
    for f, length in enumerate(face_lengths(M)):
        per_orbit.setdefault(1 if f < n1 else 2, set()).add(length)
    if any(len(v) != 1 for v in per_orbit.values()):
        raise MapError("face length is not constant on a face orbit")
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
