"""Maps as generator permutations over flags: cells, flags, surface invariants.

A reversing map is built from a generating involution triple (x, y, z):
vertices are the right cosets of <x,y>, edges of <z>, and the two face
families of <x,z> and <y,z>.  A flag-regular map uses three involutions
r0, r1, r2 with (r0 r2)^2 = 1 and cells <r1,r2>, <r0,r2>, <r0,r1>, and one
face family.  Each cell is an orbit of the left multiplications
L_s: g -> s*g of its generators, computed once per build and kept with the map.

The flags of a non-degenerate map are G x {face family}: flag l*|G| + g is
the element g in face family l, and it lies on the vertex, edge and face
cosets through g.  A map is its generator permutations, the stabilizers of
the cells through the identity and the vertex cell of every element; all
cells of a kind are right cosets of one stabilizer, so counts, valencies
and face lengths are stabilizer orders.  Two flags are partners when they
share two cells, and the partner maps are left multiplications (the
monodromy group): in a reversing map L_z changes the vertex, L_x on face
family 1 and L_y on family 2 the edge, and the family swap the face; in a
flag-regular map L_r0, L_r1 and L_r2 do.  Right multiplication g -> g*a
keeps every right-coset partition and commutes with every left
multiplication, so the partner checks run at the identity flag of each family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # vertex cell id of each element, numbered by least member
    vertex: tuple[int, ...]
    # member sets of the cells through the identity: its vertex, edge and
    # face (per family) stabilizers
    stabilizers: tuple[frozenset[int], ...]
    perms: dict[int, list[int]] = field(repr=False, compare=False)  # L_s per generator

    @property
    def vertex_count(self) -> int:
        return self.group.order // len(self.stabilizers[0])

    @property
    def edge_count(self) -> int:
        return self.group.order // len(self.stabilizers[1])

    @property
    def face_count(self) -> int:
        return sum(self.face_counts_by_orbit())

    def face_counts_by_orbit(self) -> tuple[int, int]:
        one, *two = (self.group.order // len(f) for f in self.stabilizers[2:])
        return one, sum(two)

    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def stabilizer_orders(self) -> dict[str, int]:
        faces = ("face1", "face2") if self.kind == "reversing" else ("face",)
        return dict(zip(("vertex", "edge", *faces), map(len, self.stabilizers)))


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
    subs = [subgroup_closure(G, gens) for gens in (vertex_gens, edge_gens, *face_gens)]
    return MapGeometry(
        G, kind, generators, tuple(right_cosets(G, subs[0], perms)),
        tuple(frozenset(sub.members) for sub in subs), perms,
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


def _identity_partners(M: MapGeometry) -> list[tuple[tuple[int, int], ...]]:
    """The vertex, edge and face partner (s, k) of each identity flag (e, l).

    The partner of flag (g, l) is (s*g, k), where s = e is the family swap.
    Exactly two flags must share each two cells of (e, l): they lie on both
    stabilizers, in family l unless the face is the cell not shared.  The
    partner must change the third cell.
    """
    n, e = M.group.order, M.group.identity
    if M.kind == "reversing":
        x, y, z = M.generators
        table = [((z, 0), (x, 0), (e, 1)), ((z, 1), (y, 1), (e, 0))]
    else:
        r0, r1, r2 = M.generators
        table = [((r0, 0), (r1, 0), (r2, 0))]
    V, E, *faces = M.stabilizers
    for c, cell in enumerate(("vertex", "edge", "face")):
        for l, F in enumerate(faces):
            # how many flags share the other two cells, then whether s keeps this one
            if (len(E & F), len(V & F), len(V & E) * len(faces))[c] > 2:
                raise MapError(f"more than two flags share all but their {cell}; not a map")
            s, k = table[l][c]
            if (s in V, s in E, k == l and s in F)[c]:
                i, j = l * n + e, k * n + s
                raise MapError(f"flags {i} and {j} differ in no {cell}; the geometry is degenerate")
    return table


def flag_system(M: MapGeometry) -> FlagSystem:
    """The three partner maps on the flags G x {face family}.

    Flags sharing their edge and face are vertex partners, flags sharing
    their vertex and face edge partners, and flags sharing their vertex and
    edge face partners; each is a left multiplication on each family.
    """
    n = M.group.order
    rhos: tuple[list[int], ...] = ([], [], [])
    for partners in _identity_partners(M):
        for rho, (s, k) in zip(rhos, partners):
            perm = range(n) if s == M.group.identity else M.perms[s]
            rho.extend([k * n + h for h in perm] if k else perm)
    return FlagSystem(*map(tuple, rhos))


@dataclass(frozen=True)
class SurfaceInvariants:
    chi: int
    orientable: bool
    genus: int


def surface_invariants(M: MapGeometry) -> SurfaceInvariants:
    """Euler characteristic, orientability and genus of the supporting surface.

    chi = |V| - |E| + |F|; the surface is orientable iff the flag graph is
    bipartite, that is iff every generator's L_s can flip a colouring of G,
    which is cross-checked against the parity of chi.
    """
    _identity_partners(M)  # rejects a degenerate geometry
    colour = [-1] * M.group.order
    colour[0] = 0
    queue = [0]
    orientable = True
    for i in queue:
        flip = 1 - colour[i]
        for perm in M.perms.values():
            j = perm[i]
            if colour[j] < 0:
                colour[j] = flip
                queue.append(j)
            elif colour[j] != flip:
                orientable = False
    if len(queue) != len(colour):
        raise MapError("flag graph is disconnected; not a map of a connected graph")
    chi = M.chi()
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
    """Multigraph on the vertex cells; one edge per edge cell.

    The ends of the edge through element g are the vertex cells of g and of
    its vertex partner.  They are the same for every element of the edge
    cell, so each edge gives |G_e| equal keys and every |G_e|-th sorted key
    is kept.
    """
    count = M.vertex_count
    (s, _), _, _ = _identity_partners(M)[0]
    partner, vertex = M.perms[s], M.vertex
    # each pair a <= b as the integer a*count + b, which sorts alike and faster
    keys = sorted(
        a * count + b if a <= b else b * count + a
        for a, b in zip(vertex, (vertex[h] for h in partner))
    )
    step = len(M.stabilizers[1])
    return UnderlyingGraph(count, tuple(divmod(k, count) for k in keys[::step]))


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
    inv = surface_invariants(M)
    graph = underlying_graph(M)
    n1, n2 = M.face_counts_by_orbit()
    # exactly two flags share each (vertex, edge) and each (face, edge) pair,
    # so a cell meets half as many edges as it has flags: families*|G_v| at a
    # vertex and |F_l| at a face of family l
    V, _, *faces = M.stabilizers
    return {
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
        "vertex_valency": len(faces) * len(V) // 2,
        "face_lengths": {str(l): len(F) // 2 for l, F in enumerate(faces, 1)},
        "graph": {
            "recognized": recognize_graph(graph),
            "degree_sequence": list(graph.degree_sequence()),
            "loops": graph.loop_count,
            "simple": graph.is_simple,
        },
    }


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
