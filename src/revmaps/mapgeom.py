"""Maps as coset geometries of generator triples: cells, flags, surface invariants.

A reversing map is built from a generating involution triple (x, y, z):
vertices are the right cosets of <x,y>, edges of <z>, and the two face
families of <x,z> and <y,z>.  A flag-regular map uses three involutions
r0, r1, r2 with (r0 r2)^2 = 1 and cells <r1,r2>, <r0,r2>, <r0,r1>, and one
face family.

The flags of a non-degenerate map are G x {face family}: flag l*|G| + g is
the element g in face family l, on the cells through g, and ``flag_system``
lists these ids.  A map is its generators, the stabilizers of the cells
through the identity and the partners of the identity flags.  All cells of
a kind are right cosets of one stabilizer (Jones & Singerman, Proc. LMS 37,
1978), and right multiplication g -> g*a keeps every right-coset partition
and commutes with every left multiplication, so each record field is read
at the identity: counts, valencies and face lengths are stabilizer orders,
and the underlying graph's degree, loops and simplicity follow from the
vertex stabilizer and the vertex partner (see ``map_record``).  Two flags
are partners when they share two cells, and the partner maps are left
multiplications (the monodromy group): in a reversing map L_z changes the
vertex, L_x on face family 1 and L_y on family 2 the edge, and the family
swap the face; in a flag-regular map L_r0, L_r1 and L_r2 do.  So the
partners are checked once, at the identity flag of each family, when the
map is built, and a degenerate geometry is refused there.  The stabilizers
are dihedral, spanned by one or two involutions, and ``subgroup_closure``
lists them by powers.  Only ``underlying_graph`` (DOT export and the
Petersen test) sweeps G: ``right_cosets`` labels each element's vertex cell,
walking it as two cycles of g -> r*g for r = x*y (r1*r2 if flag-regular),
and it reads one permutation L_s: g -> s*g of the vertex partner s.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import GroupHandle, generates, right_cosets, subgroup_closure

# the version of the record and report layout written by every writer
SCHEMA_VERSION = 2


class MapError(ValueError):
    """The given data does not describe a well-formed map."""


def _cell_generators(kind: str, generators: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The generators of the vertex, edge and each face family's cells."""
    a, b, c = generators
    if kind == "reversing":
        return [(a, b), (c,), (a, c), (b, c)]
    return [(b, c), (a, c), (a, b)]


class MapGeometry(NamedTuple):
    group: GroupHandle
    kind: str  # "reversing" or "flag_regular"
    generators: tuple[int, ...]
    # member sets of the cells through the identity: its vertex, edge and
    # face (per family) stabilizers
    stabilizers: tuple[frozenset[int], ...]
    # the vertex, edge and face partner (s, k) of the identity flag of each
    # face family, checked when the map is built (see ``_identity_partners``)
    partners: tuple[tuple[tuple[int, int], ...], ...]

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


def _assemble(G: GroupHandle, kind: str, generators: tuple[int, ...]) -> MapGeometry:
    """The geometry of the triple, refused by a MapError if it is degenerate."""
    subs = [subgroup_closure(G, gens) for gens in _cell_generators(kind, generators)]
    stabilizers = tuple(map(frozenset, subs))
    partners = _identity_partners(G, kind, generators, stabilizers)
    return MapGeometry(G, kind, generators, stabilizers, partners)


def _checked(G: GroupHandle, kind: str, generators: tuple[int, int, int]) -> MapGeometry:
    """The geometry of three distinct involutions generating G, else a MapError.

    The two ends r0, r2 of a flag-regular triple must also commute.
    """
    if len(set(generators)) < 3 or not all(map(G.is_involution, generators)):
        raise MapError("the generators are not three distinct involutions")
    r0, _, r2 = generators
    if kind == "flag_regular" and not G.is_involution(G.mul(r0, r2)):
        raise MapError("r0 and r2 must commute")
    if not generates(G, generators):
        raise MapError("the generators do not generate the group")
    return _assemble(G, kind, generators)


def build_revmap(G: GroupHandle, x: int, y: int, z: int) -> MapGeometry:
    """Coset geometry of a reversing triple: three distinct involutions generating G."""
    return _checked(G, "reversing", (x, y, z))


def build_regular_map(G: GroupHandle, r0: int, r1: int, r2: int) -> MapGeometry:
    """Coset geometry of a flag-regular generator triple.

    r0, r1, r2 must be distinct involutions generating G with r0 and r2
    commuting; the flag count then equals |G|.
    """
    return _checked(G, "flag_regular", (r0, r1, r2))


def _identity_partners(
    G: GroupHandle, kind: str, generators: tuple[int, ...], stabilizers: tuple[frozenset[int], ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The vertex, edge and face partner (s, k) of each identity flag (e, l).

    The partner of flag (g, l) is (s*g, k), where s = e is the family swap.
    Exactly two flags must share each two cells of (e, l): they lie on both
    stabilizers, in family l unless the face is the cell not shared.  The
    partner must change the third cell.
    """
    n, e = G.order, G.identity
    if kind == "reversing":
        x, y, z = generators
        table = (((z, 0), (x, 0), (e, 1)), ((z, 1), (y, 1), (e, 0)))
    else:
        r0, r1, r2 = generators
        table = (((r0, 0), (r1, 0), (r2, 0)),)
    V, E, *faces = stabilizers
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


def flag_system(M: MapGeometry) -> range:
    """The flag ids of a map: flag l*|G| + g is the element g in face family l."""
    return range(len(M.partners) * M.group.order)


class SurfaceInvariants(NamedTuple):
    chi: int
    orientable: bool
    genus: int


def surface_invariants(M: MapGeometry) -> SurfaceInvariants:
    """Euler characteristic, orientability and genus of the supporting surface.

    chi = |V| - |E| + |F|.  The surface is orientable iff the flag graph is
    bipartite.  Its partner maps are the L_s of the generators and the
    family swap, and the generators generate G, so a two-colouring is a
    homomorphism G -> Z_2 that sends every generator to 1: one exists iff G
    has an index-2 subgroup containing no generator.  PSL(2,p), p >= 5, is
    simple and has none.  PGL(2,p) and (Z_m x PSL(2,p)):2 with m odd have
    abelianization Z_2, so their one index-2 subgroup is the part whose
    matrices lie in PSL(2,p), which ``in_psl_part`` tests (it holds on all
    of PSL(2,p)).  An orientable surface is cross-checked against the parity
    of chi.
    """
    orientable = not any(M.group.in_psl_part(s) for s in M.generators)
    chi = M.chi()
    if orientable and chi % 2:
        raise MapError(f"orientable surface with odd Euler characteristic {chi}")
    genus = (2 - chi) // 2 if orientable else 2 - chi
    return SurfaceInvariants(chi, orientable, genus)


class UnderlyingGraph(NamedTuple):
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # endpoint pairs, loops as (v, v)

    @property
    def is_simple(self) -> bool:
        return all(a != b for a, b in self.edges) and len(set(self.edges)) == len(self.edges)

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
    its vertex partner s*g, with s the vertex partner of the identity flag
    of face family 1, read off ``G.left_perm(s)``.  They are the same for
    every element of the edge cell, and s lies in the edge stabilizer, so
    g -> s*g pairs off the cell's elements: keyed at the lesser of each
    pair, each edge gives |G_e|/2 equal keys, and every |G_e|/2-th sorted
    key is kept.  This sweeps G twice, for the vertex cells and for L_s;
    only DOT export and the Petersen test in ``map_record`` ask for it.
    """
    G, count = M.group, M.vertex_count
    vertex = right_cosets(G, _cell_generators(M.kind, M.generators)[0])
    (s, _), _, _ = M.partners[0]
    ends = ((vertex[g], vertex[h]) for g, h in enumerate(G.left_perm(s)) if g < h)
    # each pair a <= b as the integer a*count + b, which sorts alike and faster
    keys = sorted(a * count + b if a <= b else b * count + a for a, b in ends)
    step = len(M.stabilizers[1]) // 2
    return UnderlyingGraph(count, tuple(divmod(k, count) for k in keys[::step]))


def recognize_graph(g: UnderlyingGraph) -> str:
    """Classify as petersen or other; multigraphs are other.

    The Petersen graph is the one cubic graph of girth 5 on ten vertices
    (the Moore graph of degree 3), that is the one where each vertex sees all
    ten vertices within distance two.  ``map_record`` decides completeness
    itself and asks this only of simple cubic graphs on ten vertices.
    """
    if not g.is_simple or g.vertex_count != 10:
        return "other"
    adj = g.adjacency()
    if all(len(a) == 3 and len(a.union(*(adj[w] for w in a))) == 10 for a in adj):
        return "petersen"
    return "other"


def _conjugate_overlap(G: GroupHandle, s: int, H: frozenset[int]) -> int:
    """|H & sHs| for the involution s: the conjugates s*h*s of H's members that lie in H."""
    return sum(c in H for c in G.conjugates(s, H))


def map_record(M: MapGeometry) -> dict:
    """JSON-ready summary of a map: counts, invariants, graph recognition.

    Every field is read off the stabilizers and the generators, in O(|G_v|)
    work.  Exactly two flags share each (vertex, edge) and each (face, edge)
    pair, so a cell meets half as many edges as it has flags: families*|G_v|
    at a vertex and |F_l| at a face of family l.  With H the vertex
    stabilizer and s the vertex partner (z, or r0 in a flag-regular map),
    the edges at the vertex H run to the vertices Hsh, h in H, one edge cell
    per |H & E| of them.  Every vertex has degree 2|E|/|V|.  s in H would
    make every edge a loop, and the map's partner check refuses it, so
    there are none.  Hsh = Hsh' iff h h'^-1 lies in H & sHs, so the graph is
    simple iff |H & sHs| = |H & E|, and complete iff it is simple of degree
    |V| - 1.  Only a simple cubic graph on ten vertices is compared with the
    Petersen graph, on ``underlying_graph``.
    """
    inv = surface_invariants(M)
    G = M.group
    H, E, *faces = M.stabilizers
    (s, _), _, _ = M.partners[0]
    count = M.vertex_count
    degree = 2 * M.edge_count // count
    simple = _conjugate_overlap(G, s, H) == len(H & E)
    if simple and degree == count - 1:
        recognized = f"complete({count})"
    elif simple and (count, degree) == (10, 3):
        recognized = recognize_graph(underlying_graph(M))
    else:
        recognized = "other"
    n1, n2 = M.face_counts_by_orbit()
    return {
        "schema_version": SCHEMA_VERSION,
        "group": {**G.descriptor(), "order": G.order},
        "kind": M.kind,
        "triple": {
            name: G.element_json(i)
            for name, i in zip(
                ("x", "y", "z") if M.kind == "reversing" else ("r0", "r1", "r2"),
                M.generators,
            )
        },
        "counts": {
            "V": count,
            "E": M.edge_count,
            "F1": n1,
            "F2": n2,
            "F": M.face_count,
        },
        "chi": inv.chi,
        "orientable": inv.orientable,
        "genus": inv.genus,
        "flags": len(flag_system(M)),
        "stabilizer_orders": M.stabilizer_orders(),
        "vertex_valency": len(faces) * len(H) // 2,
        "face_lengths": {str(l): len(F) // 2 for l, F in enumerate(faces, 1)},
        "graph": {
            "recognized": recognized,
            "degree_sequence": [degree] * count,
            "loops": 0,
            "simple": simple,
        },
    }


def to_dot(g: UnderlyingGraph) -> str:
    """DOT text of the underlying graph with edge multiplicity annotations."""
    mult: dict[tuple[int, int], int] = {}
    for pair in g.edges:
        mult[pair] = mult.get(pair, 0) + 1
    lines = ["graph underlying {"]
    for v in range(g.vertex_count):
        lines.append(f"  {v};")
    for (a, b), k in sorted(mult.items()):
        label = f' [label="x{k}"]' if k > 1 else ""
        lines.append(f"  {a} -- {b}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
