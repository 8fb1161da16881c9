"""Materialized finite groups: PSL(2,p), PGL(2,p) and (Z_m x PSL(2,p)):2.

Groups at this scale (order <= ~2*10^4) are kept as complete element lists in
a canonical sorted order, and all queries work on integer element indices,
so handles double as lookup tables.  Handles are immutable once built and are
cached per (family, p, m).

Element and pair orders are read off the invariant tr^2/det of the matrix
part (see ``gfproj.projective_order``) without multiplying, so the handle
keeps no per-element or per-pair memo.  The only quadratic table is the
dihedral table of the involutions, built on first use by the census scans.

The extended family EXT realizes (Z_m x PSL(2,p)):2 inside Z_m x PGL(2,p)
with the twisted product

    (i, g) * (j, h) = (i + eps(g)*j mod m, g*h),   eps(g) = +1 iff g in PSL,

so that every element outside Z_m x PSL(2,p) inverts the cyclic factor.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gfproj import (
    GFProjError,
    ProjMatrix,
    all_matrices,
    check_prime,
    element_order,
    in_psl,
    mat_inverse,
    mat_multiply,
    product_orders,
    projective_order,
)

PSL2 = "psl2"
PGL2 = "pgl2"
EXT = "ext"

FAMILIES = (PSL2, PGL2, EXT)


class GroupError(ValueError):
    """Invalid group parameters or element arguments."""


class BudgetExceeded(RuntimeError):
    """An exhaustive scan was requested beyond the configured size budget."""


def psl_order(p: int) -> int:
    return p * (p - 1) * (p + 1) // 2


def pgl_order(p: int) -> int:
    return p * (p - 1) * (p + 1)


def group_order(family: str, p: int, m: int = 1) -> int:
    """The order of the family's group, from its formula."""
    return {PSL2: psl_order(p), PGL2: pgl_order(p), EXT: m * pgl_order(p)}[family]


class GroupHandle:
    """A fully materialized group with index-based multiplication.

    ``elements[i]`` is either a ProjMatrix (psl2/pgl2) or an
    (exponent, ProjMatrix) pair (ext), listed in ascending tuple order.
    """

    def __init__(self, family: str, p: int, m: int):
        self.family = family
        self.p = p
        self.m = m
        if family == PSL2:
            self.elements = tuple(g for g in all_matrices(p) if in_psl(g))
        elif family == PGL2:
            self.elements = tuple(all_matrices(p))
        else:
            mats = all_matrices(p)
            self.elements = tuple((i, g) for i in range(m) for g in mats)
        self.order = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if family == EXT:
            self._psl = tuple(in_psl(g) for _, g in self.elements)
            self.identity = self.index[(0, ProjMatrix(1, 0, 0, 1, p))]
        else:
            self._psl = tuple(in_psl(g) for g in self.elements)
            self.identity = self.index[ProjMatrix(1, 0, 0, 1, p)]
        self._inverses: list[int] | None = None
        self._involutions: tuple[int, ...] | None = None
        self._involution_classes: InvolutionClasses | None = None
        self._dihedral: list[array] | None = None

    # -- element access ----------------------------------------------------

    def matrix_part(self, i: int) -> ProjMatrix:
        return self.elements[i][1] if self.family == EXT else self.elements[i]

    def exponent_part(self, i: int) -> int:
        return self.elements[i][0] if self.family == EXT else 0

    def in_psl_part(self, i: int) -> bool:
        """PSL membership of the matrix part (the twist sign for EXT)."""
        return self._psl[i]

    # -- arithmetic ----------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        if self.family == EXT:
            e1, g1 = self.elements[i]
            e2, g2 = self.elements[j]
            e = (e1 + e2) % self.m if self._psl[i] else (e1 - e2) % self.m
            return self.index[(e, mat_multiply(g1, g2))]
        return self.index[mat_multiply(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        if self._inverses is None:
            self._inverses = [-1] * self.order
        cached = self._inverses[i]
        if cached >= 0:
            return cached
        if self.family == EXT:
            e, g = self.elements[i]
            gi = mat_inverse(g)
            # (i,g)^-1 = (-eps(g^-1)*i, g^-1); eps(g^-1) = eps(g)
            ei = (-e if self._psl[i] else e) % self.m
            j = self.index[(ei, gi)]
        else:
            j = self.index[mat_inverse(self.elements[i])]
        self._inverses[i] = j
        self._inverses[j] = i
        return j

    def _cyclic_order(self, i: int, j: int) -> int:
        """What the Z_m factor adds to the order of elements[i] * elements[j] (EXT).

        With the product (e, g): (e, g)^k = (k*e, g^k) when g is in PSL, so
        the order is lcm(|g|, m/gcd(e, m)); otherwise (e, g)^2 = (0, g^2) and
        the order is |g|.
        """
        (e1, _), (e2, _) = self.elements[i], self.elements[j]
        if self._psl[i] != self._psl[j]:
            return 1
        e = e1 + e2 if self._psl[i] else e1 - e2
        return self.m // math.gcd(e, self.m)

    def element_order(self, i: int) -> int:
        if self.family == EXT:
            # elements[i] is elements[i] * identity
            order = element_order(self.elements[i][1])
            return math.lcm(order, self._cyclic_order(i, self.identity))
        return element_order(self.elements[i])

    def is_involution(self, i: int) -> bool:
        return self.element_order(i) == 2

    def conjugate(self, i: int, g: int) -> int:
        return self.mul(self.mul(self.inv(g), i), g)

    def involutions(self) -> tuple[int, ...]:
        if self._involutions is None:
            self._involutions = tuple(i for i in range(self.order) if self.is_involution(i))
        return self._involutions

    def involution_classes(self) -> "InvolutionClasses":
        """The conjugacy classes of involutions with their conjugation maps.

        Built on first use and kept on the handle.
        """
        if self._involution_classes is None:
            self._involution_classes = InvolutionClasses(self)
        return self._involution_classes

    def pair_order(self, i: int, j: int) -> int:
        """Order of elements[i] * elements[j], from the entries of both factors."""
        a, b, c, d, p = self.matrix_part(i)
        e, f, u, v, _ = self.matrix_part(j)
        n = projective_order(a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v, p)
        if self.family == EXT:
            n = math.lcm(n, self._cyclic_order(i, j))
        return n

    def dihedral_table(self) -> list[array]:
        """Dihedral orders 2|uv| of all pairs of involutions, by position.

        Row x holds the orders of involutions()[x] with each involution, and
        0 on the diagonal, 2 bytes an entry.  The orders come from the
        entries, as in pair_order.  Built on first use and kept on the handle;
        only the census scans ask for it.
        """
        if self._dihedral is None:
            invs = self.involutions()
            rows = []
            mats = [self.matrix_part(u) for u in invs]
            for x, row in enumerate(product_orders(mats)):
                if self.family == EXT:
                    u = invs[x]
                    row = [math.lcm(n, self._cyclic_order(u, v)) for n, v in zip(row, invs)]
                row[x] = 0
                rows.append(array("H", [n + n for n in row]))
            self._dihedral = rows
        return self._dihedral

    # -- serialization -------------------------------------------------------

    def descriptor(self) -> dict:
        return {"family": self.family, "p": self.p, "m": self.m}

    def element_json(self, i: int) -> dict:
        g = self.matrix_part(i)
        rec = {"mat": list(g.entries()), "p": self.p}
        if self.family == EXT:
            rec["exp"] = self.exponent_part(i)
        return rec

    def element_from_json(self, rec: dict) -> int:
        from .gfproj import proj_matrix

        try:
            a, b, c, d = rec["mat"]
            g = proj_matrix(a, b, c, d, self.p)
        except (GFProjError, TypeError, ValueError) as exc:
            raise GroupError(f"bad element record {rec}: {exc}") from exc
        key = (rec.get("exp", 0) % self.m, g) if self.family == EXT else g
        if key not in self.index:
            raise GroupError(f"element {rec} not in {self.family}(2,{self.p})")
        return self.index[key]

    def __repr__(self) -> str:
        return f"GroupHandle({self.family}, p={self.p}, m={self.m}, order={self.order})"


_CACHE: dict[tuple[str, int, int], GroupHandle] = {}


def build_group(family: str, p: int, m: int = 1, budget: int | None = None) -> GroupHandle:
    """Materialize a group of the given family.

    psl2 / pgl2 require m = 1.  ext requires p = 3 (mod 4), m odd > 1 and
    gcd(m, p) = 1.  With a budget, a group of more elements raises
    BudgetExceeded before anything is built.  Handles are cached and shared;
    they are immutable.
    """
    if family not in FAMILIES:
        raise GroupError(f"unknown family {family!r}, expected one of {FAMILIES}")
    try:
        check_prime(p)
    except GFProjError as exc:
        raise GroupError(str(exc)) from exc
    if family in (PSL2, PGL2):
        if m != 1:
            raise GroupError(f"family {family} takes m = 1, got m = {m}")
    else:
        if p % 4 != 3:
            raise GroupError(f"extended family needs p = 3 (mod 4), got p = {p}")
        if m <= 1:
            raise GroupError(f"extended family needs m > 1, got m = {m}")
        if m % 2 == 0:
            raise GroupError(f"extended family needs odd m, got m = {m}")
        if math.gcd(m, p) != 1:
            raise GroupError(f"m = {m} must be coprime to p = {p}")
    expected = group_order(family, p, m)
    if budget is not None and expected > budget:
        raise BudgetExceeded(f"group order {expected} exceeds budget {budget}")
    key = (family, p, m)
    handle = _CACHE.get(key)
    if handle is None:
        handle = GroupHandle(family, p, m)
        if handle.order != expected:
            raise GroupError(
                f"{family} p={p} m={m} built {handle.order} elements, expected {expected}"
            )
        _CACHE[key] = handle
    return handle


class InvolutionClass:
    """One conjugacy class of involutions, in positions of ``G.involutions()``.

    ``rep`` is the least member.  ``maps[u]`` is the conjugation map of one
    element t_u with rep^t_u = u: the list sending position i to the position
    of involutions()[i]^t_u.  ``maps[rep]`` is the identity.
    """

    def __init__(
        self, rep: int, maps: dict[int, list[int]], generators: list[list[int]], group_order: int
    ):
        self.rep = rep
        self.maps = maps
        self._generators = generators
        self._centralizer_order = group_order // len(maps)
        self._inverses: dict[int, list[int]] = {}
        self._centralizer: list[tuple[int, ...]] | None = None

    @property
    def size(self) -> int:
        return len(self.maps)

    def inverse(self, u: int) -> list[int]:
        """The conjugation map of t_u^-1, which sends u back to the rep."""
        inv = self._inverses.get(u)
        if inv is None:
            inv = [0] * len(self.maps[u])
            for i, j in enumerate(self.maps[u]):
                inv[j] = i
            self._inverses[u] = inv
        return inv

    def centralizer(self) -> list[tuple[int, ...]]:
        """The conjugation maps of every element of the centralizer of the rep.

        The centralizer is closed from Schreier generators t_u s t_{u^s}^-1
        until it reaches its order |G| / |class|.
        """
        if self._centralizer is None:
            ident = tuple(range(len(self.maps[self.rep])))
            gens: list[tuple[int, ...]] = []
            elems = {ident}
            for u, mu in self.maps.items():
                if len(elems) == self._centralizer_order:
                    break
                for g in self._generators:
                    back = self.inverse(g[u])
                    h = tuple([back[g[j]] for j in mu])
                    if h not in elems:
                        gens.append(h)
                        elems = _close_maps(gens, ident)
            self._centralizer = list(elems)
        return self._centralizer


def _close_maps(gens: list[tuple[int, ...]], ident: tuple[int, ...]) -> set[tuple[int, ...]]:
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tuple([g[j] for j in e])
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return elems


def _involution_generators(G: GroupHandle) -> list[int]:
    """A few involutions generating G.

    Two involutions u, v span a dihedral group of order 2|uv|, so the chosen
    involutions generate a subgroup whose order the lcm of these dihedral
    orders divides; once it reaches |G| they generate G.  Each step adds the
    involution that raises the lcm most.  The lcm can stall below |G| (in
    psl2 with p = 3 mod 4 no product of two involutions has order p); then
    involutions are added until a closure test confirms generation.
    """
    invs = G.involutions()
    chosen = [invs[0]]
    reached = 2
    while reached != G.order:

        def gain(v: int) -> int:
            return math.lcm(reached, *(2 * G.pair_order(u, v) for u in chosen if u != v))

        best = max(invs, key=gain)
        if gain(best) == reached:
            for v in invs:
                if generates(G, chosen):
                    break
                if v not in chosen:
                    chosen.append(v)
            break
        reached = gain(best)
        chosen.append(best)
    return chosen


class InvolutionClasses:
    """The conjugacy classes of involutions of G, with conjugation maps.

    The conjugation maps of a few generating involutions give the classes as
    orbits; a breadth-first search from each class's least member composes
    the maps of a transversal.  Every later step works with list lookups
    instead of group multiplications.
    """

    def __init__(self, G: GroupHandle):
        invs = G.involutions()
        self.position = {v: i for i, v in enumerate(invs)}
        gens = [
            [self.position[G.conjugate(v, s)] for v in invs]
            for s in _involution_generators(G)
        ]
        self.classes: list[InvolutionClass] = []
        self.class_of: list[InvolutionClass | None] = [None] * len(invs)
        for rep in range(len(invs)):
            if self.class_of[rep] is not None:
                continue
            maps = {rep: list(range(len(invs)))}
            frontier = [rep]
            while frontier:
                nxt = []
                for u in frontier:
                    mu = maps[u]
                    for g in gens:
                        w = g[u]
                        if w not in maps:
                            maps[w] = [g[j] for j in mu]
                            nxt.append(w)
                frontier = nxt
            cls = InvolutionClass(rep, maps, gens, G.order)
            self.classes.append(cls)
            for u in maps:
                self.class_of[u] = cls


@dataclass(frozen=True)
class SubgroupHandle:
    group: GroupHandle
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CosetPartition:
    subgroup: SubgroupHandle
    blocks: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(block[0] for block in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def _closure(G: GroupHandle, gens: Sequence[int], stop_above: int | None = None) -> set[int] | None:
    """Right-multiplication closure of the identity under gens.

    With ``stop_above`` set, returns None as soon as the closure is known to
    exceed that many elements (then it can only be the whole group when
    stop_above >= the largest proper subgroup order).
    """
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = G.mul(s, g)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
                    if stop_above is not None and len(seen) > stop_above:
                        return None
        frontier = nxt
    return seen


def subgroup_closure(G: GroupHandle, gens: Iterable[int]) -> SubgroupHandle:
    """Smallest subgroup containing gens."""
    gens = sorted(set(gens))
    if not gens:
        raise GroupError("subgroup_closure needs at least one generator")
    if any(not 0 <= g < G.order for g in gens):
        raise GroupError("generator index out of range")
    members = tuple(sorted(_closure(G, gens)))
    return SubgroupHandle(G, members)


def generates(G: GroupHandle, gens: Iterable[int]) -> bool:
    """True iff the closure of gens is the whole group.

    Any proper subgroup has at most half the elements, so the breadth first
    closure stops as soon as it passes |G|/2.
    """
    gens = sorted(set(gens))
    if not gens:
        return False
    closed = _closure(G, gens, stop_above=G.order // 2)
    return closed is None or len(closed) == G.order


def right_cosets(G: GroupHandle, H: SubgroupHandle) -> CosetPartition:
    """Partition of G into right cosets Hg, blocks ordered by least member."""
    if H.group is not G:
        raise GroupError("subgroup belongs to a different group handle")
    if G.identity not in H.members:
        raise GroupError("subgroup must contain the identity")
    if G.order % len(H.members):
        raise GroupError("member count does not divide the group order")
    assigned = bytearray(G.order)
    blocks = []
    for g in range(G.order):
        if assigned[g]:
            continue
        block = tuple(sorted(G.mul(h, g) for h in H.members))
        if len(block) != len(H.members):
            raise GroupError("members are not closed under multiplication")
        for t in block:
            assigned[t] = 1
        blocks.append(block)
    return CosetPartition(H, tuple(blocks))


def conjugacy_class(G: GroupHandle, g: int) -> tuple[int, ...]:
    """The orbit of g under conjugation by the whole group."""
    if not 0 <= g < G.order:
        raise GroupError("element index out of range")
    return tuple(sorted({G.conjugate(g, h) for h in range(G.order)}))


def conjugacy_class_reps(G: GroupHandle) -> tuple[int, ...]:
    """Least-index representatives of all conjugacy classes."""
    seen = bytearray(G.order)
    reps = []
    for g in range(G.order):
        if seen[g]:
            continue
        reps.append(g)
        for h in conjugacy_class(G, g):
            seen[h] = 1
    return tuple(reps)
