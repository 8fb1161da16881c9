"""Materialized finite groups: PSL(2,p), PGL(2,p) and (Z_m x PSL(2,p)):2.

All three families are one twisted product of Z_m with a matrix group M:
M = PSL(2,p) for psl2 and PGL(2,p) otherwise, m = 1 outside ext, and

    (i, g) * (j, h) = (i + eps(g)*j mod m, g*h),   eps(g) = +1 iff g in PSL,

so that every element outside Z_m x PSL(2,p) inverts the cyclic factor.
Groups at this scale (CI verifies up to 1.1*10^5 elements, the PSL(2,61) of
``verify psl2 61``) keep M as its normalized matrices in ascending tuple
order, held as four entry columns (``gfproj.Columns``) with no matrix object
per element, and every query works on integer element indices: element
``e*|M| + a`` is the pair ``(e, mats[a])`` for the a-th matrix, so the
elements ascend as pairs.  Other modules use ``GroupHandle.element(e, g)``,
``exponent_part``, ``matrix_part`` (which builds the one ProjMatrix asked
for) and ``in_psl_part``.  The one exception is ``matrix_columns()``:
``triples._point_candidates`` and ``verify.check_pgl_action`` read its
positions as element indices, which they are when m = 1.  Handles are
immutable once built and are cached per (family, p, m) in ``_CACHE``, the
one cache.  A pgl2 or psl2 handle lists its own matrices, PSL(2,p) from
its determinants with no PGL(2,p) built, and is its own ``matrix_group``;
an ext handle holds the pgl2 handle of its p, onto which (e, g) -> g
projects, as ``matrix_group`` and shares that handle's listing.

Element and pair orders, and so the involutions, are read off the invariant
tr^2/det of the matrix part (see ``gfproj.projective_order``) without
multiplying, so the handle keeps no per-element or per-pair memo.  The only
quadratic table is the dihedral table of the involutions, whose rows the
census scans build one at a time as they read them.

Whether elements generate the group is asked of ``generates`` alone: an lcm
of element and dihedral orders, then in ext a projection to PGL(2,p), then
the lcm with the orders of words of three involutions, and only then a
closure.  The three generating involutions behind the conjugation maps are
proved by the same orders: two fixed matrices and a third read off three
bulk rows of the dihedral table's kernel, so no closure finds them.

PGL(2,p) acts sharply 3-transitively on the projective line, so a matrix
is known by the three points it sends to 0, infinity and 1.  The handle
keeps them for every matrix, with a table from their code
(``gfproj.point_coder``, which ignores scale) back to the matrix, and
``element``, ``mul``, ``inv`` and ``conjugates`` read that table, with no
product normalized.  A left product h*g sends there the points g does,
moved by h^-1, so ``GroupHandle.left_perm`` (g -> h*g on all indices)
relabels points once per matrix and reads the table.  ``right_cosets``
walks each right coset Hg of a dihedral span H = <u, v> as two cycles of
one such permutation, that of r = u*v.  Conjugacy classes are the orbits
of the conjugation permutations g -> s*g*s of a few generating
involutions s; a class keeps its breadth-first tree as a Schreier vector,
and its rep's centralizer is spanned by involutions read off the rep's
dihedral row.
``subgroup_closure`` lists the dihedral span of one or two involutions, the
only subgroups a map's cells need, by powers of their product; the one
breadth-first closure left is the last step of ``generates``.
"""

from __future__ import annotations

import math
from array import array
from itertools import combinations
from typing import Iterable, Sequence

from .gfproj import (
    Columns,
    GFProjError,
    ProjMatrix,
    all_matrices,
    check_prime,
    point_coder,
    proj_matrix,
    preimage_points,
    product_orders,
    projective_order,
    psl_matrices,
    relabelling,
    sandwich_products,
)

PSL2 = "psl2"
PGL2 = "pgl2"
EXT = "ext"

FAMILIES = (PSL2, PGL2, EXT)

# the most elements an entry point lets a group have unless told otherwise
DEFAULT_BUDGET = 20000


class GroupError(ValueError):
    """Invalid group parameters or element arguments."""


class BudgetExceeded(RuntimeError):
    """A group of more elements than the size budget was requested."""


class ConstructionError(RuntimeError):
    """A construction the theory guarantees failed, in a search or a triple check (a bug)."""


def group_order(family: str, p: int, m: int = 1) -> int:
    """The order of the family's group: n = p(p-1)(p+1), halved for psl2, m*n for ext."""
    n = p * (p - 1) * (p + 1)
    return {PSL2: n // 2, PGL2: n, EXT: m * n}[family]


class GroupHandle:
    """A fully materialized group with index-based multiplication.

    Element ``e*|M| + a`` is the pair ``(e, mats[a])``: exponent e in Z_m
    and the a-th matrix of M in ascending tuple order (see the module
    docstring), the a-th entries of the columns ``_cols``.  ``_psl`` flags
    PSL, ``_points`` holds the ``preimage_points`` and ``_table`` maps each
    point code to a position, or to -1 where M has none; ``matrix_group``
    is the m = 1 handle of M (``self`` unless ext).  ``element(e, g)`` gives
    the index of a pair, and ``exponent_part``, ``matrix_part`` and
    ``in_psl_part`` read one back.
    """

    def __init__(self, family: str, p: int, m: int):
        self.family = family
        self.p = p
        self.m = m
        self._code = point_coder(p)
        self.matrix_group = M = build_group(PGL2, p) if family == EXT else self
        if family == EXT:  # the listing of the cached pgl2 handle of p
            self._cols, self._psl, self._points, self._table = M._cols, M._psl, M._points, M._table
        else:
            self._cols, self._psl = (psl_matrices if family == PSL2 else all_matrices)(p)
            self._points = preimage_points(self._cols, p)
            q = p + 1
            self._table = array("i", [-1]) * q**3
            for a, (x, y, z) in enumerate(zip(*self._points)):
                self._table[(x * q + y) * q + z] = a
            if self._table.count(-1) != q**3 - len(self._psl):
                raise GroupError(f"two matrices of PGL(2,{p}) share a point code")
        self._width = len(self._psl)
        self.order = m * self._width
        self.identity = self.element(0, ProjMatrix(1, 0, 0, 1, p))
        self._involutions: tuple[int, ...] | None = None
        self._involution_classes: InvolutionClasses | None = None
        self._generators: list[int] | None = None
        self._dihedral: DihedralTable | None = None
        self._conjugations: list[list[int]] | None = None

    # -- element access ----------------------------------------------------

    def element(self, exp: int, g: ProjMatrix) -> int:
        """The index of the pair (exp mod m, g); g must be a normalized matrix of M."""
        a, b, c, d, p = g
        # a matrix of another prime codes outside the table; the point code
        # ignores scale, so the matrix found must still equal g
        pos = self._table[self._code(a, b, c, d)] if p == self.p else -1
        A, B, C, D = self._cols
        if pos < 0 or (A[pos], B[pos], C[pos], D[pos]) != (a, b, c, d):
            raise GroupError(f"matrix {list(g)} not in {self.family}(2,{self.p})")
        return exp % self.m * self._width + pos

    def element_from(self, exp: int, G: GroupHandle, i: int) -> int:
        """``element(exp, G.matrix_part(i))`` by position; G has the same ``matrix_group``."""
        if G.matrix_group is not self.matrix_group:
            raise GroupError(f"{G!r} shares no matrix store with {self!r}")
        return exp % self.m * self._width + i % self._width

    def matrix_part(self, i: int) -> ProjMatrix:
        """The matrix part of element i, built on request: the handle keeps entries only."""
        # tuple.__new__ skips the named tuple's Python constructor
        return tuple.__new__(ProjMatrix, self._entries(i % self._width))

    def _entries(self, a: int) -> tuple[int, int, int, int, int]:
        """(a, b, c, d, p) of the a-th matrix, the shape of a ProjMatrix."""
        A, B, C, D = self._cols
        return A[a], B[a], C[a], D[a], self.p

    def matrix_columns(self) -> Columns:
        """The entry columns of M; element i's matrix part is at position i mod |M|."""
        return self._cols

    def exponent_part(self, i: int) -> int:
        return i // self._width

    def in_psl_part(self, i: int) -> bool:
        """PSL membership of the matrix part (the twist sign)."""
        return self._psl[i % self._width] == 1

    # -- arithmetic ----------------------------------------------------------

    def _twist(self, i: int, j: int) -> tuple[int, int, int]:
        """The exponent of element i * element j and the positions of both matrix parts."""
        e1, a = divmod(i, self._width)
        e2, b = divmod(j, self._width)
        return (e1 + e2 if self._psl[a] else e1 - e2) % self.m, a, b

    def mul(self, i: int, j: int) -> int:
        """The product, its matrix part located by the point code of the unscaled product."""
        e, a, b = self._twist(i, j)
        A, B, C, D = self._cols
        x, y, z, w = A[a], B[a], C[a], D[a]
        r, s, t, u = A[b], B[b], C[b], D[b]
        code = self._code(x * r + y * t, x * s + y * u, z * r + w * t, z * s + w * u)
        return e * self._width + self._table[code]

    def left_perm(self, h: int) -> list[int]:
        """The permutation g -> h*g of all element indices, in one sweep.

        The position of each matrix part H*B is one table read at B's points
        relabelled by H (``gfproj.relabelling``), with no product formed; every
        exponent f then shifts them by the block of h's exponent plus eps(h)*f.
        """
        e, a = divmod(h, self._width)
        sign = 1 if self._psl[a] else -1
        table = self._table
        r0, r1, r2 = relabelling(self._entries(a))
        prods = [table[r0[x] + r1[y] + r2[z]] for x, y, z in zip(*self._points)]
        shifts = [(e + sign * f) % self.m * self._width for f in range(self.m)]
        return [s + b for s in shifts for b in prods]

    def conjugates(self, s: int, gs: Iterable[int]) -> list[int]:
        """s*g*s for the involution s and every element g of gs, in one sweep.

        The matrix parts S*A*S are read off the table at their
        ``sandwich_products`` codes, from the entries of each A by position;
        the exponent of (e_s, S)*(e, A)*(e_s, S) is
        e_s*(1 + eps(s)*eps(g)) + eps(s)*e mod m.
        """
        e_s, a_s = divmod(s, self._width)
        sign = 1 if self._psl[a_s] else -1
        base = {1: e_s * (1 + sign), 0: e_s * (1 - sign)}
        parts = [divmod(g, self._width) for g in gs]
        prods = sandwich_products(self._entries(a_s), self._cols, [a for _, a in parts])
        table, psl, m, width = self._table, self._psl, self.m, self._width
        return [(base[psl[a]] + sign * e) % m * width + table[k] for (e, a), k in zip(parts, prods)]

    def involution_generators(self) -> list[int]:
        """Three involutions generating the group (see ``_generating_triple``).

        Found on first use and kept on the handle.
        """
        if self._generators is None:
            self._generators = _generating_triple(self)
        return self._generators

    def conjugation_perms(self) -> list[list[int]]:
        """The permutations g -> s*g*s for the involutions s of ``involution_generators``.

        s*g*s = inv[L_s[inv[L_s[g]]]] with L_s = left_perm(s).  Built on first
        use and kept on the handle.
        """
        if self._conjugations is None:
            inv = [self.inv(g) for g in range(self.order)]
            self._conjugations = []
            for s in self.involution_generators():
                left = self.left_perm(s)
                self._conjugations.append([inv[left[inv[t]]] for t in left])
        return self._conjugations

    def inv(self, i: int) -> int:
        """(e, g)^-1 = (-eps(g)*e, g^-1), as eps(g^-1) = eps(g), g^-1 located by its adjugate."""
        e, a = divmod(i, self._width)
        e = -e if self._psl[a] else e
        A, B, C, D = self._cols
        return e % self.m * self._width + self._table[self._code(D[a], -B[a], -C[a], A[a])]

    def _cyclic_order(self, i: int, j: int) -> int:
        """What the Z_m factor adds to the order (e, g) of element i * element j.

        When g is in PSL, (e, g)^k = (k*e, g^k), so the order is
        lcm(|g|, m/gcd(e, m)); otherwise (e, g)^2 = (0, g^2) and it is |g|.
        """
        e, a, b = self._twist(i, j)
        return self.m // math.gcd(e, self.m) if self._psl[a] == self._psl[b] else 1

    def element_order(self, i: int) -> int:
        # element i is element i * identity, so the Z_m factor is m/gcd(e, m)
        # when the matrix part is in PSL and e != 0 (see _cyclic_order)
        e, a = divmod(i, self._width)
        A, B, C, D = self._cols
        n = projective_order(A[a], B[a], C[a], D[a], self.p)
        return math.lcm(n, self.m // math.gcd(e, self.m)) if e and self._psl[a] else n

    def is_involution(self, i: int) -> bool:
        return self.element_order(i) == 2

    def involutions(self) -> tuple[int, ...]:
        """The elements of order 2 in index order, read off the matrix entries.

        A non-scalar matrix has order 2 iff its trace is 0 (a scalar one has
        trace 2), and (e, g)^2 is (2e, g^2) for g in PSL, else (0, g^2).
        """
        if self._involutions is None:
            p, psl, (A, _, _, D) = self.p, self._psl, self._cols
            traceless = [a for a, (x, d) in enumerate(zip(A, D)) if (x + d) % p == 0]
            self._involutions = tuple(
                e * self._width + a for e in range(self.m) for a in traceless if not (e and psl[a])
            )
        return self._involutions

    def involution_classes(self) -> "InvolutionClasses":
        """The conjugacy classes of involutions with their Schreier vectors.

        Built on first use and kept on the handle.
        """
        if self._involution_classes is None:
            self._involution_classes = InvolutionClasses(self)
        return self._involution_classes

    def pair_order(self, i: int, j: int) -> int:
        """Order of element i * element j, from the entries of both factors."""
        A, B, C, D = self._cols
        x, y = i % self._width, j % self._width
        a, b, c, d, e, f, u, v = A[x], B[x], C[x], D[x], A[y], B[y], C[y], D[y]
        n = projective_order(a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v, self.p)
        # with m = 1 there is no Z_m factor, and the scans skip its divmods
        return n if self.m == 1 else math.lcm(n, self._cyclic_order(i, j))

    def dihedral_table(self) -> "DihedralTable":
        """Dihedral orders 2|uv| of all pairs of involutions, by position.

        Row x holds the orders of involutions()[x] with each involution, and
        0 on the diagonal, 2 bytes an entry.  The orders come from the
        entries, as in pair_order.  The table is made on first use and kept
        on the handle, and each row is computed the first time it is read, so
        a scan pays only for the rows it indexes.  Only the census scans and
        ``centralizer_generators`` read rows, the latter only the class reps',
        which the scans build; other rows come from ``DihedralTable.products``.
        """
        if self._dihedral is None:
            self._dihedral = DihedralTable(self)
        return self._dihedral

    # -- serialization -------------------------------------------------------

    def descriptor(self) -> dict:
        return {"family": self.family, "p": self.p, "m": self.m}

    def element_json(self, i: int) -> dict:
        a = i % self._width
        rec = {"mat": [col[a] for col in self._cols], "p": self.p}
        if self.family == EXT:
            rec["exp"] = self.exponent_part(i)
        return rec

    def element_from_json(self, rec: dict) -> int:
        try:
            a, b, c, d = rec["mat"]
            exp = rec.get("exp", 0)
            if type(exp) is not int:  # a bool is no exponent
                raise TypeError("exp must be an integer")
            g = proj_matrix(a, b, c, d, self.p)
        except (GFProjError, KeyError, TypeError, ValueError) as exc:
            raise GroupError(f"bad element record {rec}: {exc}") from exc
        return self.element(exp, g)

    def __repr__(self) -> str:
        return f"GroupHandle({self.family}, p={self.p}, m={self.m}, order={self.order})"


class DihedralTable:
    """The dihedral table of ``GroupHandle.dihedral_table``, its rows computed on first read.

    ``table[x]`` is an array('H') of the dihedral orders of involutions()[x]
    with every involution, by position.  ``built()`` lists the rows computed
    so far.
    """

    def __init__(self, G: GroupHandle):
        self._group = G
        invs = G.involutions()
        self._rows: list[array | None] = [None] * len(invs)
        # the kernel runs over the distinct matrix parts, keyed by
        # position: in ext an involution outside PSL has its matrix part
        # under every exponent
        parts: dict[int, int] = {}
        width = G._width
        self._parts = array("i", [parts.setdefault(v % width, len(parts)) for v in invs])
        self._orders = product_orders([G._entries(a) for a in parts])
        # the Z_m part of a pair order depends on the exponents and twist
        # signs alone, so it is read once per kind of involution, at the
        # kind's first position
        keys = [(G.exponent_part(v), G.in_psl_part(v)) for v in invs]
        kinds: dict[tuple[int, bool], int] = {}
        self._kinds = array("i", [kinds.setdefault(k, y) for y, k in enumerate(keys)])
        self._kind_reps = list(kinds.values())

    def __getitem__(self, x: int) -> array:
        row = self._rows[x]
        if row is None:
            row = self._rows[x] = self._row(x)
        return row

    def products(self, g: int) -> list[int]:
        """The orders |g*v| of element g with every involution v, by position; nothing kept.

        The kernel of a row, open to any element: the generating triple reads
        the rows of x, y and x*y and ``centralizer_generators`` that of t1.
        """
        G = self._group
        orders = self._orders(G._entries(g % G._width))
        if G.m == 1:  # no Z_m factor, and the matrix parts are the involutions
            return orders
        invs = G.involutions()
        cyclic = {x: G._cyclic_order(g, invs[x]) for x in self._kind_reps}
        lcms = {c: [math.lcm(n, c) for n in orders] for c in set(cyclic.values())}
        by_kind = {x: lcms[c] for x, c in cyclic.items()}
        return [by_kind[x][a] for x, a in zip(self._kinds, self._parts)]

    def _row(self, x: int) -> array:
        orders = self.products(self._group.involutions()[x])
        orders[x] = 0
        return array("H", [n + n for n in orders])

    def built(self) -> list[int]:
        """The positions of the rows computed so far."""
        return [x for x, row in enumerate(self._rows) if row is not None]


_CACHE: dict[tuple[str, int, int], GroupHandle] = {}


def build_group(family: str, p: int, m: int = 1, budget: int | None = None) -> GroupHandle:
    """Materialize a group of the given family.

    psl2 / pgl2 require m = 1.  ext requires p = 3 (mod 4), m odd > 1 and
    gcd(m, p) = 1.  With a budget, a group of more elements raises
    BudgetExceeded before anything is built, before even the primality test
    of p (trial division, too slow for a p far over any budget); this is the
    one place the budget is checked, so every caller passes it here.  Handles
    are cached, and share their matrix listings; they are immutable.
    """
    if family not in FAMILIES:
        raise GroupError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if type(m) is not int:  # a bool, which isinstance counts as an int, is refused
        raise GroupError(f"m must be an integer, got {m!r}")
    if isinstance(p, int):
        n = group_order(family, p, m)
        if budget is not None and n > budget:
            raise BudgetExceeded(f"{family} p={p} m={m}: group order {n} exceeds budget {budget}")
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
    key = (family, p, m)
    handle = _CACHE.get(key)
    if handle is None:
        handle = GroupHandle(family, p, m)
        if handle.order != n:
            raise GroupError(f"{family} p={p} m={m} built {handle.order} elements, expected {n}")
        _CACHE[key] = handle
    return handle


class InvolutionClass:
    """One conjugacy class of involutions, in positions of ``G.involutions()``.

    ``rep`` is the least member, ``members`` the class in breadth-first
    order.  The Schreier vector ``parent[u] = (w, k)``, with u = perms[k][w]
    for the generators' conjugation perms, spells a path from the rep to u
    and so an element t_u with rep^t_u = u.  ``from_rep`` conjugates by
    t_u, ``to_rep`` by its inverse: the generators are involutions, so that
    is the same path read backwards; ``centralizer_generators`` spans C(rep).
    """

    def __init__(self, rep: int, generators: list[list[int]]):
        self.rep = rep
        self.members = [rep]
        self.parent: dict[int, tuple[int, int]] = {}
        self._generators = generators

    @property
    def size(self) -> int:
        return len(self.members)

    def _path(self, u: int) -> list[int]:
        """The generators on the path from u up to the rep, u's own edge first."""
        ks = []
        while u != self.rep:
            u, k = self.parent[u]
            ks.append(k)
        return ks

    def _walk(self, ks: Iterable[int], ys: Iterable[int]) -> list[int]:
        ys = list(ys)
        for k in ks:
            perm = self._generators[k]
            ys = [perm[y] for y in ys]
        return ys

    def to_rep(self, u: int, ys: Iterable[int]) -> list[int]:
        """The positions ys conjugated by t_u^-1, which sends u to the rep."""
        return self._walk(self._path(u), ys)

    def from_rep(self, u: int, ys: Iterable[int]) -> list[int]:
        """The positions ys conjugated by t_u, which sends the rep to u."""
        return self._walk(reversed(self._path(u)), ys)


def centralizer_generators(G: GroupHandle, cls: InvolutionClass) -> list[int]:
    """Two or three involutions spanning the centralizer C(r) of the rep r of cls, certified.

    v != r commutes with r iff |rv| = 2, a 4 in r's dihedral row.  t1 is the
    first such v of exponent 0, t2 the one of exponent 0 with the largest
    |t1 t2| (read off t1's bulk row).  They lie in C(r), of |G|/|class|
    elements, and span a dihedral group of 2|t1 t2|: equal orders certify
    <t1, t2> = C(r), dihedral by Dickson.  On the PSL side of ext, C((0, g))
    is every (e, h) with h in C_PGL(g); t3 = (1, S), for the one s = (0, S)
    of t1, t2 outside PSL, gives s*t3 = (-1, 1), which generates Z_m, and
    exponent 0 keeps Z_m out of <t1, t2>, so the span has m*2|t1 t2|
    elements.  Any other order is a ConstructionError.
    """
    invs, table = G.involutions(), G.dihedral_table()
    commuting = [y for y, d in enumerate(table[cls.rep]) if d == 4 and not G.exponent_part(invs[y])]
    try:
        orders = table.products(invs[commuting[0]])  # stores no row
        t2 = max(commuting, key=orders.__getitem__)
        gens, reached = [invs[commuting[0]], invs[t2]], 2 * orders[t2]
        if G.family == EXT and G.in_psl_part(invs[cls.rep]):
            s = next(t for t in gens if not G.in_psl_part(t))
            gens.append(G.element_from(1, G, s))
            reached *= G.m
    except (IndexError, StopIteration):
        reached = 0
    if reached != G.order // cls.size:
        raise ConstructionError(f"C({invs[cls.rep]}) has no certified generators in {G!r}")
    return gens


def _generating_triple(G: GroupHandle) -> list[int]:
    """Three involutions x, y, w generating G, proved so by orders, with no closure.

    In M = G, or PGL(2,p) in ext, x = diag(1, -1) and y = [[1, 1], [0, -1]]
    have a product of order p.  In psl2 with p = 3 mod 4 no two involutions
    do, so x = [[0, 1], [-1, 0]] and y is the first involution with
    |xy| = (p+1)/2, read off x's bulk row (``DihedralTable.products``, which
    stores no row).  w is the first involution whose rows of x, y and x*y
    bring lcm(2|xy|, 2|xw|, 2|yw|, |xyw|), a divisor of |<x, y, w>| (see
    ``generates``), to |M|.  In ext, x takes exponent 1, so |xy| = m*p and
    ``generates`` settles the triple by its projection.  In pgl2, ext and
    psl2 with p = 1 mod 4, w exists: PGL(2,p) is transitive on the ordered
    pairs of involutions whose product has order p, and PSL(2,p) is normal
    in it, so a conjugate of a construction triple completes (x, y).  psl2
    with p = 3 mod 4 rests on the run-time certificate, the one ``generates``
    call on each triple; a missing y or w or a refusal is a ConstructionError.
    """
    p, M = G.p, G.matrix_group
    invs, table = M.involutions(), M.dihedral_table()
    no_p_pair = G.family == PSL2 and p % 4 == 3
    x = M.element(0, ProjMatrix(0, 1, p - 1, 0, p) if no_p_pair else ProjMatrix(1, 0, 0, p - 1, p))
    rx = table.products(x)
    try:
        if no_p_pair:
            y = next(v for v, n in zip(invs, rx) if n == (p + 1) // 2)
        else:
            y = M.element(0, ProjMatrix(1, 1, 0, p - 1, p))
        xy = rx[invs.index(y)]
        rows = rx, table.products(y), table.products(M.mul(x, y))
        lcms = (math.lcm(xy + xy, a + a, b + b, c) for a, b, c in zip(*rows))
        w = next(v for v, n in zip(invs, lcms) if n == M.order)
    except StopIteration:
        raise ConstructionError(f"no generating triple through x = {x} in {G!r}") from None
    gens = [G.element_from(e, M, u) for e, u in zip((1, 0, 0), (x, y, w))]
    if not generates(G, gens):
        raise ConstructionError(f"involutions {gens} do not generate {G!r}")
    return gens


class InvolutionClasses:
    """The conjugacy classes of involutions of G, each with a Schreier vector.

    The conjugation maps of a few generating involutions give the classes as
    orbits; one breadth-first search from each class's least member records
    the tree edge that first reached every member.  Every later step works
    with list lookups instead of group multiplications.
    """

    def __init__(self, G: GroupHandle):
        invs = G.involutions()
        self.position = {v: i for i, v in enumerate(invs)}
        self._centralizers: dict[int, list[list[int]]] = {}
        gens = self.conjugation_maps(G, G.involution_generators())
        self.classes: list[InvolutionClass] = []
        self.class_of: list[InvolutionClass | None] = [None] * len(invs)
        for rep in range(len(invs)):
            if self.class_of[rep] is not None:
                continue
            cls = InvolutionClass(rep, gens)
            self.class_of[rep] = cls
            for w in cls.members:
                for k, g in enumerate(gens):
                    u = g[w]
                    if self.class_of[u] is None:
                        self.class_of[u] = cls
                        cls.parent[u] = (w, k)
                        cls.members.append(u)
            self.classes.append(cls)

    def conjugation_maps(self, G: GroupHandle, ts: Iterable[int]) -> list[list[int]]:
        """For each t of ts, the position of t*u*t at the position of each involution u."""
        invs = G.involutions()
        return [[self.position[u] for u in G.conjugates(t, invs)] for t in ts]

    def centralizer_maps(self, G: GroupHandle, cls: InvolutionClass) -> list[list[int]]:
        """The conjugation maps of ``centralizer_generators(G, cls)``; built once, then kept."""
        if cls.rep not in self._centralizers:
            self._centralizers[cls.rep] = self.conjugation_maps(G, centralizer_generators(G, cls))
        return self._centralizers[cls.rep]


def _closure(G: GroupHandle, gens: Sequence[int]) -> set[int] | None:
    """Right-multiplication closure of the identity under gens, or None past |G|/2.

    No proper subgroup has more than |G|/2 elements, so then gens generate G.
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
                    if len(seen) > G.order // 2:
                        return None
        frontier = nxt
    return seen


def _dihedral_pair(G: GroupHandle, gens: Iterable[int]) -> tuple[int, int]:
    """(u, u*v) for the involutions u, v as given (v = u if left out), else a GroupError."""
    gens = dict.fromkeys(gens)
    if not 0 < len(gens) <= 2 or not all(G.is_involution(g) for g in gens):
        raise GroupError(f"not one or two involutions: {sorted(gens)}")
    u, *rest = gens
    return u, G.mul(u, rest[0] if rest else u)


def subgroup_closure(G: GroupHandle, gens: Iterable[int]) -> tuple[int, ...]:
    """The sorted members of the dihedral group <u, v> of one or two involutions.

    With r = u*v (v = u when left out), every word in u and v is r^k or
    r^k*u, so the 2|r| members are these for k < |r|: 2|r| products, where
    a breadth-first closure takes two per member.  Every cell stabilizer of
    a map is such a span.  Any other generator set raises a GroupError;
    ``generates`` closes those itself.
    """
    u, r = _dihedral_pair(G, gens)
    out = []
    power = G.identity
    while True:
        out += (power, G.mul(power, u))
        power = G.mul(power, r)
        if power == G.identity:
            return tuple(sorted(out))


def generates(G: GroupHandle, gens: Iterable[int]) -> bool:
    """True iff gens generate the whole group; the one generation test.

    Four checks, in order.  First, the order of each generator and the
    dihedral order 2|uv| of each pair of involution generators divide
    |<gens>|, so an lcm of |G| settles it.  Second, in ext, a pair of
    involutions with |uv| = m*p has uv = (e, g) with |g| = p and e a unit,
    so (uv)^p = (p*e, 1) generates all of Z_m; then gens generate G iff
    their matrix parts generate G/Z_m = PGL(2,p), which is tested there.
    Third, the lcm takes in the order of the word uvw of each unordered
    triple of involution generators, which divides |<gens>| as well.  All
    six orderings of u, v, w share it: vwu and wuv are conjugates of uvw,
    and wvu, uwv and vuw of its inverse.  In psl2 with p = 3 mod 4 no
    product of two involutions has order p, but one of three can.  Last,
    the closure: any proper subgroup has at most half the elements, so it
    stops as soon as it passes |G|/2.
    """
    gens = sorted(set(gens))
    if not gens:
        return False
    orders = [G.element_order(g) for g in gens]
    invs = [g for g, n in zip(gens, orders) if n == 2]
    pairs = [G.pair_order(u, v) for k, u in enumerate(invs) for v in invs[k + 1 :]]
    reached = math.lcm(*orders, *(n + n for n in pairs))
    if reached == G.order:
        return True
    if G.family == EXT and G.m * G.p in pairs:
        Gp = G.matrix_group
        return generates(Gp, [Gp.element_from(0, G, g) for g in gens])
    words = (G.pair_order(G.mul(u, v), w) for u, v, w in combinations(invs, 3))
    if math.lcm(reached, *words) == G.order:
        return True
    return _closure(G, gens) is None


def right_cosets(G: GroupHandle, gens: Iterable[int]) -> list[int]:
    """The right coset Hg of every element g as ids numbered by least member.

    H = <u, v> is the dihedral span of one or two involutions, taken as
    ``subgroup_closure`` takes them.  With r = u*v, H = <r> + <r>u, so Hg is
    two cycles of g -> r*g, the one through g and the one through u*g: one
    ``left_perm(r)``, then one product per coset.
    """
    u, r = _dihedral_pair(G, gens)
    left = G.left_perm(r)
    label = [-1] * G.order
    count = 0
    for g in range(G.order):
        # g is the least element not yet placed, hence the least of Hg
        if label[g] < 0:
            for w in (g, G.mul(u, g)):
                while label[w] < 0:
                    label[w] = count
                    w = left[w]
            count += 1
    return label


def conjugacy_class(G: GroupHandle, g: int) -> tuple[int, ...]:
    """The orbit of g under conjugation by the whole group.

    G is generated by the involutions behind ``G.conjugation_perms()``, so
    the orbit under their conjugation maps is the whole class.
    """
    perms = G.conjugation_perms()
    orbit, seen = [g], {g}
    for u in orbit:
        for perm in perms:
            w = perm[u]
            if w not in seen:
                seen.add(w)
                orbit.append(w)
    return tuple(sorted(orbit))


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
