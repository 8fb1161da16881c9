"""Exact arithmetic on the projective line over F_p and in PGL(2,p).

A group element is a normalized 4-tuple ``ProjMatrix(a, b, c, d, p)`` standing
for the matrix [[a, b], [c, d]] over F_p up to scalars; the representative is
scaled so that the first nonzero entry in the order a, b, c, d equals 1, which
is unique for every scalar class.

A point of the projective line is a plain integer in [0, p]: an index k < p
encodes [k : 1] and the index p encodes [1 : 0].  The canonical point ordering
used by the constructions lists [0 : 1] first, then [1 : 0], then the
remaining affine points (see :func:`all_points`).

Matrices act on points on the right, x^(gh) = (x^g)^h, so ``act(h, act(g, x))``
is the action of the product g*h: x^M = (d*x + b) / (c*x + a) on affine points,
the unique right action sending x to x+1 under [[1,1],[0,1]].  Only
``proj_matrix`` normalizes a matrix from its entries.

The action is sharply 3-transitive (Dickson, *Linear Groups*, 1901), so
the three points a matrix sends to 0, infinity and 1 name it; their code
(``point_coder``) ignores scale, so a product is named with no
normalizing.  ``all_matrices`` lists PGL(2,p) not as ProjMatrix objects but as four
``Columns``, array('H') of the entries a, b, c and d, whose k-th entries are
the k-th normalized matrix in ascending tuple order; ``psl_matrices`` lists
PSL(2,p) alike, by its determinants, with no PGL(2,p) built; both flag
each matrix in PSL(2,p).  The bulk kernels read entries, with no ProjMatrix
per matrix or per result: ``preimage_points`` reads off each matrix of the
columns those three points, and ``sandwich_products`` the codes of the
products h*g*h.  The points of g*h are those of h moved by the
action of g^-1 (``relabelling``): a left product is a relabelling of
points, with no matrix multiplied.  The one-matrix kernels (``act``,
``relabelling``, ``product_orders``) take any 5-tuple (a, b, c, d, p), of
which ProjMatrix is one.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence


class GFProjError(ValueError):
    """Raised for invalid field/projective data (bad prime, singular matrix...)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Validate the field characteristic: an odd prime p >= 5."""
    if not isinstance(p, int) or not is_prime(p) or p < 5:
        raise GFProjError(f"modulus must be a prime >= 5, got {p!r}")


@lru_cache(maxsize=None)
def _inv_table(p: int) -> tuple[int, ...]:
    # inverses mod p, index 0 unused
    return (0,) + tuple(pow(v, p - 2, p) for v in range(1, p))


class ProjMatrix(NamedTuple):
    a: int
    b: int
    c: int
    d: int
    p: int


# the entries a, b, c, d of a list of matrices, one array('H') each, by position
Columns = tuple[array, array, array, array]


def proj_matrix(a: int, b: int, c: int, d: int, p: int) -> ProjMatrix:
    """Build the normalized projective class of [[a,b],[c,d]]; integer entries, invertible.

    An entry must be an int proper: a bool, which isinstance counts as one, is refused.
    """
    check_prime(p)
    if not all(type(v) is int for v in (a, b, c, d)) or (a * d - b * c) % p == 0:
        raise GFProjError(f"{(a, b, c, d)} is no invertible integer matrix mod {p}")
    lead = next(v for v in (a, b, c, d) if v % p)
    s = _inv_table(p)[lead % p]
    return ProjMatrix(a * s % p, b * s % p, c * s % p, d * s % p, p)


def sandwich_products(h: Sequence[int], cols: Columns, at: Iterable[int]) -> list[int]:
    """The point code of h*g*h for the matrix g at each position of at in cols, with none built.

    h is (a, b, c, d, p).  For an involution h these are the conjugates by h.
    """
    a, b, c, d, p = h
    A, B, C, D = cols
    code = point_coder(p)
    out = []
    for x in at:
        e, f, g, k = A[x], B[x], C[x], D[x]
        r, s, t, w = a * e + b * g, a * f + b * k, c * e + d * g, c * f + d * k
        out.append(code(r * a + s * c, r * b + s * d, t * a + w * c, t * b + w * d))
    return out


@lru_cache(maxsize=None)
def _invariant_orders(p: int) -> tuple[int, ...]:
    """Orders of the non-scalar classes of PGL(2,p), indexed by s = tr^2/det.

    s is unchanged by scaling, and it fixes the order (Dickson, *Linear
    Groups*, 1901): a non-scalar matrix is conjugate to the companion matrix
    of its characteristic polynomial, so matrices with the same nonzero s are
    conjugate up to a scalar; at s = 0, M^2 = -det(M) I, so the order is 2.
    By Cayley-Hamilton, M of trace t and determinant d has M^n = U_n M -
    d U_(n-1) I for the Lucas sequence U_0 = 0, U_1 = 1, U_(n+1) = t U_n -
    d U_(n-1), so the order is the least n >= 1 with U_n = 0 mod p, with no
    matrix multiplied: s takes t = 1, d = 1/s, and s = 0 takes t = 0, d = 1.
    """
    inv = _inv_table(p)
    orders = []
    for t, d in [(0, 1)] + [(1, inv[s]) for s in range(1, p)]:
        n, u, prev = 1, 1, 0
        while u:
            u, prev = (t * u - d * prev) % p, u
            n += 1
        orders.append(n)
    return tuple(orders)


def projective_order(a: int, b: int, c: int, d: int, p: int) -> int:
    """Order in PGL(2,p) of the class of the invertible matrix [[a, b], [c, d]].

    The entries need not be normalized or reduced mod p.  A scalar matrix has
    order 1; any other has the order of its invariant tr^2/det (where s = 4
    gives the unipotent order p).
    """
    if (a - d) % p == 0 and b % p == 0 and c % p == 0:
        return 1
    return _invariant_orders(p)[(a + d) ** 2 * _inv_table(p)[(a * d - b * c) % p] % p]


def product_orders(mats: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], list[int]]:
    """The function g -> the orders of g * mats[y] for every y, as projective_order.

    One row at a time, on request, for any matrix g of the same p.  The
    products are never formed: each order comes from the trace, a dot
    product of the entries, and the determinant, a product of the factors'.
    """
    p = mats[0][4]
    orders = _invariant_orders(p)
    inv = _inv_table(p)
    ents = [(a, b, c, d, inv[(a * d - b * c) % p]) for a, b, c, d, _ in mats]
    at: dict[Sequence[int], list[int]] = {}
    for y, h in enumerate(mats):
        at.setdefault(h, []).append(y)

    def row(g: Sequence[int]) -> list[int]:
        a, b, c, d, _ = g
        w = inv[(a * d - b * c) % p]
        # the orders by tr^2 / det(mats[y]), with this row's 1/det folded in
        by = [orders[s * w % p] for s in range(p)]
        out = [by[(t := a * e + b * u + c * f + d * v) * t * k % p] for e, f, u, v, k in ents]
        for y in at.get(proj_matrix(d, -b, -c, a, p), ()):
            out[y] = 1  # a scalar product: mats[y] is g^-1, the adjugate normalized
        return out

    return row


def _squares(p: int) -> bytearray:
    """1 at each nonzero square mod p, else 0."""
    squares = bytearray(p)
    for x in range(1, p):
        squares[x * x % p] = 1
    return squares


def act(g: Sequence[int], x: int) -> int:
    """Right action of g = (a, b, c, d, p) on a point index from ``all_points`` or ``range(p + 1)``.

    Satisfies act(g*h, x) == act(h, act(g, x)) for the matrix product g*h.
    """
    a, b, c, d, p = g
    q = _neg_quotients(p)  # q[u][w] = -u/w, so (d*x + b)/(c*x + a) is q[-(d*x + b)][c*x + a]
    return q[-d % p][c % p] if x == p else q[-(d * x + b) % p][(c * x + a) % p]


def fixed_points(g: ProjMatrix) -> tuple[int, ...]:
    return tuple(x for x in range(g.p + 1) if act(g, x) == x)


@lru_cache(maxsize=None)
def _neg_quotients(p: int) -> tuple[tuple[int, ...], ...]:
    """Row u, column w: the point index of -u/w mod p, or p (infinity) at w = 0."""
    inv = _inv_table(p)
    return tuple(tuple(-u * inv[w] % p if w else p for w in range(p)) for u in range(p))


def preimage_points(cols: Columns, p: int) -> tuple[array, array, array]:
    """The points each matrix of the columns sends to 0, to the point at infinity and to 1.

    Three array('H') of point indices, by position in the columns.  Under
    ``act``, x^M = (d*x + b) / (c*x + a), so M sends -b/d to 0, -a/c to
    infinity and -(b - a)/(d - c) to 1, each the index p when its
    denominator is 0; all are read off one table of quotients, whose rows
    and columns a negative difference of entries indexes mod p.  PGL(2,p)
    acts sharply 3-transitively on the line, so the three points tell the
    matrix apart from every other.
    """
    q = _neg_quotients(p)
    a, b, c, d = cols
    return (
        array("H", [q[y][w] for y, w in zip(b, d)]),
        array("H", [q[x][z] for x, z in zip(a, c)]),
        array("H", [q[y - x][w - z] for x, y, z, w in zip(*cols)]),
    )


@lru_cache(maxsize=None)
def point_coder(p: int) -> Callable[[int, int, int, int], int]:
    """The point code over F_p: (a, b, c, d) -> (t0*(p+1) + t1)*(p+1) + t2.

    t0, t1, t2 are the points [[a, b], [c, d]] sends to 0, infinity and 1,
    as in ``preimage_points``; scaling leaves them, and the entries need not
    be reduced mod p.  The table is bound once per p, as the kernels name
    one product per call.
    """
    q, n = _neg_quotients(p), p + 1

    def code(a: int, b: int, c: int, d: int) -> int:
        return (q[b % p][d % p] * n + q[a % p][c % p]) * n + q[(b - a) % p][(d - c) % p]

    return code


def relabelling(g: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The action of g^-1 on the points, scaled to each digit of a point code; g is (a, b, c, d, p).

    The action sends each point index y to the x with act(g, x) == y, read
    off the adjugate [[d, -b], [-c, a]]: y -> -(b - a*y)/(d - c*y), and
    infinity -> -a/c.  g*h sends to 0, infinity and 1 the points h sends
    there, moved by it, so for h's points t0, t1, t2 the point code of
    g*h is r0[t0] + r1[t1] + r2[t2], with (r0, r1, r2) returned here.
    """
    a, b, c, d, p = g
    q, n = _neg_quotients(p), p + 1
    perm = [q[(b - a * y) % p][(d - c * y) % p] for y in range(p)] + [q[a][c]]
    return [t * n * n for t in perm], [t * n for t in perm], perm


def all_points(p: int) -> tuple[int, ...]:
    """The p+1 projective points in canonical order.

    Position 0 is [0 : 1], position 1 is [1 : 0], and position k for k >= 2 is
    the affine point [k-1 : 1].
    """
    check_prime(p)
    return (0, p) + tuple(range(1, p))


def _matrices(p: int, dets: bytes) -> tuple[Columns, bytes]:
    """The ``Columns`` of the normalized matrices whose det r has dets[r], ascending, and PSL flags.

    Normalized classes have a = 0, b = 1 (det = -c) or a = 1 (det = d - bc),
    listed here in that lex order, with no matrix built.  With a = 1, each
    allowed determinant r gives one d = r + t for t = bc, so every (b, c)
    takes the k d's of one sorted row per residue t, and with a = 0 the k
    allowed c take every d.  A matrix's flag, squares[det], is 1 iff it lies
    in PSL(2,p); the flags follow the same blocks, one row per row of d's.
    """
    squares = _squares(p)
    line = array("H", range(p))
    rows = [array("H", [y for y in line if dets[(y - t) % p]]) for t in line]
    flag_rows = [bytes([squares[(y - t) % p] for y in row]) for t, row in enumerate(rows)]
    k = len(rows[0])
    # a = 0: c with -c allowed, and any d
    cs = array("H", [x for x in line if dets[-x % p]])
    a, b = array("H", [0]) * (k * p), array("H", [1]) * (k * p)
    c, d = array("H", [x for x in cs for _ in line]), line * k
    psl = bytearray([squares[-x % p] for x in cs for _ in line])
    # a = 1: any b and c, and the d's of residue bc
    a += array("H", [1]) * (k * p * p)
    c += array("H", [x for x in line for _ in range(k)]) * p
    for x in line:
        b += array("H", [x]) * (k * p)
        for y in line:
            d += rows[x * y % p]
            psl += flag_rows[x * y % p]
    return (a, b, c, d), bytes(psl)


def all_matrices(p: int) -> tuple[Columns, bytes]:
    """All of PGL(2,p) as the ``Columns`` of its normalized matrices, ascending, and PSL flags.

    The k-th entries of the four arrays are the entries a, b, c, d of the
    k-th matrix, and the k-th flag is 1 iff that matrix lies in PSL(2,p).
    """
    check_prime(p)
    return _matrices(p, b"\0" + b"\1" * (p - 1))


def psl_matrices(p: int) -> tuple[Columns, bytes]:
    """PSL(2,p) as the ``Columns`` of its normalized matrices, in the order of ``all_matrices``.

    PSL(2,p) is the classes whose determinant is a nonzero square, which
    rescaling keeps (Dickson, *Linear Groups*, 1901), so its flags are all 1.
    """
    check_prime(p)
    return _matrices(p, _squares(p))
