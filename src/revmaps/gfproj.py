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
the three points a matrix sends to 0, infinity and 1 name it; their
``point_code`` ignores scale, so a product is named with no normalizing.
The bulk kernels work on whole lists of matrices from their entries, with
no ProjMatrix per result: ``preimage_points`` reads off each matrix those
three points, ``sandwich_products`` the codes of the products h*g*h, and
``psl_flags`` PSL(2,p) membership from a table of squares.  The points of
g*h are those of h moved by the action of g^-1 (``relabelling``): a left
product is a relabelling of points, with no matrix multiplied.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence


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


def proj_matrix(a: int, b: int, c: int, d: int, p: int) -> ProjMatrix:
    """Build the normalized projective class of [[a,b],[c,d]]; integer entries, invertible."""
    check_prime(p)
    if not all(isinstance(v, int) for v in (a, b, c, d)) or (a * d - b * c) % p == 0:
        raise GFProjError(f"{(a, b, c, d)} is no invertible integer matrix mod {p}")
    lead = next(v for v in (a, b, c, d) if v % p)
    s = _inv_table(p)[lead % p]
    return ProjMatrix(a * s % p, b * s % p, c * s % p, d * s % p, p)


def sandwich_products(h: ProjMatrix, mats: Sequence[ProjMatrix]) -> list[int]:
    """The ``point_code`` of h*g*h for every g in mats, with no ProjMatrix per product.

    For an involution h these are the conjugates of mats by h.
    """
    a, b, c, d, p = h
    out = []
    for e, f, g, k, _ in mats:
        r, s, t, w = a * e + b * g, a * f + b * k, c * e + d * g, c * f + d * k
        out.append(point_code(r * a + s * c, r * b + s * d, t * a + w * c, t * b + w * d, p))
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


def element_order(g: ProjMatrix) -> int:
    """Order of g as a projective class (smallest n >= 1 with g^n = I)."""
    return projective_order(*g)


def product_orders(mats: list[ProjMatrix]) -> Callable[[ProjMatrix], list[int]]:
    """The function g -> the orders of g * mats[y] for every y, as projective_order.

    One row at a time, on request, for any matrix g of the same p.  The
    products are never formed: each order comes from the trace, a dot
    product of the entries, and the determinant, a product of the factors'.
    """
    p = mats[0].p
    orders = _invariant_orders(p)
    inv = _inv_table(p)
    ents = [(a, b, c, d, inv[(a * d - b * c) % p]) for a, b, c, d, _ in mats]
    at: dict[ProjMatrix, list[int]] = {}
    for y, h in enumerate(mats):
        at.setdefault(h, []).append(y)

    def row(g: ProjMatrix) -> list[int]:
        a, b, c, d, _ = g
        w = inv[(a * d - b * c) % p]
        # the orders by tr^2 / det(mats[y]), with this row's 1/det folded in
        by = [orders[s * w % p] for s in range(p)]
        out = [by[(t := a * e + b * u + c * f + d * v) * t * k % p] for e, f, u, v, k in ents]
        for y in at.get(proj_matrix(d, -b, -c, a, p), ()):
            out[y] = 1  # a scalar product: mats[y] is g^-1, the adjugate normalized
        return out

    return row


def psl_flags(mats: Sequence[ProjMatrix]) -> bytes:
    """1 for each matrix of mats in PSL(2,p), else 0: whether det is a nonzero square mod p.

    Well defined on scalar classes: rescaling multiplies det by a square.
    """
    p = mats[0].p
    squares = bytearray(p)
    for x in range(1, p):
        squares[x * x % p] = 1
    return bytes([squares[(a * d - b * c) % p] for a, b, c, d, _ in mats])


def act(g: ProjMatrix, x: int) -> int:
    """Right action of g on a point index from ``all_points`` or ``range(p + 1)``.

    Satisfies act(g*h, x) == act(h, act(g, x)) for the matrix product g*h.
    """
    a, b, c, d, p = g
    if x == p:
        nu, nw = d, c % p
    else:
        nu, nw = d * x + b, (c * x + a) % p
    if nw == 0:
        return p
    return (nu * _inv_table(p)[nw]) % p


def fixed_points(g: ProjMatrix) -> tuple[int, ...]:
    return tuple(x for x in range(g.p + 1) if act(g, x) == x)


@lru_cache(maxsize=None)
def _neg_quotients(p: int) -> tuple[tuple[int, ...], ...]:
    """Row u, column w: the point index of -u/w mod p, or p (infinity) at w = 0."""
    inv = _inv_table(p)
    return tuple(tuple(-u * inv[w] % p if w else p for w in range(p)) for u in range(p))


def preimage_points(mats: Sequence[ProjMatrix]) -> tuple[array, array, array]:
    """The points each matrix sends to 0, to the point at infinity and to 1.

    Three array('H') of point indices, by position in mats.  Under ``act``,
    x^M = (d*x + b) / (c*x + a), so M sends -b/d to 0, -a/c to infinity and
    -(b - a)/(d - c) to 1, each the index p when its denominator is 0; all
    are read off one table of quotients, whose rows and columns a negative
    difference of entries indexes mod p.  PGL(2,p) acts sharply
    3-transitively on the line, so the three points tell the matrix apart
    from every other.
    """
    q = _neg_quotients(mats[0].p)
    return (
        array("H", [q[b][d] for _, b, _, d, _ in mats]),
        array("H", [q[a][c] for a, _, c, _, _ in mats]),
        array("H", [q[b - a][d - c] for a, b, c, d, _ in mats]),
    )


def point_code(a: int, b: int, c: int, d: int, p: int) -> int:
    """The code (t0*(p+1) + t1)*(p+1) + t2 of the points [[a, b], [c, d]] sends to 0, infinity, 1.

    t0, t1, t2 are as in ``preimage_points``; scaling leaves them, and the
    entries need not be reduced mod p.
    """
    q, n = _neg_quotients(p), p + 1
    return (q[b % p][d % p] * n + q[a % p][c % p]) * n + q[(b - a) % p][(d - c) % p]


def relabelling(g: ProjMatrix) -> tuple[list[int], list[int], list[int]]:
    """The action of g^-1 on the points, scaled to each digit of a point code.

    The action sends each point index y to the x with act(g, x) == y, read
    off the adjugate [[d, -b], [-c, a]]: y -> -(b - a*y)/(d - c*y), and
    infinity -> -a/c.  g*h sends to 0, infinity and 1 the points h sends
    there, moved by it, so for h's points t0, t1, t2 the ``point_code`` of
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


def all_matrices(p: int) -> list[ProjMatrix]:
    """All of PGL(2,p) as normalized matrices in ascending tuple order."""
    check_prime(p)
    # normalized classes have a = 0, b = 1 (det = -c) or a = 1 (det = d - bc),
    # in lex order; tuple.__new__ skips the named tuple's Python constructor
    new = tuple.__new__
    out = [new(ProjMatrix, (0, 1, c, d, p)) for c in range(1, p) for d in range(p)]
    out += [
        new(ProjMatrix, (1, b, c, d, p))
        for b in range(p)
        for c in range(p)
        for d in range(p)
        if (d - b * c) % p
    ]
    return out
