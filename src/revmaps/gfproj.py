"""Exact arithmetic on the projective line over F_p and in PGL(2,p).

A group element is a normalized 4-tuple ``ProjMatrix(a, b, c, d, p)`` standing
for the matrix [[a, b], [c, d]] over F_p up to scalars; the representative is
scaled so that the first nonzero entry in the order a, b, c, d equals 1, which
is unique for every scalar class.

A point of the projective line is a plain integer in [0, p]: an index k < p
encodes [k : 1] and the index p encodes [1 : 0].  The canonical point ordering
used by the constructions lists [0 : 1] first, then [1 : 0], then the
remaining affine points (see :func:`all_points`).

Matrices act on points on the right: ``act(g, act(h, x)) == act(mat_multiply(g, h), x)``
reversed, i.e. x^(gh) = (x^g)^h.  Concretely x^M = (d*x + b) / (c*x + a) on
affine points, the unique right action sending x to x+1 under [[1,1],[0,1]].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple


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

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def _normalized(a: int, b: int, c: int, d: int, p: int) -> ProjMatrix:
    a %= p
    b %= p
    c %= p
    d %= p
    inv = _inv_table(p)
    for lead in (a, b, c, d):
        if lead:
            s = inv[lead]
            return ProjMatrix((a * s) % p, (b * s) % p, (c * s) % p, (d * s) % p, p)
    raise GFProjError("zero matrix has no projective class")


def proj_matrix(a: int, b: int, c: int, d: int, p: int) -> ProjMatrix:
    """Build the normalized projective class of [[a,b],[c,d]]; must be invertible."""
    check_prime(p)
    m = _normalized(a, b, c, d, p)
    if m.det() == 0:
        raise GFProjError(f"singular matrix {(a, b, c, d)} mod {p}")
    return m


def mat_multiply(lhs: ProjMatrix, rhs: ProjMatrix) -> ProjMatrix:
    """Normalized product of two projective matrices over the same F_p."""
    if lhs.p != rhs.p:
        raise GFProjError(f"modulus mismatch: {lhs.p} vs {rhs.p}")
    a, b, c, d, p = lhs
    e, f, g, h, _ = rhs
    return _normalized(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, p)


def mat_inverse(m: ProjMatrix) -> ProjMatrix:
    # the adjugate is a scalar multiple of the inverse
    return _normalized(m.d, -m.b, -m.c, m.a, m.p)


@lru_cache(maxsize=None)
def _invariant_orders(p: int) -> tuple[int, ...]:
    """Orders of the non-scalar classes of PGL(2,p), indexed by s = tr^2/det.

    s is unchanged by scaling, and it fixes the order (Dickson, *Linear
    Groups*, 1901): a non-scalar matrix is conjugate to the companion matrix
    of its characteristic polynomial, so matrices with the same nonzero s are
    conjugate up to a scalar; at s = 0, M^2 = -det(M) I, so the order is 2.
    Each order is found by repeated multiplication of one representative:
    [[0, -1/s], [1, 1]] has trace 1 and determinant 1/s.
    """
    inv = _inv_table(p)
    reps = [_normalized(0, -1, 1, 0, p)] + [_normalized(0, -inv[s], 1, 1, p) for s in range(1, p)]
    ident = ProjMatrix(1, 0, 0, 1, p)
    orders = []
    for g in reps:
        n, acc = 1, g
        while acc != ident:
            acc = mat_multiply(acc, g)
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


def product_orders(mats: list[ProjMatrix]) -> Iterator[list[int]]:
    """Row x lists the orders of mats[x] * mats[y] for every y, as projective_order.

    The n^2 products are never formed: each order comes from the trace, a dot
    product of the entries, and the determinant, a product of the factors'.
    """
    p = mats[0].p
    orders = _invariant_orders(p)
    inv = _inv_table(p)
    ents = [(a, b, c, d, inv[(a * d - b * c) % p]) for a, b, c, d, _ in mats]
    at: dict[ProjMatrix, list[int]] = {}
    for y, g in enumerate(mats):
        at.setdefault(g, []).append(y)
    for g, (a, b, c, d, w) in zip(mats, ents):
        row = [orders[(a * e + b * u + c * f + d * v) ** 2 * w * k % p] for e, f, u, v, k in ents]
        for y in at.get(mat_inverse(g), ()):
            row[y] = 1  # a scalar product
        yield row


def in_psl(g: ProjMatrix) -> bool:
    """True iff det(g) is a nonzero square mod p.

    Well defined on scalar classes: rescaling multiplies the determinant by a
    square.
    """
    return pow(g.det(), (g.p - 1) // 2, g.p) == 1


def point_coords(x: int, p: int) -> tuple[int, int]:
    """Homogeneous pair (numerator, denominator) of a point index."""
    if not 0 <= x <= p:
        raise GFProjError(f"point index {x} out of range for p={p}")
    return (x, 1) if x < p else (1, 0)


def act(g: ProjMatrix, x: int) -> int:
    """Right action of g on a point of the projective line.

    Satisfies act(mat_multiply(g, h), x) == act(h, act(g, x)).
    """
    a, b, c, d, p = g
    u, w = point_coords(x, p)
    nu = (d * u + b * w) % p
    nw = (c * u + a * w) % p
    if nw == 0:
        return p
    return (nu * _inv_table(p)[nw]) % p


def fixed_points(g: ProjMatrix) -> tuple[int, ...]:
    return tuple(x for x in range(g.p + 1) if act(g, x) == x)


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
    out = []
    # normalized classes have a = 0, b = 1 or a = 1; generated in lex order
    for c in range(p):
        for d in range(p):
            if c:  # det = -c must be nonzero
                out.append(ProjMatrix(0, 1, c, d, p))
    for b in range(p):
        for c in range(p):
            for d in range(p):
                if (d - b * c) % p:
                    out.append(ProjMatrix(1, b, c, d, p))
    return out
