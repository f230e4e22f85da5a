"""The expansion engine behind ``tetra.even_moment``.

For a triangle with edge vectors u and v from a common corner, four times
the squared area is given by Lagrange's identity,

    D = |u|^2 |v|^2 - (u . v)^2,

so E V^(2k) = 4^(-k) E D^k needs no square root, and the mean of a
coordinate monomial over the tetrahedron is Dirichlet's factorial ratio.
Both cases expand D^k the same way (binomially in D, multinomially in
(u . v)^(2j), |u|^2 and |v|^2) into joint moments E u^e v^f with
|e| = |f| = 2k, summed in integers over one common denominator.  Only the
joint moment depends on the case: with the centroid pinned, u and v are
independent; in the free case the coupled triple integral factors by
coordinate up to a two-variable generating polynomial.  Both integrals are
products of integer coefficient lists: of falling-factorial rows when
pinned, and of the generating polynomials flattened to one variable when
free.  The test suite keeps the full expansion of D^k, the older six-slot
decomposition and direct loops for both integrals as oracles.

``tetra._even_moment`` is the one place that imports this module, so
reading and checking stored tables never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .exact import _mul_ints

_fact = lru_cache(maxsize=None)(math.factorial)


# ---------------------------------------------------------------------------
# Dirichlet integrals as products of integer coefficient lists


@lru_cache(maxsize=None)
def _centered_integral_num(e: Tuple[int, int, int]) -> int:
    """Numerator of the tetrahedron integral of prod_a (w_a - 1/3)^e_a.

    The value of the integral is the returned integer divided by
    3^|e| (|e|+3)!.  Expanding (3 w_a - 1)^e_a binomially and integrating
    w^s by Dirichlet's formula gives
    sum_s (-1)^(|e|-s) 3^s (|e|+3)!/(s+3)! [z^s] prod_a F_(e_a)(z), with the
    falling-factorial rows F_n(z) = sum_j n!/(n-j)! z^j.  Symmetric in the
    entries of e, so callers should pass a sorted tuple to share cache
    entries.
    """
    d = sum(e)
    rows = [[_fact(n) // _fact(n - j) for j in range(n + 1)] for n in e]
    coeffs = _mul_ints(_mul_ints(rows[0], rows[1]), rows[2])
    return sum(
        (-1) ** (d - s) * 3**s * (_fact(d + 3) // _fact(s + 3)) * c
        for s, c in enumerate(coeffs)
    )


def _multinomials(n: int):
    """Every a in N^3 with |a| = n, paired with n! / (a_0! a_1! a_2!)."""
    for a0 in range(n + 1):
        for a1 in range(n - a0 + 1):
            a2 = n - a0 - a1
            yield (a0, a1, a2), _fact(n) // (_fact(a0) * _fact(a1) * _fact(a2))


@lru_cache(maxsize=None)
def _pair_integral_num(cols: Tuple[Tuple[int, int], ...]) -> int:
    """Numerator of the triple-tetrahedron integral of
    prod_a (X1 - X0)_a^e_a (X2 - X0)_a^f_a, for cols = ((e_a, f_a))_a.

    The value is the returned integer divided by
    (|e|+3)! (|f|+3)! (|e|+|f|+3)!.  Expand both differences binomially and
    let r and s be the powers of X0 taken from the first and the second;
    integrating X1 and X2 leaves X0^(r+s) weighted by
    prod_a e_a!/r_a! f_a!/s_a!, so the integral is
    e! f! sum_(m,n) (-1)^(m+n) T(m,n) / ((|e|-m+3)! (|f|-n+3)! (m+n+3)!),
    where T(m,n) is the x^m y^n coefficient of prod_a P_(e_a,f_a)(x, y)
    and P_(p,q) = sum_(r<=p, s<=q) C(r+s, r) x^r y^s.

    The product runs on flat integer lists by the substitution
    x^m y^n -> z^(m w + n) with w = |f| + 1: the product has y-degree |f| < w,
    so no two of its monomials land on one power of z, and
    (m, n) = divmod(i, w) reads the coefficient of z^i back.
    """
    de, df = (sum(c) for c in zip(*cols))
    w = df + 1
    rows = [[0] * (p * w + q + 1) for p, q in cols]
    for row, (p, q) in zip(rows, cols):
        for r in range(p + 1):
            for s in range(q + 1):
                row[r * w + s] = math.comb(r + s, r)
    total = 0
    for i, c in enumerate(_mul_ints(_mul_ints(rows[0], rows[1]), rows[2])):
        if c:
            m, n = divmod(i, w)
            c *= (_fact(de + 3) // _fact(de - m + 3)) * (_fact(df + 3) // _fact(df - n + 3))
            total += (-1) ** (m + n) * c * (_fact(de + df + 3) // _fact(m + n + 3))
    for p, q in cols:
        total *= _fact(p) * _fact(q)
    return total


def _pair_num(e: Tuple[int, int, int], f: Tuple[int, int, int]) -> int:
    # the integral is invariant under simultaneous coordinate permutations
    # and under swapping the two difference vectors
    return _pair_integral_num(min(tuple(sorted(zip(e, f))), tuple(sorted(zip(f, e)))))


@lru_cache(maxsize=None)
def _joint_fixed(alpha: Tuple[int, int, int], m: int) -> int:
    # u and v are independent copies, so the (beta, gamma) sum is the square
    # of E |u|^(2m) u^alpha, over the denominator of _centered_integral_num
    return sum(
        c * _centered_integral_num(tuple(sorted(a + 2 * b for a, b in zip(alpha, beta))))
        for beta, c in _multinomials(m)
    ) ** 2


@lru_cache(maxsize=None)
def _joint_free(alpha: Tuple[int, int, int], m: int) -> int:
    # all three points are coupled: one pair integral per (beta, gamma)
    shifted = [
        (c, tuple(a + 2 * b for a, b in zip(alpha, beta)))
        for beta, c in _multinomials(m)
    ]
    return sum(cb * cg * _pair_num(e, f) for cb, e in shifted for cg, f in shifted)


def even_moment(pinned: bool, k: int) -> Fraction:
    """E V^(2k) = 4^(-k) E D^k by Lagrange's identity D = |u|^2 |v|^2 - (u.v)^2,
    with the centroid pinned or all three vertices free:

    E D^k = sum_j (-1)^j C(k,j) sum_(|alpha|=2j) C(2j; alpha) J(alpha, k-j),
    J(alpha, m) = sum_(|beta|=|gamma|=m) C(m; beta) C(m; gamma)
                  E u^(alpha+2 beta) v^(alpha+2 gamma).

    Every joint moment in J has degree 2k in u and in v, so all of them
    share one denominator; only J depends on the case. The prefactor is the
    uniform density 3! of T3 once for each random point integrated: two when
    a vertex is pinned, three when all are free.
    """
    if pinned:
        joint, points = _joint_fixed, 2
        den = (3 ** (2 * k) * _fact(2 * k + 3)) ** 2
    else:
        joint, points = _joint_free, 3
        den = _fact(2 * k + 3) ** 2 * _fact(4 * k + 3)
    acc = 0
    for j in range(k + 1):
        inner = sum(c * joint(tuple(sorted(alpha)), k - j) for alpha, c in _multinomials(2 * j))
        acc += (-1) ** j * math.comb(k, j) * inner
    return Fraction(_fact(3) ** points, 4**k) * Fraction(acc, den)
