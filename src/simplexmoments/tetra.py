"""Exact even moments of the area of a random triangle in the tetrahedron.

Two sampling modes over the standard tetrahedron (vertices 0, e1, e2, e3):
three independent uniform vertices (the "free" case) and two uniform
vertices joined to the centroid (1/3, 1/3, 1/3) (the "fixed-centroid"
case).

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

Moment tables are checkpointed to JSON, so a table is computed once and
then shared and extended.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .errors import CapacityError, UsageError, VerificationError, _count
from .exact import _mul_ints, format_rational, parse_rational

__all__ = [
    "FREE_KMAX_LIMIT",
    "FIXED_KMAX_LIMIT",
    "MomentTable",
    "even_moment",
    "moment_table",
]

CASE_FREE = "free"
CASE_FIXED = "fixed-centroid"

# Orders beyond these make the expansion (and, for the free case, the
# coupled triple integrals) grow combinatorially; they are deliberate
# resource guards, not mathematical limits.
FREE_KMAX_LIMIT = 9
FIXED_KMAX_LIMIT = 16

_fact = lru_cache(maxsize=None)(math.factorial)


def _normalize_case(case: str) -> str:
    if case == CASE_FREE:
        return CASE_FREE
    if case in (CASE_FIXED, "fixed"):
        return CASE_FIXED
    raise UsageError(
        "case must be %r or %r, got %r" % (CASE_FREE, CASE_FIXED, case)
    )


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


def _even_moment(case: str, k: int) -> Fraction:
    """E V^(2k) = 4^(-k) E D^k by Lagrange's identity D = |u|^2 |v|^2 - (u.v)^2:

    E D^k = sum_j (-1)^j C(k,j) sum_(|alpha|=2j) C(2j; alpha) J(alpha, k-j),
    J(alpha, m) = sum_(|beta|=|gamma|=m) C(m; beta) C(m; gamma)
                  E u^(alpha+2 beta) v^(alpha+2 gamma).

    Every joint moment in J has degree 2k in u and in v, so all of them
    share one denominator; only J depends on the case. The prefactor is the
    uniform density 3! of T3 once for each random point integrated: two when
    a vertex is pinned, three when all are free.
    """
    if case == CASE_FIXED:
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


def _check_capacity(case: str, k: int) -> None:
    cap = FREE_KMAX_LIMIT if case == CASE_FREE else FIXED_KMAX_LIMIT
    if k > cap:
        # nothing here grows with k, so a refusal of any k ends at once
        raise CapacityError(
            "even moment of order 2k=%d for case %r exceeds the capacity limit k<=%d "
            "(free k<=%d, fixed-centroid k<=%d)"
            % (2 * k, case, cap, FREE_KMAX_LIMIT, FIXED_KMAX_LIMIT)
        )


def even_moment(case: str, k: int) -> Fraction:
    """Exact E V^(2k) for the requested case.

    Orders beyond the per-case capacity guard (FREE_KMAX_LIMIT or
    FIXED_KMAX_LIMIT) raise CapacityError, naming the limits, instead of
    silently running for hours.
    """
    _count(k, "moment half-order k", 0)
    case = _normalize_case(case)
    _check_capacity(case, k)
    return _even_moment(case, k)


# ---------------------------------------------------------------------------
# moment tables with checkpointing


class MomentTable(NamedTuple):
    """Exact even-moment table: ``values[k]`` is mu_(2k) for k = 0 .. k_max."""

    case: str
    values: Tuple[Fraction, ...]

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def upto(self, k: int) -> Tuple[Fraction, ...]:
        """mu_0 .. mu_(2k); a CapacityError when the table stops short of k."""
        _count(k, "moment half-order k", 0)
        if k > self.k_max:
            raise CapacityError("the %s moment table reaches k=%d but k=%d is needed (moments "
                                "through order %d)" % (self.case, self.k_max, k, 2 * k))
        return self.values[: k + 1]

    def value(self, k: int) -> Fraction:
        return self.upto(k)[k]

    def check(self) -> None:
        """mu_0 = 1, then positivity and strict decrease of the stored moments."""
        if not self.values or self.values[0] != 1:
            raise VerificationError("moment table must start with mu_0 = 1")
        for k in range(1, len(self.values)):
            cur = self.values[k]
            if not cur > 0:
                raise VerificationError("mu_%d is not positive" % (2 * k,))
            if not cur < self.values[k - 1]:
                raise VerificationError(
                    "mu_%d does not decrease below mu_%d" % (2 * k, 2 * (k - 1))
                )

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "entries": [
                {"k": k, "value": format_rational(v)} for k, v in enumerate(self.values)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MomentTable":
        """The table in its stored form: every order k appears at most once,
        and a gap in the orders 0 .. k_max is a VerificationError."""
        case = _normalize_case(data["case"])
        values = {}
        for item in data["entries"]:
            k = item["k"]
            if type(k) is not int or k < 0:
                raise ValueError("order k=%r is not a nonnegative integer" % (k,))
            if k in values:
                raise ValueError("order k=%d is listed twice" % k)
            values[k] = parse_rational(item["value"])
        for k in range(len(values)):
            if k not in values:
                raise VerificationError("moment table is missing k=%d" % k)
        return cls(case, tuple(values[k] for k in range(len(values))))


def _digest(data: bytes) -> str:
    """The report form of a file's digest."""
    # imported here: hashlib loads OpenSSL, about 4 ms, which importing
    # the tables alone need not pay
    import hashlib

    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_table(path: str, case: str) -> Tuple[MomentTable, str]:
    """The checked table stored at ``path``, which must hold ``case``, and
    the digest of the bytes it was parsed from.

    A file that cannot be read or parsed as a moment table is a UsageError,
    and one with a gap in its orders or failing ``check`` a
    VerificationError, each naming the path.
    """
    try:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            table = MomentTable.from_json(json.loads(data.decode("utf-8")))
        except (OSError, ValueError, LookupError, TypeError, UsageError) as exc:
            raise UsageError(
                "cannot read moment table %s: %s: %s" % (path, type(exc).__name__, exc)
            ) from None
        if table.case != case:
            raise UsageError("table %s holds case %r, expected %r" % (path, table.case, case))
        table.check()
    except VerificationError as exc:
        raise VerificationError("moment table %s: %s" % (path, exc)) from None
    return table, _digest(data)


def _write_checkpoint(path: str, table: MomentTable) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(table.to_json(), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def moment_table(
    case: str,
    k_max: int,
    checkpoint: Optional[str] = None,
    stored: Optional[MomentTable] = None,
) -> MomentTable:
    """Moments mu_(2k) for k = 0 .. k_max as one validated table.

    With ``checkpoint`` set, the orders already in that JSON file are
    reused, and when the table stops short of k_max the extended table is
    written back once, after the last order is computed.  A caller that has
    already read the file passes its table as ``stored``, so the file is not
    parsed twice.  A stored table holds every order up to its end, so only later ones are added.
    """
    _count(k_max, "k_max", 0)
    case = _normalize_case(case)
    if stored is None and checkpoint and os.path.exists(checkpoint):
        stored, _ = _read_table(checkpoint, case)
    if stored is not None and stored.case != case:
        raise UsageError("stored table holds case %r, expected %r" % (stored.case, case))
    values = stored.values if stored else ()
    missing = range(len(values), k_max + 1)
    if missing:
        # refuse before computing anything; checkpointed orders may exceed it
        _check_capacity(case, k_max)
        values += tuple(even_moment(case, k) for k in missing)
    table = MomentTable(case, values)
    table.check()
    if missing and checkpoint:
        _write_checkpoint(checkpoint, table)
    return MomentTable(case, values[: k_max + 1])
