"""Exact even moments of the area of a random triangle in the tetrahedron.

Two sampling modes over the standard tetrahedron (vertices 0, e1, e2, e3):
three independent uniform vertices (the "free" case) and two uniform
vertices joined to the centroid (1/3, 1/3, 1/3) (the "fixed-centroid"
case).

For a triangle with edge vectors u and v from a common corner, four times
the squared area is the Gram determinant

    D = |u|^2 |v|^2 - (u . v)^2,

a degree-four polynomial in the point coordinates.  Even moments therefore
need no square root: E V^(2k) is 2^(-2k) times the mean of D^k, and the
mean of any coordinate monomial over the tetrahedron is an explicit
factorial ratio.

Direct expansion of D^k is only feasible for tiny k; the test suite keeps
it as an independent oracle.  The production route decomposes D into six
slots,

    D = sum_a u_a^2 (|v|^2 - v_a^2) - 2 sum_{a<b} (u_a v_a)(u_b v_b),

and applies the multinomial theorem over the slots.  A slot pattern fixes
the u-exponent vector outright, and the diagonal factors (|v|^2 - v_a^2)
expand through three short binomial sums, so every pattern yields a small
family of split monomials u^e v^f with known integer weights.  The
expectation of u^e v^f is then a factorial convolution: in the
fixed-centroid case u and v are independent and it factors into two
single-point integrals, while the free case couples all three points in
one triple integral.  All accumulation happens in arbitrary-precision
integers over a common denominator; one rational prefactor is applied at
the end.

Moment tables can be checkpointed to JSON after every order so that the
long fixed-centroid runs are restartable and shareable.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .errors import CapacityError, UsageError, VerificationError
from .exact import format_rational, parse_rational

__all__ = [
    "FREE_KMAX_LIMIT",
    "FIXED_KMAX_LIMIT",
    "MomentTable",
    "even_moment",
    "moment_table",
]

CASE_FREE = "free"
CASE_FIXED = "fixed-centroid"

# Orders beyond these make the slot expansion (and, for the free case, the
# coupled triple integrals) grow combinatorially; they are deliberate
# resource guards, not mathematical limits.
FREE_KMAX_LIMIT = 9
FIXED_KMAX_LIMIT = 16

_FACT = [math.factorial(i) for i in range(4 * FIXED_KMAX_LIMIT + 12)]


def _fact(n: int) -> int:
    while len(_FACT) <= n:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]


def _normalize_case(case: str) -> str:
    if case == CASE_FREE:
        return CASE_FREE
    if case in (CASE_FIXED, "fixed"):
        return CASE_FIXED
    raise UsageError(
        "case must be %r or %r, got %r" % (CASE_FREE, CASE_FIXED, case)
    )


# ---------------------------------------------------------------------------
# factorial-convolution integrals


@lru_cache(maxsize=None)
def _centered_integral_num(e: Tuple[int, int, int]) -> int:
    """Numerator of the tetrahedron integral of prod_a (w_a - 1/3)^e_a.

    The value of the integral is the returned integer divided by
    3^|e| (|e|+3)!.  Symmetric in the entries of e, so callers should pass
    a sorted tuple to share cache entries.
    """
    d = sum(e)
    total = 0
    for s0 in range(e[0] + 1):
        for s1 in range(e[1] + 1):
            for s2 in range(e[2] + 1):
                ds = s0 + s1 + s2
                sign = -1 if (d - ds) % 2 else 1
                total += (
                    sign
                    * math.comb(e[0], s0)
                    * math.comb(e[1], s1)
                    * math.comb(e[2], s2)
                    * 3**ds
                    * _fact(s0)
                    * _fact(s1)
                    * _fact(s2)
                    * (_fact(d + 3) // _fact(ds + 3))
                )
    return total


def _centered_num(e: Tuple[int, int, int]) -> int:
    return _centered_integral_num(tuple(sorted(e)))


@lru_cache(maxsize=None)
def _edge_pair_integral_num(e: Tuple[int, int, int], f: Tuple[int, int, int]) -> int:
    """Numerator of the triple-tetrahedron integral of
    prod_a (X1 - X0)_a^e_a (X2 - X0)_a^f_a.

    The value is the returned integer divided by
    (|e|+3)! (|f|+3)! (|e|+|f|+3)!.  Both difference factors expand
    binomially in the X0 coordinates; the three points then integrate
    independently as factorial ratios.
    """
    de, df = sum(e), sum(f)
    total = 0
    for i in itertools.product(*(range(a + 1) for a in e)):
        di = sum(i)
        ci = (
            math.comb(e[0], i[0])
            * math.comb(e[1], i[1])
            * math.comb(e[2], i[2])
            * _fact(i[0])
            * _fact(i[1])
            * _fact(i[2])
            * (_fact(de + 3) // _fact(di + 3))
        )
        si = (de - di) % 2
        rest = (e[0] - i[0], e[1] - i[1], e[2] - i[2])
        for j in itertools.product(*(range(b + 1) for b in f)):
            dj = sum(j)
            cj = (
                math.comb(f[0], j[0])
                * math.comb(f[1], j[1])
                * math.comb(f[2], j[2])
                * _fact(j[0])
                * _fact(j[1])
                * _fact(j[2])
                * (_fact(df + 3) // _fact(dj + 3))
            )
            g0 = rest[0] + f[0] - j[0]
            g1 = rest[1] + f[1] - j[1]
            g2 = rest[2] + f[2] - j[2]
            dg = g0 + g1 + g2
            cg = (
                _fact(g0)
                * _fact(g1)
                * _fact(g2)
                * (_fact(de + df + 3) // _fact(dg + 3))
            )
            sign = -1 if (si + (df - dj)) % 2 else 1
            total += sign * ci * cj * cg
    return total


def _edge_pair_num(e: Tuple[int, int, int], f: Tuple[int, int, int]) -> int:
    # the integral is invariant under simultaneous coordinate permutations
    # and under swapping the two difference vectors; canonicalize so the
    # cache sees one representative per orbit
    best = None
    for perm in itertools.permutations((0, 1, 2)):
        pe = tuple(e[q] for q in perm)
        pf = tuple(f[q] for q in perm)
        for key in (pe + pf, pf + pe):
            if best is None or key < best:
                best = key
    return _edge_pair_integral_num(best[:3], best[3:])


# ---------------------------------------------------------------------------
# slot-decomposition moment engine


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _slot_patterns(k: int):
    """Multinomial patterns over the six slots of the Gram decomposition.

    Yields (weight, diag, e_u, g) where weight is the signed integer
    multiplier, diag = (k11, k22, k33) counts the diagonal slots, e_u is
    the complete u-exponent vector, and g is the off-diagonal part of the
    v-exponent vector (the diagonal v-part still needs the binomial sums).
    """
    for kap in _compositions(k, 6):
        k11, k22, k33, k12, k13, k23 = kap
        off = k12 + k13 + k23
        mult = _fact(k) // (
            _fact(k11) * _fact(k22) * _fact(k33) * _fact(k12) * _fact(k13) * _fact(k23)
        )
        weight = mult * (-2) ** off
        e_u = (2 * k11 + k12 + k13, 2 * k22 + k12 + k23, 2 * k33 + k13 + k23)
        g = (k12 + k13, k12 + k23, k13 + k23)
        yield weight, (k11, k22, k33), e_u, g


def _diag_binomials(diag: Tuple[int, int, int], g: Tuple[int, int, int]):
    """Expansion of prod_a (|v|^2 - v_a^2)^diag_a into v-exponent vectors.

    Yields (binomial weight, f) pairs; f already includes the off-diagonal
    contribution g.
    """
    k11, k22, k33 = diag
    for i in range(k11 + 1):
        ci = math.comb(k11, i)
        for j in range(k22 + 1):
            cij = ci * math.comb(k22, j)
            for l in range(k33 + 1):
                w = cij * math.comb(k33, l)
                f = (
                    g[0] + 2 * j + 2 * l,
                    g[1] + 2 * i + 2 * (k33 - l),
                    g[2] + 2 * (k11 - i) + 2 * (k22 - j),
                )
                yield w, f


def _even_moment_fixed(k: int) -> Fraction:
    acc = 0
    for weight, diag, e_u, g in _slot_patterns(k):
        ju = _centered_num(e_u)
        inner = 0
        for w, f in _diag_binomials(diag, g):
            inner += w * _centered_num(f)
        acc += weight * ju * inner
    den = 3 ** (2 * k) * _fact(2 * k + 3)
    return Fraction(36, 4**k) * Fraction(acc, den * den)


def _even_moment_free(k: int) -> Fraction:
    acc = 0
    for weight, diag, e_u, g in _slot_patterns(k):
        inner = 0
        for w, f in _diag_binomials(diag, g):
            inner += w * _edge_pair_num(e_u, f)
        acc += weight * inner
    d2k = _fact(2 * k + 3)
    return Fraction(216, 4**k) * Fraction(acc, d2k * d2k * _fact(4 * k + 3))


def _check_capacity(case: str, k: int) -> None:
    cap = FREE_KMAX_LIMIT if case == CASE_FREE else FIXED_KMAX_LIMIT
    if k > cap:
        patterns = math.comb(k + 5, 5)
        raise CapacityError(
            "even moment of order 2k=%d for case %r exceeds the capacity "
            "limit k<=%d; the slot expansion would visit %d multinomial "
            "patterns (cost grows roughly with that count%s)"
            % (
                2 * k,
                case,
                cap,
                patterns,
                ", times the coupled-integral boxes" if case == CASE_FREE else "",
            )
        )


def even_moment(case: str, k: int) -> Fraction:
    """Exact E V^(2k) for the requested case.

    Orders beyond the per-case capacity guard (FREE_KMAX_LIMIT or
    FIXED_KMAX_LIMIT) raise CapacityError with a cost estimate instead of
    silently running for hours.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise UsageError("moment half-order k must be a nonnegative integer")
    case = _normalize_case(case)
    _check_capacity(case, k)
    if k == 0:
        return Fraction(1)
    if case == CASE_FIXED:
        return _even_moment_fixed(k)
    return _even_moment_free(k)


# ---------------------------------------------------------------------------
# moment tables with checkpointing


class MomentTable(NamedTuple):
    """Exact even-moment table mu_(2k) for k = 0 .. k_max."""

    case: str
    k_max: int
    entries: Tuple[Tuple[int, Fraction], ...]

    def value(self, k: int) -> Fraction:
        for kk, v in self.entries:
            if kk == k:
                return v
        raise UsageError("moment order 2k=%d is not in this table" % (2 * k,))

    def check(self) -> None:
        """Positivity and strict decrease of the stored moments."""
        values = dict(self.entries)
        if values.get(0) != 1:
            raise VerificationError("moment table must start with mu_0 = 1")
        prev = Fraction(1)
        for k in range(1, self.k_max + 1):
            cur = values.get(k)
            if cur is None:
                raise VerificationError("moment table is missing k=%d" % k)
            if not cur > 0:
                raise VerificationError("mu_%d is not positive" % (2 * k,))
            if not cur < prev:
                raise VerificationError(
                    "mu_%d does not decrease below mu_%d" % (2 * k, 2 * (k - 1))
                )
            prev = cur

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "entries": [
                {"k": k, "value": format_rational(v)} for k, v in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MomentTable":
        """The table in its stored form; every order k appears at most once."""
        case = _normalize_case(data["case"])
        values = {}
        for item in data["entries"]:
            k = item["k"]
            if type(k) is not int or k < 0:
                raise ValueError("order k=%r is not a nonnegative integer" % (k,))
            if k in values:
                raise ValueError("order k=%d is listed twice" % k)
            values[k] = parse_rational(item["value"])
        return cls(case, max(values, default=-1), tuple(values.items()))


def _read_table(path: str, case: str) -> MomentTable:
    """The checked table stored at ``path``, which must hold ``case``.

    A file that cannot be read or parsed as a moment table is a UsageError,
    and one that fails ``check`` a VerificationError, each naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = MomentTable.from_json(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError, UsageError) as exc:
        raise UsageError(
            "cannot read moment table %s: %s: %s" % (path, type(exc).__name__, exc)
        ) from None
    if table.case != case:
        raise UsageError("table %s holds case %r, expected %r" % (path, table.case, case))
    try:
        table.check()
    except VerificationError as exc:
        raise VerificationError("moment table %s: %s" % (path, exc)) from None
    return table


def _write_checkpoint(path: str, case: str, known: dict) -> None:
    table = MomentTable(case, max(known), tuple(sorted(known.items())))
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

    With ``checkpoint`` set, the entries already in that JSON file are
    reused and every newly computed order is written back immediately, so
    an interrupted long run resumes where it stopped.  A caller that has
    already read the file passes its table as ``stored``, so the file is
    not parsed twice.
    """
    if not isinstance(k_max, int) or k_max < 0:
        raise UsageError("k_max must be a nonnegative integer")
    case = _normalize_case(case)
    if stored is None and checkpoint and os.path.exists(checkpoint):
        stored = _read_table(checkpoint, case)
    known = dict(stored.entries) if stored else {}
    missing = [k for k in range(k_max + 1) if k not in known]
    if missing:
        # refuse before computing anything; checkpointed orders may exceed it
        _check_capacity(case, missing[-1])
    for k in missing:
        known[k] = even_moment(case, k)
        if checkpoint:
            _write_checkpoint(checkpoint, case, known)
    entries = tuple((k, known[k]) for k in range(k_max + 1))
    table = MomentTable(case, k_max, entries)
    table.check()
    return table
