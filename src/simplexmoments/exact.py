"""Exact rationals, integer polynomial arithmetic and exact sign
certification.

Everything in this module is exact; no floating point is involved anywhere.
A polynomial is a coefficient sequence, lowest degree first. The public
record is :class:`UniPoly`, a trimmed tuple of `fractions.Fraction`
coefficients with no arithmetic of its own; the certificates pass it in and
get it back.

Gcds, the odd-multiplicity part and root isolation work on integer
coefficient lists, to which a rational polynomial is converted once by
clearing denominators. Gcds are heuristic, read from one integer gcd of
values, and proved by exact division; every factor is the unique primitive
form of the rational Euclidean one.

The central decision procedure is :func:`sturm_nonneg_on_interval`, which
certifies ``p(t) >= 0`` for every ``t`` in a closed rational interval, or
returns a rational witness point where ``p`` is negative. Polynomials that
touch zero (even-multiplicity roots) inside the interval are accepted; the
test is for sign changes, not for roots. One Descartes bisection on integer
coefficients isolates the crossings inside the interval, transforming each
piece once, so a proof with no sign variation costs one transform; a
failed proof finds its witness from the isolated pieces by sign tests.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, NamedTuple

from . import _LAZY_NAMES
from .errors import UsageError

__all__ = _LAZY_NAMES["exact"]


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

def format_rational(q: Fraction | int) -> str:
    """Render an exact rational as ``p/q`` (``q`` omitted when it is 1)."""
    q = Fraction(q)
    return str(q)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction.

    Raises UsageError, a ValueError, on anything else, including floats,
    non-strings and a zero denominator; exact values must round-trip exactly.
    """
    if isinstance(text, str):
        num, slash, den = text.strip().partition("/")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError("expected a 'p' or 'p/q' string with q nonzero, got %r" % (text,))


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise UsageError(f"expected exact rational, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# the rational polynomial record
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of ``t**i``; trailing zeros are trimmed,
    and the zero polynomial has an empty coefficient tuple and degree -1.
    This is the record that crosses the public API; all arithmetic runs on
    coefficient lists.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly(degree={self.degree})"


def uni_eval(p: UniPoly, x) -> Fraction:
    """Exact Horner evaluation of ``p`` at the rational point ``x``."""
    return _horner(p.coeffs, _as_fraction(x))


# ---------------------------------------------------------------------------
# integer polynomials: heuristic gcds and exact division
# ---------------------------------------------------------------------------
#
# Polynomials here are lists of Python ints, lowest degree first, with no
# trailing zeros ([] is zero). Gcds, and with them the odd-multiplicity part,
# come from the heuristic gcd below, proved by exact division. The one integer
# normal form is primitive with a positive leading coefficient; it is unique,
# so each result equals, coefficient for coefficient, the normal form of the
# Euclidean result over the rationals.

def _int_coeffs(p: UniPoly) -> list[int]:
    """The normal form of a nonzero p: the primitive integer multiple with a
    positive leading coefficient."""
    den = _int_lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _primitive(a: list[int]) -> list[int]:
    """A nonzero a divided by its content, negated too if its lc is negative."""
    g = _int_gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _derivative_ints(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a) if i]


def _mul_ints(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive divisor b that divides a.

    With b primitive, Gauss's lemma makes the quotient integral whenever b
    divides a over the rationals; any inexact step or nonzero remainder
    therefore means b does not divide a and raises ArithmeticError.
    """
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    quot = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        if not r[i]:
            continue
        q, m = divmod(r[i], lc)
        if m:
            raise ArithmeticError("gcd division left a remainder")
        quot[i - db] = q
        k = i - db
        for j in range(db + 1):
            r[k + j] -= q * b[j]
    if any(r):
        raise ArithmeticError("gcd division left a remainder")
    return quot


def _horner(coeffs, x):
    """Horner value at x of a coefficient list, lowest degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _balanced_digits(v: int, xi: int) -> list[int]:
    """Digits of v in base xi (odd), each in [-(xi - 1)/2, (xi - 1)/2]."""
    digits = []
    half = xi // 2
    while v:
        d = v % xi
        if d > half:
            d -= xi
        digits.append(d)
        v = (v - d) // xi
    return digits


def _gcd_ints(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Primitive gcd g (positive lc) of nonzero a and b, with the cofactors a/g, b/g.

    Heuristic gcd (GCDHEU: Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989). Below, a and b stand for their primitive parts. With M the
    smaller of their max-norms, take xi = 2M + 29, read the balanced
    base-xi digits of gcd(a(xi), b(xi)) as a polynomial H, and keep its
    primitive part G if G divides both a and b; otherwise retry with
    xi = 2 xi + 1. Any start of at least 2M + 2 would be correct.

    G is the gcd. Exact division makes G a common divisor, so g = G F
    with F integral by Gauss's lemma. Every root r of F is a root of both
    a and b, so |r| < 1 + M by Cauchy's bound, and xi >= 2M + 2 gives
    |F(xi)| > (xi/2)^deg F. But g(xi) divides gcd(a(xi), b(xi)) = H(xi),
    so F(xi) divides H(xi) / G(xi), the content of H, which is at most
    xi/2 in absolute value because every digit is. So F is a constant, and
    G is the unique primitive gcd with a positive leading coefficient.

    The loop ends: gcd(a(xi), b(xi)) = g(xi) c, where c divides the
    resultant R of the coprime primitive parts of a/g and b/g, and once
    xi > 2 |R| max-norm(g) the digits are exactly c g.
    """
    pa, pb = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
    while True:
        gamma = _int_gcd(_horner(pa, xi), _horner(pb, xi))
        g = _primitive(_balanced_digits(gamma, xi))
        try:
            return g, _exact_quo(a, g), _exact_quo(b, g)
        except ArithmeticError:
            xi = 2 * xi + 1


def _odd_multiplicity_part(a: list[int]) -> list[int]:
    """The product O(a), in the same normal form, of the factors of odd
    multiplicity of a primitive a with positive lc: its real roots are
    exactly the points where a changes sign.

    With a = prod f_i^i for squarefree, pairwise coprime f_i,
        g = gcd(a, a') = prod f_i^(i-1)   and   a/g = prod f_i,
    and the odd-multiplicity factors of g are those of even i in a, so
    O(a) = (a/g) / O(g). One gcd per level runs down to a constant and the
    quotients run back up from O(1) = 1, so multiplicity m costs m gcds;
    the canonical error polynomials have simple and double roots only.
    """
    levels = []
    while len(a) > 1:
        a, squarefree, _ = _gcd_ints(a, _derivative_ints(a))
        levels.append(squarefree)
    odd = [1]
    for squarefree in reversed(levels):
        odd = _exact_quo(squarefree, odd)
    return odd


# ---------------------------------------------------------------------------
# root isolation and the nonnegativity decision
# ---------------------------------------------------------------------------

class NonnegResult(NamedTuple):
    """Outcome of a nonnegativity check with an optional counterexample."""

    nonnegative: bool
    reason: str
    witness: Fraction | None = None
    witness_value: Fraction | None = None

    def __bool__(self) -> bool:
        return self.nonnegative


def _descartes_variations(q: list[int], lo: Fraction, hi: Fraction) -> int:
    """Sign variations V of (1 + y)^n q((lo + hi y) / (1 + y)), n = deg q.

    y -> (lo + hi y) / (1 + y) maps (0, oo) onto (lo, hi), so by Descartes'
    rule of signs V bounds the roots of q in (lo, hi), counted with
    multiplicity, and has their parity (Collins and Akritas, SYMSAC 1976).
    V = 0 proves that q has no root there. With lo = a/d and hi = b/d the
    transform is scaled by d^n > 0 and built by homogeneous Horner steps,
    acc <- acc (a + b y) + q_i (d + d y)^(n - i), all in integers.
    """
    d = _int_lcm(lo.denominator, hi.denominator)
    u = [lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)]
    v_power = [1]
    acc = [q[-1]]
    for c in reversed(q[:-1]):
        v_power = _mul_ints(v_power, [d, d])
        acc = _mul_ints(acc, u)
        for j, w in enumerate(v_power):
            acc[j] += c * w
    signs = [c > 0 for c in acc if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _deflate_root(q: list[int], root: Fraction) -> list[int]:
    """Divide every (t - root) factor out of a nonzero integer list q.

    The divisor d t - n, with root = n/d in lowest terms, is primitive, so
    each quotient stays integral and a positive multiple of the rational one.
    """
    linear = [-root.numerator, root.denominator]
    while not _horner(q, root):
        q = _exact_quo(q, linear)
    return q


def _isolate(q: list[int], lo: Fraction, hi: Fraction) -> list[list[Fraction]]:
    """The pieces [a, b] of (lo, hi], lo < hi, each holding one root of a
    squarefree integer list q in (a, b], in increasing order: a piece is
    halved while it holds two or more roots.

    One Descartes bisection (Collins and Akritas, SYMSAC 1976) transforms
    each piece once: (a, b] holds V + [q(b) = 0] roots when that is 0 or 1,
    and is halved otherwise. A root at an end of a piece only divides its
    transform by y, or lowers its degree, so it adds no variation. The
    halving ends as q is squarefree: a short enough piece sees at most one
    root of q near it, a simple real one, and shows 0 or 1 variations
    (Vincent's theorem; Alesina and Galuzzi, L'Enseignement Math. 44,
    1998). A piece with two roots was halved, so the leaves give the pieces.
    """
    leaves = []
    pending = [(lo, hi)]
    while pending:
        a, b = pending.pop()
        n = _descartes_variations(q, a, b) + (not _horner(q, b))
        if n == 1:
            leaves.append(b)
        elif n > 1:
            mid = (a + b) / 2
            pending += [(mid, b), (a, mid)]
    # leaves[i:j] are the right ends of the leaves inside (a, b]
    pieces = []
    pending = [(lo, hi, 0, len(leaves))]
    while pending:
        a, b, i, j = pending.pop()
        if j - i == 1:
            pieces.append([a, b])
        elif j - i > 1:
            mid = (a + b) / 2
            k = bisect_right(leaves, mid, i, j)
            pending += [(mid, b, k, j), (a, mid, i, k)]
    return pieces


def _negative_witness(p: UniPoly, crossings: list[int], pieces: list[list[Fraction]],
                      lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Find a rational point in (lo, hi) with p < 0.

    ``crossings`` (c) is the odd-multiplicity part of p with any roots at
    lo and hi divided out. Its roots in (lo, hi], the ``_isolate`` pieces,
    are halved in place until open gaps separate them from each other and
    from lo and hi: the simple root of (a, b] lies in (a, mid] iff
    c(b) != 0 and c(mid) c(b) >= 0. p keeps one sign on each gap, apart
    from at most deg p zeros, and that sign flips across every crossing,
    so deg p + 1 points of some gap show a negative value.
    """
    while True:
        ends = [lo] + [x for iv in pieces for x in iv] + [hi]
        gaps = list(zip(ends[::2], ends[1::2]))
        shut = [j for j, (a, b) in enumerate(gaps) if a == b]
        if not shut:
            break
        for j in shut:
            for iv in pieces[max(j - 1, 0):j + 1]:
                mid = (iv[0] + iv[1]) / 2
                at_b = _horner(crossings, iv[1])
                if at_b and _horner(crossings, mid) * at_b >= 0:
                    iv[1] = mid
                else:
                    iv[0] = mid
    samples = p.degree + 2
    for a, b in gaps:
        for i in range(1, samples):
            x = a + (b - a) * Fraction(i, samples)
            v = _horner(p.coeffs, x)
            if v < 0:
                return x, v
            if v > 0:
                break
    raise ArithmeticError("no gap between sign crossings holds a negative value")


def sturm_nonneg_on_interval(p: UniPoly, lo, hi) -> NonnegResult:
    """Decide exactly whether ``p(t) >= 0`` for every t in [lo, hi].

    The decision composes three exact facts: the endpoint values, the
    presence of odd-multiplicity roots (sign crossings) strictly inside the
    interval, and the sign of the polynomial at one interior non-root point.
    Crossings are isolated by ``_isolate`` on the odd-multiplicity part,
    which is squarefree once deflated at both ends. Even-multiplicity
    interior roots are tolerated by construction.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if hi < lo:
        raise UsageError("interval end %s precedes start %s" % (hi, lo))
    if not p.coeffs:
        return NonnegResult(True, "zero-polynomial")
    if lo == hi:
        v = _horner(p.coeffs, lo)
        if v < 0:
            return NonnegResult(False, "endpoint-negative", lo, v)
        return NonnegResult(True, "single-point")

    v_lo, v_hi = _horner(p.coeffs, lo), _horner(p.coeffs, hi)
    if v_lo < 0:
        return NonnegResult(False, "endpoint-negative", lo, v_lo)
    if v_hi < 0:
        return NonnegResult(False, "endpoint-negative", hi, v_hi)

    # the sign crossings of p, with any at lo or hi divided out
    crossings = _odd_multiplicity_part(_int_coeffs(p))
    crossings = _deflate_root(_deflate_root(crossings, lo), hi)
    # the common case, no crossing at all, costs one transform
    if pieces := _isolate(crossings, lo, hi):
        x, v = _negative_witness(p, crossings, pieces, lo, hi)
        return NonnegResult(False, "interior-sign-change", x, v)

    # No interior sign change: one interior non-root sample decides the sign.
    width = hi - lo
    samples = max(p.degree + 2, 3)
    for i in range(1, samples + 1):
        x = lo + width * Fraction(i, samples + 1)
        v = _horner(p.coeffs, x)
        if v > 0:
            return NonnegResult(True, "no-interior-sign-change")
        if v < 0:
            return NonnegResult(False, "interior-negative", x, v)
    # a nonzero p has at most deg p roots, fewer than the points tried
    raise ArithmeticError("no interior sample of a nonzero polynomial is nonzero")
