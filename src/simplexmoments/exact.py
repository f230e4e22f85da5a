"""Exact rationals, integer polynomial arithmetic and Sturm-chain sign
certification.

Everything in this module is exact; no floating point is involved anywhere.
A polynomial is a coefficient sequence, lowest degree first. The public
record is :class:`UniPoly`, a trimmed tuple of `fractions.Fraction`
coefficients with no arithmetic of its own; the certificates pass it in and
get it back.

Gcds, squarefree parts, Yun's decomposition and Sturm chains work on
integer coefficient lists, to which a rational polynomial is converted
once by clearing denominators. Gcds are heuristic, read from one integer
gcd of values, and proved by exact division; Sturm chains stay primitive
polynomial remainder sequences, whose signs are the proof. Every result
is the unique primitive form of the rational Euclidean one.

The central decision procedure is :func:`sturm_nonneg_on_interval`, which
certifies ``p(t) >= 0`` for every ``t`` in a closed rational interval, or
returns a rational witness point where ``p`` is negative. Polynomials that
touch zero (even-multiplicity roots) inside the interval are accepted; the
test is for sign changes, not for roots. Whether p crosses zero inside the
interval is first asked of Descartes' rule of signs, on integer
coefficients; zero sign variations prove that it does not, and only
otherwise is a Sturm chain built to decide exactly and find the witness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, NamedTuple

__all__ = [
    "format_rational",
    "parse_rational",
    "UniPoly",
    "uni_eval",
    "SturmChain",
    "NonnegResult",
    "sturm_nonneg_on_interval",
]


# ---------------------------------------------------------------------------
# rational serialization
# ---------------------------------------------------------------------------

def format_rational(q: Fraction | int) -> str:
    """Render an exact rational as ``p/q`` (``q`` omitted when it is 1)."""
    q = Fraction(q)
    return str(q)


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction.

    Raises ValueError on anything else, including floats, non-strings and a
    zero denominator; exact values must round-trip exactly.
    """
    if not isinstance(text, str):
        raise ValueError("expected a 'p' or 'p/q' string, got %r" % (text,))
    num, slash, den = text.strip().partition("/")
    if slash and int(den) == 0:
        raise ValueError("zero denominator in %r" % text)
    return Fraction(int(num), int(den) if slash else 1)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected exact rational, got {type(value).__name__}")


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
# integer polynomials: heuristic gcds and pseudo-remainders
# ---------------------------------------------------------------------------
#
# Polynomials here are lists of Python ints, lowest degree first, with no
# trailing zeros ([] is zero). Gcds, and with them squarefree parts and
# Yun's decomposition, come from the heuristic gcd below, proved by exact
# division. Sturm chains run as primitive polynomial remainder sequences
# over the integers (Brown and Traub, JACM 18, 1971): every pseudo-remainder
# is reduced to its primitive part, so coefficients stay small without any
# rational normalization. Primitive forms are unique, so each result equals,
# coefficient for coefficient, the primitive form of the Euclidean result
# over the rationals.

def _int_coeffs(p: UniPoly, positive_lead: bool = False) -> list[int]:
    """Primitive integer coefficients of a nonzero rational multiple of p.

    The multiple is positive unless ``positive_lead`` asks for a positive
    leading coefficient.
    """
    den = _int_lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs], positive_lead)


def _primitive(a: list[int], positive_lead: bool = False) -> list[int]:
    """a divided by its content (negated too if ``positive_lead`` and lc < 0)."""
    if not a:
        return a
    g = _int_gcd(*a)
    if positive_lead and a[-1] < 0:
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


def _sub_ints(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a divided by b.

    Each elimination step scales the running remainder by |lc(b)| instead
    of dividing by lc(b), so the result is a positive multiple of the
    rational remainder and sign-sensitive users (Sturm chains) may rely on
    its signs.
    """
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    scale = abs(lc)
    for i in range(len(r) - 1, db - 1, -1):
        top = r.pop()
        if not top:
            continue
        if lc < 0:
            top = -top
        if scale != 1:
            r = [scale * c for c in r]
        k = i - db
        for j in range(db):
            r[k + j] -= top * b[j]
    while r and not r[-1]:
        r.pop()
    return r


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
    """Primitive gcd g (positive lc) of a and b, with the cofactors a/g, b/g.

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
    if not a or not b:
        g = _primitive(a or b, True)
        return g, a and _exact_quo(a, g), b and _exact_quo(b, g)
    pa, pb = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, pa)), max(map(abs, pb))) + 29
    while True:
        gamma = _int_gcd(_horner(pa, xi), _horner(pb, xi))
        g = _primitive(_balanced_digits(gamma, xi), True)
        try:
            return g, _exact_quo(a, g), _exact_quo(b, g)
        except ArithmeticError:
            xi = 2 * xi + 1


def _squarefree_ints(a: list[int]) -> list[int]:
    """a / gcd(a, a') for a primitive a with positive leading coefficient."""
    if len(a) < 2:
        return a
    return _gcd_ints(a, _derivative_ints(a))[1]


def _yun_ints(p: list[int]) -> list[tuple[int, list[int]]]:
    """Yun's squarefree decomposition of a primitive p with positive lc.

    Every gcd comes with its exact integral cofactors, so w, y and z stay
    integral and equal to the rational quantities of the textbook algorithm.
    """
    if len(p) < 2:
        return []
    _, w, y = _gcd_ints(p, _derivative_ints(p))
    out: list[tuple[int, list[int]]] = []
    i = 1
    while len(w) > 1:
        z = _sub_ints(y, _derivative_ints(w))
        if not z:
            # everything left has multiplicity exactly i
            out.append((i, w))
            break
        f, w, y = _gcd_ints(w, z)
        if len(f) > 1:
            out.append((i, f))
        i += 1
    return out


def _odd_multiplicity_part(a: list[int]) -> list[int]:
    """Product of the factors of odd multiplicity in Yun's decomposition of
    a primitive a with positive lc.

    Its real roots are exactly the points where a changes sign; touch
    points of even multiplicity are excluded.
    """
    result = [1]
    for mult, factor in _yun_ints(a):
        if mult % 2:
            result = _mul_ints(result, factor)
    return result


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------

class SturmChain:
    """Sturm chain of the squarefree part of a polynomial.

    ``chain`` holds primitive integer coefficient lists, lowest degree
    first: the squarefree part with a positive leading coefficient, its
    derivative, and then the primitive part of each negated
    pseudo-remainder of the two before it. Pseudo-remainders scale by |lc|
    only, so every element is a strictly positive multiple of the
    corresponding element of the rational Euclidean Sturm sequence and all
    sign counts agree with it, while coefficients stay small integers.
    """

    def __init__(self, p: UniPoly):
        chain = [_squarefree_ints(_int_coeffs(p, positive_lead=True))]
        if len(chain[0]) > 1:
            chain.append(_primitive(_derivative_ints(chain[0])))
            while len(chain[-1]) > 1:
                r = _prem(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(_primitive([-c for c in r]))
        self.chain = chain

    def count_roots(self, lo, hi) -> int:
        """Distinct real roots in (lo, hi].

        Zero values are skipped when counting sign changes, so a root at
        either end is counted as if the end sat just to its right.
        """
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        if hi < lo:
            raise ValueError("empty interval")
        changes = []
        for x in (lo, hi):
            signs = [v > 0 for v in (_horner(q, x) for q in self.chain) if v]
            changes.append(sum(1 for a, b in zip(signs, signs[1:]) if a != b))
        return changes[0] - changes[1]


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


def _negative_witness(p: UniPoly, crossings: SturmChain, lo: Fraction,
                      hi: Fraction) -> tuple[Fraction, Fraction]:
    """Find a rational point in (lo, hi) with p < 0.

    ``crossings`` is the Sturm chain of the odd-multiplicity part of p with
    any roots at lo and hi divided out, and it has at least one root in
    (lo, hi). Bisection with Sturm counts isolates each such root in its
    own interval (a, b]; the intervals are then halved until open gaps
    separate them from each other and from lo and hi. p keeps one sign on
    each gap, apart from at most deg p zeros, and that sign flips across
    every crossing, so deg p + 1 points of some gap show a negative value.
    """
    isolated: list[list[Fraction]] = []
    pending = [(lo, hi)]
    while pending:
        a, b = pending.pop()
        n = crossings.count_roots(a, b)
        if n == 1:
            isolated.append([a, b])
        elif n > 1:
            mid = (a + b) / 2
            pending += [(mid, b), (a, mid)]
    while True:
        ends = [lo] + [x for iv in isolated for x in iv] + [hi]
        gaps = list(zip(ends[::2], ends[1::2]))
        shut = [j for j, (a, b) in enumerate(gaps) if a == b]
        if not shut:
            break
        for j in shut:
            for iv in isolated[max(j - 1, 0):j + 1]:
                mid = (iv[0] + iv[1]) / 2
                if crossings.count_roots(iv[0], mid):
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
    Crossings are ruled out by Descartes' rule when it shows no sign
    variation, and counted by a Sturm chain otherwise. Even-multiplicity
    interior roots are tolerated by construction.
    """
    lo, hi = _as_fraction(lo), _as_fraction(hi)
    if hi < lo:
        raise ValueError("interval end precedes start")
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

    # the sign crossings, on the primitive integer form of p, with any at
    # lo or hi divided out
    crossings = _odd_multiplicity_part(_int_coeffs(p, positive_lead=True))
    crossings = _deflate_root(_deflate_root(crossings, lo), hi)
    # Descartes' rule settles the common case, no crossing at all, without
    # a chain; any variation leaves the exact decision to Sturm's theorem
    if len(crossings) > 1 and _descartes_variations(crossings, lo, hi):
        chain = SturmChain(UniPoly(crossings))
        if chain.count_roots(lo, hi) > 0:
            x, v = _negative_witness(p, chain, lo, hi)
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
    # More interior zeros than the degree allows would force p == 0.
    return NonnegResult(True, "identically-zero-on-samples")
