"""Certified polynomial bounds for expected random-triangle areas.

The expectation E V of a random triangle area V cannot be summed from even
moments alone, but it can be sandwiched: if p(x) is a polynomial with
p(t^2) <= t for every t in the range of V, then E p(V^2) <= E V, and
E p(V^2) = sum_i a_i mu_2i is an exact rational once the even moments
mu_2i are known.  The reverse inequality gives upper bounds.  This module
interpolates such polynomials from touch points (Hermite conditions, by
confluent divided differences in Newton form), proves the one-sided
inequality exactly (Descartes' rule of signs when the error polynomial
cannot cross zero, Sturm sequences otherwise), and assembles the bound
values.

The headline application: for triangles with vertices drawn uniformly from
the tetrahedron T3 = conv{0, e1, e2, e3}, a degree-7 lower bound for the
unconstrained mean area and a degree-15 upper bound for the mean area with
one vertex pinned at (1/3, 1/3, 1/3), the centroid of the facet
x + y + z = 1, straddle the pivot value 23471/500000 = 0.046942.  That
proves the pinned mean is strictly smaller than the unpinned one, a fact
the exactly computable even moments cannot settle on their own.  The whole
chain (moments, interpolation, Sturm check, comparison) is exact rational
arithmetic from end to end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .errors import CapacityError, UsageError, VerificationError
from .exact import (
    NonnegResult,
    UniPoly,
    _as_fraction,
    format_rational,
    parse_rational,
    sturm_nonneg_on_interval,
)

__all__ = [
    "PIVOT",
    "FREE_B",
    "FREE_BPRIME",
    "FIXED_B",
    "FIXED_BPRIME",
    "LOWER_SINGLE_NODES",
    "LOWER_DOUBLE_NODES",
    "UPPER_SINGLE_NODES",
    "UPPER_DOUBLE_NODES",
    "Certificate",
    "hermite_interpolate",
    "verify_bound_polynomial",
    "bound_from_moments",
    "build_certificate",
    "lower_area_certificate",
    "upper_area_certificate",
    "verify_counterexample",
    "certificate_to_json",
    "certificate_from_json",
    "error_polynomial",
    "upper_sqrt_rational",
]

# the value separating the two certified bounds
PIVOT = Fraction(23471, 500000)

# B bounds the squared area of triangles with vertices in
# T3 = conv{0, e1, e2, e3}: areas lie in [0, sqrt(3)/2], reached by the facet
# e1 e2 e3; with a vertex pinned at the facet centroid (1/3, 1/3, 1/3), in
# [0, sqrt(3)/6].  The Sturm checks run on [0, B'] for a rational
# B' >= sqrt(B).
FREE_B = Fraction(3, 4)
FREE_BPRIME = Fraction(13, 15)
FIXED_B = Fraction(1, 12)
FIXED_BPRIME = Fraction(3, 10)

# canonical interpolation nodes (t-space touch points of the certified
# polynomials against sqrt)
LOWER_SINGLE_NODES = (Fraction(0), Fraction(47, 54))
LOWER_DOUBLE_NODES = (Fraction(2, 19), Fraction(4, 15), Fraction(8, 17))
UPPER_SINGLE_NODES: Tuple[Fraction, ...] = ()
UPPER_DOUBLE_NODES = (
    Fraction(1, 45),
    Fraction(1, 17),
    Fraction(1, 11),
    Fraction(1, 8),
    Fraction(1, 6),
    Fraction(1, 5),
    Fraction(3, 13),
    Fraction(7, 27),
)


class Certificate(NamedTuple):
    """An exactly verified one-sided polynomial bound for E V.

    ``side`` is "lower" (poly(t^2) <= t on [0, bprime]) or "upper"
    (poly(t^2) >= t there); ``interval_b`` bounds the support of V^2, and
    ``bprime`` is the rational verification endpoint with bprime^2 >=
    interval_b.  ``bound`` is sum_i a_i mu_2i for the moment table the
    certificate was built against.
    """

    side: str
    poly: UniPoly
    single_nodes: Tuple[Fraction, ...]
    double_nodes: Tuple[Fraction, ...]
    interval_b: Fraction
    bprime: Fraction
    bound: Fraction
    verified: bool


def upper_sqrt_rational(b, max_den: int = 64) -> Fraction:
    """Tightest p/q >= sqrt(b) with q <= max_den, exactly certified."""
    b = _as_fraction(b)
    if b < 0:
        raise UsageError("cannot bound the square root of a negative number")
    if not isinstance(max_den, int) or max_den < 1:
        raise UsageError("max_den must be a positive integer")
    best = None
    for q in range(1, max_den + 1):
        p = math.isqrt(b.numerator * q * q // b.denominator)
        while p * p * b.denominator < b.numerator * q * q:
            p += 1
        cand = Fraction(p, q)
        if best is None or cand < best:
            best = cand
    return best


def hermite_interpolate(single_nodes: Sequence, double_nodes: Sequence) -> UniPoly:
    """Polynomial p with p(t^2) = t at all nodes, p'(t^2) = 1/(2t) at doubles.

    Single nodes pin the value only; double nodes add the tangency
    condition, so p(x) osculates sqrt(x) at x = t^2.  With s single and d
    double nodes the interpolant has degree s + 2d - 1.  Nodes must be
    distinct nonnegative rationals, and t = 0 is allowed only as a single
    node (the tangency slope diverges there).  The interpolant is unique;
    it is built from confluent divided differences in x = t^2 and expanded
    from its Newton form by Horner's rule, in O(n^2) exact operations.
    """
    singles = tuple(_as_fraction(t) for t in single_nodes)
    doubles = tuple(_as_fraction(t) for t in double_nodes)
    if not singles and not doubles:
        raise UsageError("at least one interpolation node is required")
    seen = set()
    for t in singles + doubles:
        if t < 0:
            raise UsageError("nodes must be nonnegative")
        if t in seen:
            raise UsageError("repeated interpolation node %s" % t)
        seen.add(t)
    if any(t == 0 for t in doubles):
        raise UsageError("t = 0 cannot carry a tangency condition")

    # confluent divided differences in x = t^2, each double node listed
    # twice in a row; the first difference over a repeated node is the
    # slope of sqrt there, d sqrt(x)/dx = 1/(2t)
    xs = [t * t for t in singles] + [t * t for t in doubles for _ in (0, 1)]
    column = list(singles) + [t for t in doubles for _ in (0, 1)]
    slopes = {t * t: Fraction(1, 2 * t) for t in doubles}
    newton = [column[0]]
    for order in range(1, len(xs)):
        column = [
            slopes[xs[i]] if xs[i] == xs[i + order]
            else (column[i + 1] - column[i]) / (xs[i + order] - xs[i])
            for i in range(len(column) - 1)
        ]
        newton.append(column[0])
    # expand c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)) by Horner's rule
    coeffs = [newton[-1]]
    for x, c in zip(reversed(xs[:-1]), reversed(newton[:-1])):
        coeffs = [c - x * coeffs[0]] + [
            lower - x * higher for lower, higher in zip(coeffs, coeffs[1:])
        ] + [coeffs[-1]]
    return UniPoly(coeffs)


def error_polynomial(poly: UniPoly, side: str) -> UniPoly:
    """g(t) = t - p(t^2) for lower bounds, p(t^2) - t for upper bounds."""
    if side not in ("lower", "upper"):
        raise UsageError("side must be 'lower' or 'upper'")
    # p(t^2) spreads the coefficients of p onto the even powers of t
    sign = 1 if side == "upper" else -1
    coeffs = [x for c in poly.coeffs or [0] for x in (sign * c, 0)]
    coeffs[1] -= sign
    return UniPoly(coeffs)


def verify_bound_polynomial(poly: UniPoly, side: str, interval_b, bprime=None) -> NonnegResult:
    """Prove (or refute, with a witness) the one-sided sqrt bound.

    Checks g(t) >= 0 on [0, bprime] with ``sturm_nonneg_on_interval``
    (Descartes' rule, then a Sturm sequence if needed), where g is the
    signed error of ``error_polynomial``.  ``interval_b`` bounds the
    quantity being certified (the support of V^2), and ``bprime`` must be a
    rational at least sqrt(interval_b); by default the tightest such value
    with denominator at most 64 is used.
    """
    b = _as_fraction(interval_b)
    if b <= 0:
        raise UsageError("interval_b must be positive")
    if bprime is None:
        bprime = upper_sqrt_rational(b)
    bprime = _as_fraction(bprime)
    if bprime * bprime < b:
        raise UsageError("bprime must satisfy bprime^2 >= interval_b")
    return sturm_nonneg_on_interval(error_polynomial(poly, side), 0, bprime)


def bound_from_moments(poly: UniPoly, table) -> Fraction:
    """sum_i a_i mu_2i, the certified bound value for E V."""
    if poly.degree > table.k_max:
        raise CapacityError(
            "moment table reaches k=%d but the degree-%d polynomial needs "
            "moments through order %d" % (table.k_max, poly.degree, 2 * poly.degree)
        )
    return sum(
        (c * table.value(i) for i, c in enumerate(poly.coeffs)),
        Fraction(0),
    )


def build_certificate(
    side: str,
    single_nodes: Sequence,
    double_nodes: Sequence,
    table,
    interval_b,
    bprime=None,
) -> Certificate:
    """Interpolate, verify exactly, and price a one-sided bound.

    Raises VerificationError (with the witness point) if the interpolated
    polynomial fails the inequality on [0, bprime]; a returned Certificate
    is always verified.
    """
    poly = hermite_interpolate(single_nodes, double_nodes)
    b = _as_fraction(interval_b)
    if bprime is None:
        bprime = upper_sqrt_rational(b)
    bprime = _as_fraction(bprime)
    result = verify_bound_polynomial(poly, side, b, bprime)
    if not result:
        raise VerificationError(
            "bound polynomial fails on [0, %s]: g(%s) = %s < 0"
            % (bprime, result.witness, result.witness_value)
        )
    bound = bound_from_moments(poly, table)
    return Certificate(
        side=side,
        poly=poly,
        single_nodes=tuple(_as_fraction(t) for t in single_nodes),
        double_nodes=tuple(_as_fraction(t) for t in double_nodes),
        interval_b=b,
        bprime=bprime,
        bound=bound,
        verified=True,
    )


def lower_area_certificate(free_table) -> Certificate:
    """The canonical degree-7 lower bound for the unpinned mean area."""
    return build_certificate(
        "lower",
        LOWER_SINGLE_NODES,
        LOWER_DOUBLE_NODES,
        free_table,
        FREE_B,
        FREE_BPRIME,
    )


def upper_area_certificate(fixed_table) -> Certificate:
    """The canonical degree-15 upper bound for the centroid-pinned mean."""
    return build_certificate(
        "upper",
        UPPER_SINGLE_NODES,
        UPPER_DOUBLE_NODES,
        fixed_table,
        FIXED_B,
        FIXED_BPRIME,
    )


def verify_counterexample(free_table, fixed_table) -> dict:
    """Mechanically confirm that pinning at the facet centroid shrinks the mean.

    Produces a report with (a) the exact second moments, where the pinned
    case is smaller, (b) a verified lower bound for the unpinned mean that
    exceeds the pivot 23471/500000, (c) a verified upper bound for the
    pinned mean below the pivot, and (d) the strict separation between the
    two bounds.  Everything is exact; no floating point enters any
    comparison.
    """
    if free_table.case != "free":
        raise UsageError("free_table must hold unconstrained moments")
    if fixed_table.case != "fixed-centroid":
        raise UsageError("fixed_table must hold centroid-pinned moments")
    problems = []
    if free_table.k_max < 7:
        problems.append("the lower certificate needs unpinned moments up to k=7 "
                        "(table has k=%d)" % free_table.k_max)
    if fixed_table.k_max < 15:
        problems.append("the upper certificate needs pinned moments up to k=15 "
                        "(table has k=%d)" % fixed_table.k_max)
    if problems:
        raise CapacityError("; ".join(problems))

    mu2_free = free_table.value(1)
    mu2_fixed = fixed_table.value(1)
    lower = lower_area_certificate(free_table)
    upper = upper_area_certificate(fixed_table)
    separation = lower.bound - upper.bound
    report = {
        "second_moment": {
            "free": mu2_free,
            "fixed": mu2_fixed,
            "fixed_below_free": mu2_fixed < mu2_free,
            "gap": mu2_free - mu2_fixed,
        },
        "pivot": PIVOT,
        "lower_certificate": lower,
        "upper_certificate": upper,
        "lower_bound_above_pivot": lower.bound > PIVOT,
        "upper_bound_below_pivot": upper.bound < PIVOT,
        "mean_separation": separation,
        "mean_separation_positive": separation > 0,
    }
    report["confirmed"] = (
        report["second_moment"]["fixed_below_free"]
        and report["lower_bound_above_pivot"]
        and report["upper_bound_below_pivot"]
        and report["mean_separation_positive"]
    )
    return report


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "side": cert.side,
        "coefficients": [format_rational(c) for c in cert.poly.coeffs],
        "nodes": {
            "single": [format_rational(t) for t in cert.single_nodes],
            "double": [format_rational(t) for t in cert.double_nodes],
        },
        "interval_B": format_rational(cert.interval_b),
        "interval_Bprime": format_rational(cert.bprime),
        "bound": format_rational(cert.bound),
        "verified": cert.verified,
    }


def certificate_from_json(data: dict) -> Certificate:
    return Certificate(
        side=data["side"],
        poly=UniPoly([parse_rational(c) for c in data["coefficients"]]),
        single_nodes=tuple(parse_rational(t) for t in data["nodes"]["single"]),
        double_nodes=tuple(parse_rational(t) for t in data["nodes"]["double"]),
        interval_b=parse_rational(data["interval_B"]),
        bprime=parse_rational(data["interval_Bprime"]),
        bound=parse_rational(data["bound"]),
        verified=bool(data["verified"]),
    )
