"""Closed-form moments of distances and chord lengths in triangles.

Three families of moments for a planar triangle:

* the k-th moment of the distance of one uniform point from a vertex,
* the same from a point on the edge AB, given by its distance c1 from A
  (split into two sub-triangles and averaged with area weights),
* the k-th moment of the distance between two independent uniform points.

Every formula reduces to the antiderivative of integer powers of the
cosecant, which is evaluated by an exact elementary recurrence.  The
hypergeometric form -cos(phi) 2F1(1/2, (m+1)/2; 3/2; cos^2(phi)) of that
antiderivative is never summed as a series: the series degenerates as the
argument approaches 1 (thin triangles) while the recurrence stays stable.

The ratio of the edge-midpoint moment to the two-point moment on the unit
right isosceles triangle collapses to the closed form
r(k) = (k+3)(k+4) / (2^(k+3) + 2^(k/2+2)), which is the quantity whose decay
drives the counterexample search in higher dimensions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import CapacityError, DomainError, UsageError, _count

__all__ = [
    "TriangleSpec",
    "csc_power_antiderivative",
    "vertex_moment",
    "edgepoint_moment",
    "chord_moment",
    "ratio_r",
]


def csc_power_antiderivative(m: int, phi: float) -> float:
    """Antiderivative I_m of 1/sin(phi)^m, for integer m >= 1.

    Normalized so that I_1 = log(tan(phi/2)) and I_2 = -cot(phi); higher
    orders follow the reduction
    I_m = -cos(phi) / ((m-1) sin(phi)^(m-1)) + (m-2)/(m-1) I_(m-2).
    Differences I_m(b) - I_m(a) give definite integrals over [a, b] in
    (0, pi). Past some m, which depends on phi, the recurrence leaves the
    float64 range, and that is a CapacityError naming m and phi.
    """
    _count(m, "power m")
    if not 0.0 < phi < math.pi:
        raise DomainError("angle must lie strictly between 0 and pi")
    s = math.sin(phi)
    c = math.cos(phi)
    if m % 2:
        val = math.log(math.tan(phi / 2.0))
        order = 1
    else:
        val = -c / s
        order = 2
    try:
        while order < m:
            order += 2
            val = -c / ((order - 1) * s ** (order - 1)) + (order - 2) / (order - 1) * val
    except (OverflowError, ZeroDivisionError):
        val = math.inf
    if not math.isfinite(val):
        raise CapacityError("csc_power_antiderivative(m=%d, phi=%r) leaves the float64 range"
                            % (m, phi))
    return val


def _in_range(k: int, moment) -> float:
    """moment(k) if it evaluates to a positive normal float.

    Past some order, which depends on the triangle, the powers of sines and
    sides in the formulas leave the float64 range: a power underflows to 0
    and is divided by, or overflows, or the moment itself underflows.  Such
    a k is a CapacityError naming the largest order that still evaluates,
    found by bisection.
    """

    def value(order: int):
        try:
            v = moment(order)
        except (UsageError, DomainError):
            raise
        except (CapacityError, OverflowError, ZeroDivisionError, ValueError):
            # ValueError: math.fsum given an inf and a -inf
            return None
        return v if sys.float_info.min <= v <= sys.float_info.max else None

    v = value(k)
    if v is not None:
        return v
    lo, hi = 0, k  # lo evaluates (0: no order does), hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) is None:
            hi = mid
        else:
            lo = mid
    raise CapacityError(
        "moment order k=%d leaves the float64 range for this triangle; %s"
        % (k, "the largest k that evaluates is %d" % lo if lo else "no order k >= 1 evaluates")
    )


@dataclass(frozen=True)
class TriangleSpec:
    """Side lengths and derived angles of a nondegenerate triangle.

    Sides a, b, c lie opposite the vertices A, B, C; the angles alpha, beta,
    gamma sit at those vertices.  Angles are always derived from the sides,
    never supplied.
    """

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    @classmethod
    def from_sides(cls, a, b, c) -> "TriangleSpec":
        """The triangle with these sides; a DomainError names sides that are
        not positive and finite, or whose law of cosines leaves float64."""
        a, b, c = float(a), float(b), float(c)
        if not all(0.0 < side < math.inf for side in (a, b, c)):
            raise DomainError("side lengths must be positive and finite, got %r, %r, %r"
                              % (a, b, c))
        if a + b <= c or b + c <= a or a + c <= b:
            raise DomainError("degenerate triangle: inequality must be strict")
        shortest = min(a, b, c)
        # a subnormal square has lost digits, and an overflowing square
        # makes a cosine nan or infinite
        cosines = (math.nan,) if shortest * shortest < sys.float_info.min else (
            (b * b + c * c - a * a) / (2.0 * b * c),
            (a * a + c * c - b * b) / (2.0 * a * c),
            (a * a + b * b - c * c) / (2.0 * a * b),
        )
        if not all(-1.0 <= cosine <= 1.0 for cosine in cosines):
            raise DomainError("side lengths %r, %r, %r: their squares leave the float64 range"
                              % (a, b, c))
        alpha, beta, gamma = (math.acos(cosine) for cosine in cosines)
        return cls(a, b, c, alpha, beta, gamma)

    @classmethod
    def from_vertices(cls, va, vb, vc) -> "TriangleSpec":
        return cls.from_sides(
            math.dist(vb, vc), math.dist(va, vc), math.dist(va, vb)
        )

    @property
    def area(self) -> float:
        return self.a * self.c * math.sin(self.beta) / 2.0


_VERTEX_LABELS = {"A": 0, "B": 1, "C": 2}


def vertex_moment(t: TriangleSpec, vertex: str, k: int) -> float:
    """k-th moment of the distance of a uniform point from one vertex.

    Sweeping a ray from the chosen vertex across the triangle reduces the
    moment to a cosecant-power integral:
    E = 2 (c sin beta)^(k+1) / ((k+2) a) * (I_(k+2)(alpha+beta) - I_(k+2)(beta))
    for vertex A, and cyclic relabelings for B and C.
    """
    _count(k, "moment order k")
    if vertex not in _VERTEX_LABELS:
        raise UsageError("vertex must be one of 'A', 'B', 'C'")
    return _in_range(k, lambda order: _vertex_moment(t, _VERTEX_LABELS[vertex], order))


def _vertex_moment(t: TriangleSpec, i: int, k: int) -> float:
    sides = (t.a, t.b, t.c)
    angles = (t.alpha, t.beta, t.gamma)
    opp = sides[i]
    adj = sides[(i + 2) % 3]
    start = angles[(i + 1) % 3]
    sweep = angles[i]
    m = k + 2
    height = adj * math.sin(start)
    diff = csc_power_antiderivative(m, sweep + start) - csc_power_antiderivative(
        m, start
    )
    return 2.0 * height ** (k + 1) / (m * opp) * diff


def edgepoint_moment(t: TriangleSpec, c1: float, k: int) -> float:
    """k-th moment of the distance of a uniform point from the point D on
    AB that lies c1 away from A.

    The segment DC splits the triangle into ACD and DBC; the moment is the
    area-weighted average of the two vertex moments taken at D.  The closed
    interval 0 <= c1 <= c is accepted: its endpoints are the vertices A and
    B, where the vertex formula is used.
    """
    _count(k, "moment order k")
    c1 = float(c1)
    if not 0.0 <= c1 <= t.c:
        raise DomainError("edge point must satisfy 0 <= c1 <= c")
    if c1 == 0.0:
        return vertex_moment(t, "A", k)
    if c1 == t.c:
        return vertex_moment(t, "B", k)
    return _in_range(k, lambda order: _edgepoint_moment(t, c1, order))


def _edgepoint_moment(t: TriangleSpec, c1: float, k: int) -> float:
    va = (0.0, 0.0)
    vb = (t.c, 0.0)
    vc = (t.b * math.cos(t.alpha), t.b * math.sin(t.alpha))
    vd = (c1, 0.0)
    left = TriangleSpec.from_vertices(vd, va, vc)
    right = TriangleSpec.from_vertices(vd, vb, vc)
    wl = left.area
    wr = right.area
    return (
        wl * _vertex_moment(left, 0, k) + wr * _vertex_moment(right, 0, k)
    ) / (wl + wr)


def chord_moment(t: TriangleSpec, k: int) -> float:
    """k-th moment of the distance between two uniform points.

    A line-integral decomposition over all chords, with the one-dimensional
    two-point moment 2 l^(k+1)/((k+2)(k+3)) on each chord, leaves a sum over
    ordered vertex pairs (i, j) of cosecant-power antiderivatives:

    E = 8 / ((k+2)(k+3)(k+4)) (2 area)^-2
        * sum_(i != j) sin(eta_i)^(k+3) e_j^(k+4) B(i, j)

    with B(i, j) = -cos(eta_i) (I_(k+2)(eta_j) + I_(k+2)(eta_i))
                   + sin(eta_i)/(k+2) (csc(eta_j)^(k+2) - csc(eta_i)^(k+2)).
    """
    _count(k, "moment order k")
    return _in_range(k, lambda order: _chord_moment(t, order))


def _chord_moment(t: TriangleSpec, k: int) -> float:
    sides = (t.a, t.b, t.c)
    angles = (t.alpha, t.beta, t.gamma)
    m = k + 2
    anti = [csc_power_antiderivative(m, ang) for ang in angles]
    cscs = [1.0 / math.sin(ang) ** m for ang in angles]
    terms = []
    for i in range(3):
        sin_i = math.sin(angles[i])
        cos_i = math.cos(angles[i])
        for j in range(3):
            if j == i:
                continue
            bracket = -cos_i * (anti[j] + anti[i]) + sin_i / m * (
                cscs[j] - cscs[i]
            )
            terms.append(sin_i ** (k + 3) * sides[j] ** (k + 4) * bracket)
    two_area = 2.0 * t.area
    pref = 8.0 / ((k + 2) * (k + 3) * (k + 4)) / (two_area * two_area)
    return pref * math.fsum(terms)


def ratio_r(k: int) -> float:
    """Ratio of the hypotenuse-midpoint moment to the two-point moment on
    the unit right isosceles triangle: (k+3)(k+4) / (2^(k+3) + 2^(k/2+2)).

    Strictly decreasing in k and below 1 from k = 1 on. Past k = 1020 the
    powers of 2 leave the float64 range, and that is a CapacityError.
    """
    _count(k, "moment order k")
    return _in_range(k, lambda n: (n + 3) * (n + 4) / (2.0 ** (n + 3) + 2.0 ** (n / 2.0 + 2.0)))
