"""Convex-body catalog: descriptors, exact containment, volume and surface measures.

The catalog is the fixed menagerie used throughout the package: the standard
simplex in any dimension (with the planar triangle T2 and the tetrahedron T3
as named members), the unit cube, the unit ball, the closed upper half of the
unit ball, and right prisms base x [0, h] with an exact height h.
Descriptors are immutable; a pinned vertex is not part of a body but an
argument of the estimator (``estimate_moment(..., fixed=...)``).

All membership tests on polytopes are exact when given exact coordinates
(floats are converted to their exact binary rationals first); curved bodies
use floating arithmetic with a 1e-12 tolerance where one is called for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

from .errors import UsageError, _count

__all__ = [
    "Body",
    "ball",
    "body_measures",
    "contains",
    "cube",
    "halfball",
    "is_polytopal",
    "polygon_edges",
    "product",
    "standard_simplex",
    "tetrahedron_T3",
    "triangle_T2",
]

def _to_fraction(value) -> Fraction:
    if isinstance(value, Rational):
        return Fraction(value)
    return Fraction(float(value))


# ---------------------------------------------------------------------------
# body descriptors


@dataclass(frozen=True)
class Body:
    """Immutable descriptor of one catalog body.

    kind is one of "simplex", "cube", "ball", "halfball", "product".
    Products carry the base body and a positive height, an exact Fraction.
    """

    kind: str
    dim: int
    base: Optional["Body"] = None
    height: Optional[Fraction] = None


def is_polytopal(body: Body) -> bool:
    if body.kind == "product":
        return is_polytopal(body.base)
    return body.kind in ("simplex", "cube")


def standard_simplex(d: int) -> Body:
    """Standard simplex conv(0, e_1, ..., e_d)."""
    return Body("simplex", _count(d, "dimension"))


def cube(d: int) -> Body:
    """Unit cube [0, 1]^d."""
    return Body("cube", _count(d, "dimension"))


def ball(d: int) -> Body:
    """Closed unit ball."""
    return Body("ball", _count(d, "dimension"))


def halfball(d: int) -> Body:
    """Closed upper half of the unit ball: ||x|| <= 1 and x_d >= 0."""
    return Body("halfball", _count(d, "dimension"))


def triangle_T2() -> Body:
    """The planar triangle with vertices (0,0), (1,0), (0,1): the standard 2-simplex."""
    return standard_simplex(2)


def tetrahedron_T3() -> Body:
    """The tetrahedron with vertices 0, e_1, e_2, e_3: the standard 3-simplex."""
    return standard_simplex(3)


def product(base: Body, height) -> Body:
    """Right prism base x [0, height], the height kept as an exact Fraction
    (a float converts exactly); it must be positive and finite in float64."""
    try:
        h = _to_fraction(height)
        valid = float(h) > 0
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise UsageError("prism height must be a positive number within the float64 range")
    return Body("product", base.dim + 1, base=base, height=h)


# ---------------------------------------------------------------------------
# membership and boundary


def _contains_exact(body: Body, pt: Sequence[Fraction]) -> bool:
    k = body.kind
    if k == "simplex":
        return all(v >= 0 for v in pt) and sum(pt) <= 1
    if k == "cube":
        return all(0 <= v <= 1 for v in pt)
    if k == "product":
        z = pt[-1]
        return 0 <= z <= body.height and _contains_exact(
            body.base, pt[:-1]
        )
    raise UsageError("exact membership is only defined for polytopes")


def _margins(body: Body, pt) -> list:
    """Signed distances to the supporting constraints, positive inside.

    Each entry is the Euclidean distance to one constraint hyperplane or
    sphere, with a positive sign when the point satisfies the constraint
    strictly.  The minimum is >= 0 exactly on the closed body and is 0 on
    the boundary.
    """
    k = body.kind
    x = [float(v) for v in pt]
    if k == "simplex":
        return x + [(1.0 - sum(x)) / math.sqrt(body.dim)]
    if k == "cube":
        return x + [1.0 - v for v in x]
    if k == "ball":
        return [1.0 - math.hypot(*x)]
    if k == "halfball":
        return [1.0 - math.hypot(*x), x[-1]]
    if k == "product":
        z = x[-1]
        return _margins(body.base, pt[:-1]) + [z, float(body.height) - z]
    raise UsageError("unsupported body kind %r" % (k,))


def contains(body: Body, point, tol: float = 0.0) -> bool:
    """Whether the point lies in the closed body (within tol for tol > 0)."""
    pt = tuple(point)
    if len(pt) != body.dim:
        raise UsageError(
            "point has dimension %d, body has dimension %d"
            % (len(pt), body.dim)
        )
    if tol == 0.0 and is_polytopal(body):
        return _contains_exact(body, [_to_fraction(v) for v in pt])
    return min(_margins(body, pt)) >= -tol


def polygon_edges(body: Body):
    """Edges of a planar catalog polytope as (start, end) vertex pairs."""
    if body.kind == "simplex" and body.dim == 2:
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    elif body.kind == "cube" and body.dim == 2:
        verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    else:
        raise UsageError("edge lists exist only for planar catalog polytopes")
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


# ---------------------------------------------------------------------------
# measures


def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def body_measures(body: Body) -> dict:
    """Volume and surface measure of a catalog body.

    Returns {"volume": v, "surface": s} where s is the (d-1)-dimensional
    boundary measure.  For a prism base x [0, h] the surface consists of two
    flat copies of the base plus the side band: 2 vol(base) + S(base) h.
    """
    k = body.kind
    if k == "simplex":
        d = body.dim
        vol = 1.0 / math.factorial(d)
        surf = (d + math.sqrt(d)) / math.factorial(d - 1)
    elif k == "cube":
        vol = 1.0
        surf = 2.0 * body.dim
    elif k == "ball":
        vol = _ball_volume(body.dim)
        surf = body.dim * vol
    elif k == "halfball":
        d = body.dim
        vol = _ball_volume(d) / 2.0
        surf = d * _ball_volume(d) / 2.0 + _ball_volume(d - 1)
    elif k == "product":
        inner = body_measures(body.base)
        h = float(body.height)
        vol = inner["volume"] * h
        surf = 2.0 * inner["volume"] + inner["surface"] * h
    else:
        raise UsageError("unsupported body kind %r" % (k,))
    return {"volume": vol, "surface": surf}

