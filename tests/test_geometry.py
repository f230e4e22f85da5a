"""Tests for the convex-body catalog, Gram volumes, and exact integrals."""

import dataclasses
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import boundary_residual, gram_volume, monomial_integral_T3
from simplexmoments.errors import DomainError, UsageError
from simplexmoments.geometry import (
    Body,
    ball,
    body_measures,
    contains,
    cube,
    halfball,
    is_polytopal,
    polygon_edges,
    product,
    standard_simplex,
    tetrahedron_T3,
    triangle_T2,
)
from simplexmoments.mc import estimate_moment


# --------------------------------------------------------------------------
# oracles


def det_fraction(rows):
    """Gaussian elimination over Fraction, used only as a test oracle."""
    m = [list(map(F, r)) for r in rows]
    n = len(m)
    det = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def cayley_menger_vol2(pts):
    """Squared (n-1)-volume of conv(pts) from pairwise distances only.

    Independent of the Gram construction under test: uses the bordered
    distance-matrix determinant.
    """
    n = len(pts)
    d2 = [
        [sum((F(a) - F(b)) ** 2 for a, b in zip(p, q)) for q in pts] for p in pts
    ]
    size = n + 1
    m = [[F(0)] * size for _ in range(size)]
    for i in range(1, size):
        m[0][i] = F(1)
        m[i][0] = F(1)
    for i in range(n):
        for j in range(n):
            m[i + 1][j + 1] = d2[i][j]
    det = det_fraction(m)
    k = n - 1
    return F(-1) ** n * det / (F(2) ** k * F(math.factorial(k)) ** 2)


def beta_chain_integral(l, m, n):
    """Iterated one-dimensional integration of x^l y^m z^n over the
    standard tetrahedron, reduced to exact Beta values."""

    def beta(a, b):
        return F(
            math.factorial(a - 1) * math.factorial(b - 1),
            math.factorial(a + b - 1),
        )

    return beta(m + 1, n + 2) * beta(l + 1, m + n + 3) / (n + 1)


# --------------------------------------------------------------------------
# gram_volume


def test_gram_volume_simple_point_sets():
    assert gram_volume([(0, 0), (1, 0)]) == pytest.approx(1.0)
    assert gram_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == pytest.approx(0.5)
    assert gram_volume([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) == 0.0


def test_gram_volume_matches_cayley_menger_on_rational_points():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 5)
        n = rng.randint(2, d + 1)
        pts = [
            tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
            for _ in range(n)
        ]
        expect = math.sqrt(float(cayley_menger_vol2(pts)))
        assert gram_volume(pts) == pytest.approx(expect, abs=1e-12)


def test_gram_volume_full_dimension_matches_determinant():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(2, 4)
        pts = [tuple(F(rng.randint(-5, 5)) for _ in range(d)) for _ in range(d + 1)]
        m = [[float(a - b) for a, b in zip(p, pts[0])] for p in pts[1:]]
        expect = abs(np.linalg.det(np.array(m))) / math.factorial(d)
        assert gram_volume(pts) == pytest.approx(expect, abs=1e-9)


def test_gram_volume_rigid_motion_invariant_and_scaling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.integers(2, 6)
        n = rng.integers(2, d + 2)
        pts = rng.standard_normal((n, d))
        ref = gram_volume(pts)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        shift = rng.standard_normal(d)
        moved = pts @ q.T + shift
        assert gram_volume(moved) == pytest.approx(ref, rel=1e-10, abs=1e-12)
        lam = float(rng.uniform(0.2, 3.0))
        assert gram_volume(lam * pts) == pytest.approx(
            lam ** (n - 1) * ref, rel=1e-10, abs=1e-12
        )


def test_gram_volume_permutation_symmetric():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((4, 5))
    ref = gram_volume(pts)
    for _ in range(6):
        perm = rng.permutation(4)
        assert gram_volume(pts[perm]) == pytest.approx(ref, rel=1e-10)


def test_gram_volume_usage_errors():
    with pytest.raises(UsageError):
        gram_volume([(0, 0)])
    with pytest.raises(UsageError):
        gram_volume([(0,), (1,), (2,)])  # three points on a line need d >= 2
    with pytest.raises(UsageError):
        gram_volume([(0, 0), (1, 0, 0)])


# --------------------------------------------------------------------------
# monomial integrals over the standard tetrahedron


def test_monomial_integral_small_cases():
    assert monomial_integral_T3(0, 0, 0) == F(1, 6)
    assert monomial_integral_T3(1, 0, 0) == F(1, 24)
    assert monomial_integral_T3(2, 1, 0) == F(1, 360)


def test_monomial_integral_symmetry_and_beta_chain():
    for total in range(11):
        for l in range(total + 1):
            for m in range(total - l + 1):
                n = total - l - m
                val = monomial_integral_T3(l, m, n)
                assert val == beta_chain_integral(l, m, n)
                assert val == monomial_integral_T3(m, n, l)
                assert val == monomial_integral_T3(n, m, l)


# --------------------------------------------------------------------------
# body catalog


def test_body_measures_catalog():
    t2 = body_measures(triangle_T2())
    assert t2["volume"] == pytest.approx(0.5)
    assert t2["surface"] == pytest.approx(2 + math.sqrt(2))

    assert body_measures(cube(3)) == pytest.approx({"volume": 1.0, "surface": 6.0})

    prism = body_measures(product(triangle_T2(), F(1, 10)))
    assert prism["volume"] == pytest.approx(1 / 20)
    assert prism["surface"] == pytest.approx(2 * 0.5 + (2 + math.sqrt(2)) / 10)

    b2 = body_measures(ball(2))
    assert b2["volume"] == pytest.approx(math.pi)
    assert b2["surface"] == pytest.approx(2 * math.pi)

    b3 = body_measures(ball(3))
    assert b3["volume"] == pytest.approx(4 * math.pi / 3)
    assert b3["surface"] == pytest.approx(4 * math.pi)

    hb3 = body_measures(halfball(3))
    assert hb3["volume"] == pytest.approx(2 * math.pi / 3)
    assert hb3["surface"] == pytest.approx(3 * math.pi)

    s3 = body_measures(standard_simplex(3))
    t3 = body_measures(tetrahedron_T3())
    assert s3 == pytest.approx(t3)
    assert t3["volume"] == pytest.approx(1 / 6)
    assert t3["surface"] == pytest.approx((3 + math.sqrt(3)) / 2)


def test_product_surface_matches_face_enumeration():
    # two flat copies of the base plus one rectangle per base edge
    h = 0.3
    for base in (triangle_T2(), cube(2)):
        meas = body_measures(base)
        direct = 2 * meas["volume"]
        for v, w in polygon_edges(base):
            direct += math.dist(v, w) * h
        assert body_measures(product(base, h))["surface"] == pytest.approx(direct)


def test_polygon_edges_lengths_sum_to_perimeter():
    for body in (triangle_T2(), standard_simplex(2), cube(2)):
        per = sum(math.dist(v, w) for v, w in polygon_edges(body))
        assert per == pytest.approx(body_measures(body)["surface"])
    with pytest.raises(UsageError):
        polygon_edges(ball(2))


def test_contains_catalog():
    assert contains(triangle_T2(), (F(1, 4), F(1, 4)))
    assert contains(triangle_T2(), (F(1, 2), F(1, 2)))  # edge midpoint
    assert not contains(triangle_T2(), (0.6, 0.6))
    assert contains(cube(3), (0.0, 0.5, 1.0))
    assert not contains(cube(3), (1.1, 0.5, 0.5))
    assert contains(ball(2), (0.6, 0.6))
    assert not contains(ball(2), (0.8, 0.8))
    assert contains(halfball(3), (0.1, 0.2, 0.0))
    assert not contains(halfball(3), (0.1, 0.2, -0.01))
    prism = product(triangle_T2(), F(1, 2))
    assert contains(prism, (F(1, 4), F(1, 4), F(1, 2)))
    assert not contains(prism, (F(1, 4), F(1, 4), F(3, 5)))
    with pytest.raises(UsageError):
        contains(prism, (0.1, 0.1))


def test_boundary_residual_small_on_boundary_points():
    assert boundary_residual(triangle_T2(), (0.5, 0.5)) < 1e-15
    assert boundary_residual(ball(3), (1.0, 0.0, 0.0)) < 1e-15
    th = 0.7
    pt = (math.cos(th), math.sin(th))
    assert boundary_residual(ball(2), pt) < 1e-15
    assert boundary_residual(halfball(2), (0.3, 0.0)) < 1e-15
    prism = product(triangle_T2(), 0.25)
    assert boundary_residual(prism, (0.2, 0.3, 0.0)) < 1e-15
    assert boundary_residual(prism, (0.2, 0.3, 0.25)) < 1e-15
    # interior and exterior points are far from the boundary
    assert boundary_residual(ball(2), (0.0, 0.0)) == pytest.approx(1.0)
    assert boundary_residual(cube(2), (0.5, 0.4)) == pytest.approx(0.4)


def test_fixed_point_validation():
    # a pinned vertex is an estimator argument, not a body attribute
    for make, args in ((standard_simplex, (2,)), (cube, (2,)), (ball, (2,)), (halfball, (2,)),
                       (triangle_T2, ()), (tetrahedron_T3, ()), (product, (triangle_T2(), 1))):
        with pytest.raises(TypeError):
            make(*args, fixed_point=(0, 0))
    assert "fixed_point" not in {f.name for f in dataclasses.fields(Body)}

    # estimate_moment validates the pin: boundary and interior points pass,
    # curved bodies get a small tolerance, polytopes none
    def pin(body, point):
        return estimate_moment(body, 2, 1, fixed=point, samples=2, seed=1)

    pin(triangle_T2(), (F(1, 2), F(1, 2)))
    pin(tetrahedron_T3(), (F(1, 3), F(1, 3), F(1, 3)))
    pin(halfball(3), (0.0, 0.0, 0.0))
    pin(ball(2), (1.0 + 5e-13, 0.0))
    with pytest.raises(DomainError):
        pin(ball(2), (1.001, 0.0))
    with pytest.raises(DomainError):
        pin(triangle_T2(), (F(3, 5), F(3, 5)))
    with pytest.raises(UsageError):
        pin(triangle_T2(), (F(1, 2),))


def test_product_dimension_and_height_guard():
    prism = product(triangle_T2(), F(1, 10))
    assert prism.dim == 3
    twice = product(prism, F(1, 10))
    assert twice.dim == 4
    with pytest.raises(UsageError):
        product(triangle_T2(), 0)
    with pytest.raises(UsageError):
        product(triangle_T2(), F(-1, 2))


@pytest.mark.parametrize(
    "height",
    [math.inf, math.nan, F(10**400), F(1, 10**400), "1/2", None],
    ids=["inf", "nan", "10**400", "10**-400", "string", "None"],
)
def test_product_refuses_heights_outside_float64(height):
    # inf was accepted and sampled to nan; 10**400 overflowed and "1/2"
    # raised ValueError, both bare
    with pytest.raises(UsageError, match="prism height"):
        product(triangle_T2(), height)


def test_is_polytopal():
    assert is_polytopal(triangle_T2())
    assert is_polytopal(cube(4))
    assert is_polytopal(product(product(standard_simplex(2), 1.0), F(1, 3)))
    assert not is_polytopal(ball(2))
    assert not is_polytopal(product(halfball(2), F(1, 3)))



def test_named_bodies_are_standard_simplices():
    assert triangle_T2() == standard_simplex(2) == Body("simplex", 2)
    assert tetrahedron_T3() == standard_simplex(3) == Body("simplex", 3)
