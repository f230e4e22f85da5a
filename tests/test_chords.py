"""Tests for triangle distance and chord-length moments."""

import math
import random

import numpy as np
import pytest
from scipy import integrate

from simplexmoments.chords import (
    TriangleSpec,
    chord_moment,
    csc_power_antiderivative,
    edgepoint_moment,
    ratio_r,
    vertex_moment,
)
from simplexmoments.errors import CapacityError, DomainError, UsageError

ASINH1 = math.asinh(1.0)
SQRT2 = math.sqrt(2.0)

# T2 with the hypotenuse as edge AB, so the hypotenuse midpoint is the
# edge point c1 = sqrt(2)/2
T2_HYP = TriangleSpec.from_sides(1.0, 1.0, SQRT2)
HYP_MID = SQRT2 / 2.0


# --------------------------------------------------------------------------
# oracles


def quad_point_moment(va, vb, vc, p, k):
    """E ||X - p||^k over the triangle (va, vb, vc) by adaptive quadrature."""

    def fn(v, u):
        x = va[0] + u * (vb[0] - va[0]) + v * (vc[0] - va[0]) - p[0]
        y = va[1] + u * (vb[1] - va[1]) + v * (vc[1] - va[1]) - p[1]
        return math.hypot(x, y) ** k

    val, err = integrate.dblquad(
        fn, 0.0, 1.0, 0.0, lambda u: 1.0 - u, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-9
    return 2.0 * val


def mc_chord_moment(va, vb, vc, k, n, seed):
    """Monte Carlo E ||X0 - X1||^k with a standard-error estimate."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(2):
        u = rng.random(n)
        v = rng.random(n)
        flip = u + v > 1.0
        u[flip] = 1.0 - u[flip]
        v[flip] = 1.0 - v[flip]
        x = va[0] + u * (vb[0] - va[0]) + v * (vc[0] - va[0])
        y = va[1] + u * (vb[1] - va[1]) + v * (vc[1] - va[1])
        pts.append((x, y))
    d = np.hypot(pts[0][0] - pts[1][0], pts[0][1] - pts[1][1]) ** k
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(n))


def random_triangle(rng):
    while True:
        va, vb, vc = (
            (rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)
        )
        area = abs(
            (vb[0] - va[0]) * (vc[1] - va[1])
            - (vc[0] - va[0]) * (vb[1] - va[1])
        ) / 2.0
        if area > 0.3:
            return va, vb, vc


# --------------------------------------------------------------------------
# cosecant-power antiderivative


def test_antiderivative_base_cases():
    assert csc_power_antiderivative(2, math.pi / 2) - csc_power_antiderivative(
        2, math.pi / 4
    ) == pytest.approx(1.0, abs=1e-14)
    assert csc_power_antiderivative(1, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_antiderivative_matches_quadrature():
    rng = random.Random(19)
    for m in range(1, 9):
        lo = rng.uniform(0.2, 1.2)
        hi = rng.uniform(lo + 0.2, 2.8)
        want, err = integrate.quad(
            lambda t: 1.0 / math.sin(t) ** m, lo, hi, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-10
        got = csc_power_antiderivative(m, hi) - csc_power_antiderivative(m, lo)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_antiderivative_csc_cubed_example():
    want, _ = integrate.quad(
        lambda t: 1.0 / math.sin(t) ** 3, math.pi / 4, math.pi / 2
    )
    got = csc_power_antiderivative(3, math.pi / 2) - csc_power_antiderivative(
        3, math.pi / 4
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_antiderivative_domain_errors():
    with pytest.raises(DomainError):
        csc_power_antiderivative(2, 0.0)
    with pytest.raises(DomainError):
        csc_power_antiderivative(2, math.pi)
    with pytest.raises(DomainError):
        csc_power_antiderivative(2, -0.3)
    with pytest.raises(UsageError):
        csc_power_antiderivative(0, 1.0)


def test_antiderivative_past_the_float_range_is_refused():
    # values may be negative, so only a non-finite end or an underflowed
    # power in the recurrence is refused, with m and phi named
    assert -math.inf < csc_power_antiderivative(100, math.pi / 4) < 0.0
    for m, phi in ((5000, math.pi / 4), (2, 1e-320)):
        with pytest.raises(CapacityError) as err:
            csc_power_antiderivative(m, phi)
        assert "m=%d, phi=%r" % (m, phi) in str(err.value)


# --------------------------------------------------------------------------
# triangle construction


def test_triangle_spec_invariants():
    rng = random.Random(23)
    for _ in range(25):
        va, vb, vc = random_triangle(rng)
        t = TriangleSpec.from_vertices(va, vb, vc)
        assert t.alpha + t.beta + t.gamma == pytest.approx(math.pi, abs=1e-12)
        ratio = t.a / math.sin(t.alpha)
        assert t.b / math.sin(t.beta) == pytest.approx(ratio, rel=1e-10)
        assert t.c / math.sin(t.gamma) == pytest.approx(ratio, rel=1e-10)


def test_triangle_spec_rejects_degenerate():
    with pytest.raises(DomainError):
        TriangleSpec.from_sides(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        TriangleSpec.from_sides(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        TriangleSpec.from_vertices((0, 0), (1, 1), (2, 2))


@pytest.mark.parametrize(
    "sides",
    [
        (math.nan, 1.0, 1.0),
        (1.0, math.nan, 1.0),
        (math.inf, 1.0, 1.0),
        (1e-200, 1e-200, 1e-200),
        (1e308, 1e308, 1e308),
        (1.34e154, 2e153, 1.3e154),
        (1e-160, SQRT2 * 1e-160, 1e-160),
    ],
    ids=["nan-a", "nan-b", "inf", "1e-200", "1e308", "sum-overflow", "subnormal-squares"],
)
def test_triangle_spec_refuses_sides_outside_float64(sides):
    # nan gave nan angles, 1e-200 a ZeroDivisionError, 1e308 nan angles
    # refused later as "angle must lie strictly between 0 and pi", the
    # sum-overflow case a math domain ValueError, and squares below the
    # smallest normal float an alpha of 0.78544 for pi/4
    with pytest.raises(DomainError) as err:
        TriangleSpec.from_sides(*sides)
    assert repr(float(sides[0])) in str(err.value)


def test_triangle_spec_keeps_tiny_sides_with_normal_squares():
    # the refusal of subnormal squares leaves sides of 1e-150 to work
    t = TriangleSpec.from_sides(1e-150, SQRT2 * 1e-150, 1e-150)
    assert t.alpha == pytest.approx(math.pi / 4, rel=1e-15)
    assert t.beta == pytest.approx(math.pi / 2, rel=1e-15)


@pytest.mark.parametrize(
    "sides, angles, moments",
    [
        ((1.0, 1.0, SQRT2),
         ("0x1.921fb54442d16p-1", "0x1.921fb54442d16p-1", "0x1.921fb54442d19p+0"),
         ("0x1.a83c80e663d7ep-2", "0x1.c71c71c71c723p-3", "0x1.c6209d151100ap-3",
          "0x1.5555555555557p-3")),
        ((3.0, 4.0, 5.0),
         ("0x1.4978fa3269ee0p-1", "0x1.dac670561bb50p-1", "0x1.921fb54442d18p+0"),
         ("0x1.754b9695b88e8p+0", "0x1.638e38e38e38fp+1", "0x1.3fe215f987383p+3",
          "0x1.0aaaaaaaaaaa8p+1")),
    ],
    ids=["T2", "3-4-5"],
)
def test_triangle_spec_angles_and_moments_are_pinned(sides, angles, moments):
    # bit for bit, as float.hex
    t = TriangleSpec.from_sides(*sides)
    assert tuple(x.hex() for x in (t.alpha, t.beta, t.gamma)) == angles
    got = (chord_moment(t, 1), chord_moment(t, 2), vertex_moment(t, "C", 3),
           edgepoint_moment(t, t.c / 2, 2))
    assert tuple(x.hex() for x in got) == moments


def test_edge_point_spec_geometry():
    # the closed edge [0, c] is accepted, endpoints included
    for c1 in (0.0, 0.1, SQRT2 / 2, T2_HYP.c):
        assert edgepoint_moment(T2_HYP, c1, 2) > 0.0
    for c1 in (-0.2, T2_HYP.c + 1e-9):
        with pytest.raises(DomainError):
            edgepoint_moment(T2_HYP, c1, 2)


# --------------------------------------------------------------------------
# vertex moments


def test_vertex_moment_right_angle_of_T2():
    # E (x^2 + y^2) over the unit right triangle, taken from the corner at
    # the right angle: exact value 1/3
    t = TriangleSpec.from_sides(SQRT2, 1.0, 1.0)
    assert t.alpha == pytest.approx(math.pi / 2)
    assert vertex_moment(t, "A", 2) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_vertex_moment_equilateral_symmetry():
    t = TriangleSpec.from_sides(1.3, 1.3, 1.3)
    for k in (1, 2, 5):
        va = vertex_moment(t, "A", k)
        assert vertex_moment(t, "B", k) == pytest.approx(va, rel=1e-12)
        assert vertex_moment(t, "C", k) == pytest.approx(va, rel=1e-12)


def test_vertex_moment_against_quadrature():
    rng = random.Random(29)
    for _ in range(5):
        va, vb, vc = random_triangle(rng)
        t = TriangleSpec.from_vertices(va, vb, vc)
        for k, vertex, p in (((1), "A", va), ((2), "B", vb), ((3), "C", vc)):
            want = quad_point_moment(va, vb, vc, p, k)
            assert vertex_moment(t, vertex, k) == pytest.approx(
                want, rel=1e-8, abs=1e-10
            )


def test_vertex_moment_345_matches_monte_carlo():
    va, vb, vc = (0.0, 0.0), (3.0, 0.0), (3.0, 4.0)
    t = TriangleSpec.from_vertices(va, vb, vc)
    rng = np.random.default_rng(101)
    n = 10**6
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    x = u * (vb[0] - va[0]) + v * (vc[0] - va[0])
    y = u * (vb[1] - va[1]) + v * (vc[1] - va[1])
    d = np.hypot(x, y)
    got = vertex_moment(t, "A", 1)
    assert abs(got - d.mean()) < 3.0 * d.std(ddof=1) / math.sqrt(n)


def test_vertex_moment_argument_checks():
    t = TriangleSpec.from_sides(SQRT2, 1.0, 1.0)
    with pytest.raises(UsageError):
        vertex_moment(t, "D", 2)
    with pytest.raises(UsageError):
        vertex_moment(t, "A", 0)


# --------------------------------------------------------------------------
# edge-point moments


def test_edgepoint_moment_T2_hypotenuse_midpoint_values():
    vals = {
        1: (2.0 + SQRT2 * ASINH1) / (6.0 * SQRT2),
        2: 1.0 / 6.0,
        3: (14.0 + 3.0 * SQRT2 * ASINH1) / (160.0 * SQRT2),
        4: 7.0 / 180.0,
    }
    for k, want in vals.items():
        assert edgepoint_moment(T2_HYP, HYP_MID, k) == pytest.approx(
            want, abs=1e-12
        )
    # the printed decimals
    assert edgepoint_moment(T2_HYP, HYP_MID, 1) == pytest.approx(0.3825, abs=1e-4)
    assert edgepoint_moment(T2_HYP, HYP_MID, 3) == pytest.approx(0.0783, abs=1e-4)


def test_edgepoint_moment_T2_closed_form_general_k():
    # 2^(1/2-k)/(k+2) * 2F1(1/2,(k+3)/2;3/2;1/2), with the hypergeometric
    # value rewritten through the antiderivative at pi/4
    for k in range(1, 13):
        f = -SQRT2 * csc_power_antiderivative(k + 2, math.pi / 4)
        want = 2.0 ** (0.5 - k) / (k + 2) * f
        assert edgepoint_moment(T2_HYP, HYP_MID, k) == pytest.approx(
            want, rel=1e-12
        )


def test_edgepoint_moment_against_quadrature():
    rng = random.Random(31)
    for _ in range(4):
        va, vb, vc = random_triangle(rng)
        t = TriangleSpec.from_vertices(va, vb, vc)
        frac = rng.uniform(0.15, 0.85)
        c1 = frac * t.c
        # D sits on edge AB at distance c1 from A
        p = (
            va[0] + frac * (vb[0] - va[0]),
            va[1] + frac * (vb[1] - va[1]),
        )
        for k in (1, 2, 3):
            want = quad_point_moment(va, vb, vc, p, k)
            assert edgepoint_moment(t, c1, k) == pytest.approx(
                want, rel=1e-8, abs=1e-10
            )


def test_edgepoint_moment_endpoint_fallback():
    t = T2_HYP
    for k in (1, 3):
        assert edgepoint_moment(t, 0.0, k) == vertex_moment(t, "A", k)
        assert edgepoint_moment(t, t.c, k) == vertex_moment(t, "B", k)


# --------------------------------------------------------------------------
# two-point chord moments


def test_chord_moment_T2_values():
    vals = {
        1: (1.0 + 2.0 * SQRT2) / 30.0 * (2.0 + SQRT2 * ASINH1),
        2: 2.0 / 9.0,
        3: (1.0 + 4.0 * SQRT2) / 840.0 * (14.0 + 3.0 * SQRT2 * ASINH1),
        4: 1.0 / 10.0,
    }
    for k, want in vals.items():
        assert chord_moment(T2_HYP, k) == pytest.approx(want, abs=1e-12)
    assert chord_moment(T2_HYP, 1) == pytest.approx(0.4142, abs=1e-4)
    assert chord_moment(T2_HYP, 3) == pytest.approx(0.1405, abs=1e-4)


def test_chord_moment_T2_closed_form_general_k():
    for k in range(1, 13):
        f = -SQRT2 * csc_power_antiderivative(k + 2, math.pi / 4)
        want = (2.0 ** ((5 - k) / 2.0) + 2.0 ** 3.5) * f / (
            (k + 2) * (k + 3) * (k + 4)
        )
        assert chord_moment(T2_HYP, k) == pytest.approx(want, rel=1e-12)


def test_chord_moment_labeling_invariance():
    # the two-point moment cannot depend on which vertex is called A
    t1 = TriangleSpec.from_sides(1.0, 1.0, SQRT2)
    t2 = TriangleSpec.from_sides(SQRT2, 1.0, 1.0)
    t3 = TriangleSpec.from_sides(1.0, SQRT2, 1.0)
    for k in (1, 2, 5):
        assert chord_moment(t1, k) == pytest.approx(chord_moment(t2, k), rel=1e-12)
        assert chord_moment(t1, k) == pytest.approx(chord_moment(t3, k), rel=1e-12)


def test_chord_moment_against_monte_carlo():
    rng = random.Random(37)
    cases = [((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))]
    cases += [random_triangle(rng) for _ in range(2)]
    for idx, (va, vb, vc) in enumerate(cases):
        t = TriangleSpec.from_vertices(va, vb, vc)
        for k in (1, 2, 3):
            mean, se = mc_chord_moment(va, vb, vc, k, 1_500_000, 500 + idx)
            assert abs(chord_moment(t, k) - mean) < 3.0 * se


def test_moments_scale_and_are_rigid_motion_invariant():
    rng = random.Random(41)
    for _ in range(6):
        va, vb, vc = random_triangle(rng)
        t = TriangleSpec.from_vertices(va, vb, vc)
        lam = rng.uniform(0.3, 2.5)
        scaled = TriangleSpec.from_sides(lam * t.a, lam * t.b, lam * t.c)
        th = rng.uniform(0.0, 2 * math.pi)
        cs, sn = math.cos(th), math.sin(th)
        shift = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        moved = [
            (cs * x - sn * y + shift[0], sn * x + cs * y + shift[1])
            for x, y in (va, vb, vc)
        ]
        tm = TriangleSpec.from_vertices(*moved)
        for k in (1, 2, 4):
            assert chord_moment(scaled, k) == pytest.approx(
                lam**k * chord_moment(t, k), rel=1e-10
            )
            assert chord_moment(tm, k) == pytest.approx(
                chord_moment(t, k), rel=1e-9
            )
            assert vertex_moment(tm, "B", k) == pytest.approx(
                vertex_moment(t, "B", k), rel=1e-9
            )


# --------------------------------------------------------------------------
# the ratio r(k)


@pytest.mark.parametrize(
    "moment, largest",
    [
        (lambda k: chord_moment(T2_HYP, k), 2043),
        (lambda k: vertex_moment(T2_HYP, "A", k), 2068),
        (lambda k: edgepoint_moment(T2_HYP, HYP_MID, k), 1064),
        (lambda k: chord_moment(TriangleSpec.from_sides(3.0, 4.0, 5.0), k), 437),
    ],
)
def test_orders_past_the_float_range_are_refused(moment, largest):
    # the largest order that evaluates is a finite positive float; the next
    # one, and any far beyond it, is refused with that order named
    assert 0.0 < moment(largest) < math.inf
    for k in (largest + 1, 5000):
        with pytest.raises(CapacityError) as err:
            moment(k)
        assert "k=%d" % k in str(err.value)
        assert str(err.value).endswith("the largest k that evaluates is %d" % largest)


def test_ratio_r_values():
    assert ratio_r(1) == pytest.approx(20.0 / (16.0 + 4.0 * SQRT2), abs=1e-14)
    assert ratio_r(1) < 1.0
    assert ratio_r(2) == pytest.approx(0.75, abs=1e-14)
    moment_ratio = edgepoint_moment(T2_HYP, HYP_MID, 2) / chord_moment(T2_HYP, 2)
    assert moment_ratio == pytest.approx(0.75, abs=1e-13)


def test_ratio_r_past_the_float_range_is_refused():
    assert 0.0 < ratio_r(1020) < math.inf
    for k in (1021, 5000):
        with pytest.raises(CapacityError) as err:
            ratio_r(k)
        assert "k=%d" % k in str(err.value)
        assert str(err.value).endswith("the largest k that evaluates is 1020")


def test_ratio_r_matches_moment_ratio():
    for k in range(1, 13):
        want = edgepoint_moment(T2_HYP, HYP_MID, k) / chord_moment(T2_HYP, k)
        assert ratio_r(k) == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_ratio_r_decreasing_and_midpoint_below_chord():
    prev = ratio_r(1)
    for k in range(2, 51):
        cur = ratio_r(k)
        assert cur < prev
        prev = cur
    for k in range(1, 51):
        assert edgepoint_moment(T2_HYP, HYP_MID, k) < chord_moment(T2_HYP, k)
