"""Tests for Hermite interpolation and certified square-root bounds."""

import itertools
import random
from fractions import Fraction as F

import pytest

from oracles import build_gram_poly, ref_derivative, solve_fraction_free
from simplexmoments.certificates import (
    FIXED_B,
    FIXED_BPRIME,
    FREE_B,
    FREE_BPRIME,
    LOWER_DOUBLE_NODES,
    LOWER_SINGLE_NODES,
    PIVOT,
    UPPER_DOUBLE_NODES,
    UPPER_SINGLE_NODES,
    Certificate,
    bound_from_moments,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    error_polynomial,
    hermite_interpolate,
    lower_area_certificate,
    upper_area_certificate,
    upper_sqrt_rational,
    verify_bound_polynomial,
    verify_counterexample,
)
from simplexmoments.errors import CapacityError, UsageError, VerificationError
from simplexmoments.exact import UniPoly, _int_coeffs, _yun_ints, uni_eval
from simplexmoments.tetra import moment_table


@pytest.fixture(scope="module")
def free_table():
    return moment_table("free", 7)


@pytest.fixture(scope="module")
def fixed_table():
    return moment_table("fixed-centroid", 15)


class TestHermiteInterpolate:
    def test_single_tangency_at_one(self):
        # osculating sqrt at x=1: value 1 and slope 1/2
        poly = hermite_interpolate([], [F(1)])
        assert poly == UniPoly((F(1, 2), F(1, 2)))

    def test_two_plain_nodes(self):
        poly = hermite_interpolate([F(0), F(1)], [])
        assert poly == UniPoly((0, 1))

    def test_zero_alone(self):
        poly = hermite_interpolate([F(0)], [])
        assert not poly.coeffs

    def test_random_condition_sets_interpolate_exactly(self):
        rng = random.Random(1723)
        pool = [F(p, q) for q in (7, 9, 11, 13) for p in range(1, q)]
        for _ in range(10):
            nodes = rng.sample(pool, 5)
            singles = sorted(nodes[:2])
            doubles = sorted(nodes[2:])
            if rng.random() < 0.5:
                singles[0] = F(0)
            poly = hermite_interpolate(singles, doubles)
            assert poly.degree <= len(singles) + 2 * len(doubles) - 1
            deriv = UniPoly(ref_derivative(poly.coeffs))
            for t in singles:
                assert uni_eval(poly, t * t) == t
            for t in doubles:
                assert uni_eval(poly, t * t) == t
                assert uni_eval(deriv, t * t) == F(1, 2 * t)

    @staticmethod
    def vandermonde_solve(singles, doubles):
        """The interpolant from the confluent Vandermonde system in x = t^2."""
        n = len(singles) + 2 * len(doubles)
        rows, rhs = [], []
        for t in list(singles) + list(doubles):
            rows.append([(t * t) ** i for i in range(n)])
            rhs.append(t)
        for t in doubles:
            rows.append([i * (t * t) ** (i - 1) if i else 0 for i in range(n)])
            rhs.append(F(1, 2 * t))
        return UniPoly(solve_fraction_free(rows, rhs))

    def test_newton_form_matches_the_vandermonde_solve(self):
        cases = [
            (LOWER_SINGLE_NODES, LOWER_DOUBLE_NODES),
            (UPPER_SINGLE_NODES, UPPER_DOUBLE_NODES),
        ]
        rng = random.Random(20261018)
        pool = sorted({F(p, q) for q in (3, 5, 7, 8, 11, 13, 19) for p in range(1, 2 * q)})
        for shape in ("zero-single", "doubles-only", "mixed") * 17:
            nodes = rng.sample(pool, rng.randint(1, 6))
            if shape == "doubles-only":
                cases.append(((), nodes))
            else:
                cut = rng.randint(0, len(nodes))
                singles = nodes[:cut] + ([F(0)] if shape == "zero-single" else [])
                rng.shuffle(singles)
                cases.append((singles, nodes[cut:]))
        for singles, doubles in cases:
            assert hermite_interpolate(singles, doubles) == \
                self.vandermonde_solve(singles, doubles), (singles, doubles)

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            hermite_interpolate([], [])
        with pytest.raises(UsageError):
            hermite_interpolate([F(1, 2), F(1, 2)], [])
        with pytest.raises(UsageError):
            hermite_interpolate([F(1, 2)], [F(1, 2)])
        with pytest.raises(UsageError):
            hermite_interpolate([], [F(1, 3), F(1, 3)])
        with pytest.raises(UsageError):
            hermite_interpolate([F(-1, 2)], [])
        with pytest.raises(UsageError):
            hermite_interpolate([], [F(0)])


class TestVerifyBoundPolynomial:
    def test_identity_is_lower_bound_on_unit_interval(self):
        # t - t^2 >= 0 exactly on [0, 1]
        result = verify_bound_polynomial(UniPoly((0, 1)), "lower", 1, 1)
        assert result

    def test_tangent_line_is_upper_bound_everywhere(self):
        # (1 + x)/2 - sqrt(x) = (sqrt(x) - 1)^2 / 2 >= 0
        poly = UniPoly((F(1, 2), F(1, 2)))
        assert verify_bound_polynomial(poly, "upper", 9, 3)

    def test_failure_produces_exact_witness(self):
        result = verify_bound_polynomial(UniPoly((0, 1)), "lower", 4, 2)
        assert not result
        g = error_polynomial(UniPoly((0, 1)), "lower")
        assert 1 < result.witness <= 2
        assert result.witness_value == uni_eval(g, result.witness)
        assert result.witness_value < 0

    def test_bprime_must_cover_sqrt_of_b(self):
        with pytest.raises(UsageError):
            verify_bound_polynomial(UniPoly((0, 1)), "lower", F(3, 4), F(5, 6))
        with pytest.raises(UsageError):
            verify_bound_polynomial(UniPoly((0, 1)), "sideways", 1, 1)
        with pytest.raises(UsageError):
            verify_bound_polynomial(UniPoly((0, 1)), "lower", 0, 1)

    def test_default_bprime_is_tight_sqrt_overestimate(self):
        assert upper_sqrt_rational(F(3, 4)) == F(13, 15)
        assert upper_sqrt_rational(F(1, 12)) == F(13, 45)
        assert upper_sqrt_rational(F(1, 4)) == F(1, 2)
        for b in (F(3, 4), F(1, 12), F(2, 7), F(9)):
            bp = upper_sqrt_rational(b)
            assert bp * bp >= b
            assert bp.denominator <= 64


class TestCanonicalCertificates:
    def test_lower_certificate(self, free_table):
        cert = lower_area_certificate(free_table)
        assert cert.verified
        assert cert.side == "lower"
        assert cert.poly.degree == 7
        # the single node at t=0 forces a vanishing constant term
        assert cert.poly.coeffs[0] == 0
        assert cert.interval_b == FREE_B == F(3, 4)
        assert cert.bprime == FREE_BPRIME == F(13, 15)
        assert cert.bound > PIVOT
        assert abs(float(cert.bound) - 0.0469426072942836) < 1e-15

    def test_upper_certificate(self, fixed_table):
        cert = upper_area_certificate(fixed_table)
        assert cert.verified
        assert cert.side == "upper"
        assert cert.poly.degree == 15
        assert cert.interval_b == FIXED_B == F(1, 12)
        assert cert.bprime == FIXED_BPRIME == F(3, 10)
        assert cert.bound < PIVOT
        assert abs(float(cert.bound) - 0.046941181924980355) < 1e-15

    def test_lower_error_polynomial_root_structure(self, free_table):
        cert = lower_area_certificate(free_table)
        g = error_polynomial(cert.poly, "lower")
        g1 = UniPoly(ref_derivative(g.coeffs))
        g2 = UniPoly(ref_derivative(g1.coeffs))
        for t in LOWER_DOUBLE_NODES:
            assert uni_eval(g, t) == 0
            assert uni_eval(g1, t) == 0
            assert uni_eval(g2, t) != 0
        for t in LOWER_SINGLE_NODES:
            assert uni_eval(g, t) == 0
            assert uni_eval(g1, t) != 0
        # the multiplicity structure is visible in the squarefree split
        multiplicity = {}
        for mult, factor in _yun_ints(_int_coeffs(g, positive_lead=True)):
            for t in LOWER_SINGLE_NODES + LOWER_DOUBLE_NODES:
                if uni_eval(UniPoly(factor), t) == 0:
                    multiplicity[t] = mult
        for t in LOWER_SINGLE_NODES:
            assert multiplicity[t] == 1
        for t in LOWER_DOUBLE_NODES:
            assert multiplicity[t] == 2

    def test_lower_bound_fails_beyond_last_touch_point(self, free_table):
        # the error changes sign at the simple node t = 47/54, so widening
        # the verified interval past it must fail with a witness
        cert = lower_area_certificate(free_table)
        g = error_polynomial(cert.poly, "lower")
        assert uni_eval(g, F(7, 8)) < 0
        result = verify_bound_polynomial(cert.poly, "lower", FREE_B, F(7, 8))
        assert not result
        assert result.witness_value < 0
        assert F(47, 54) < result.witness <= F(7, 8)

    def test_upper_certificate_with_default_interval(self, fixed_table):
        # the default endpoint 13/45 < 3/10 also verifies
        cert = build_certificate(
            "upper", (), UPPER_DOUBLE_NODES, fixed_table, FIXED_B
        )
        assert cert.bprime == F(13, 45)
        assert cert.verified

    def test_degree_six_lower_bounds_stay_under_threshold(self, free_table):
        # degree 6 is structurally unable to reach the pivot: verified
        # examples land below 0.04647, matching the grid-program optimum
        for doubles in ([F(2, 19), F(4, 15), F(8, 17)], [F(3, 28), F(5, 18), F(20, 41)]):
            cert = build_certificate(
                "lower", [F(0)], doubles, free_table, FREE_B, FREE_BPRIME
            )
            assert cert.poly.degree == 6
            assert cert.bound < F(4647, 100000)
            assert cert.bound < PIVOT

    def test_build_certificate_raises_on_invalid_bound(self, free_table):
        # tangent line at x=1 undershoots sqrt for x > 1, so it is not an
        # upper bound out to B=9 ... as a lower bound it fails near 0
        with pytest.raises(VerificationError):
            build_certificate("lower", [F(1)], [], free_table, 1, 1)


class TestBoundFromMoments:
    def test_short_table_raises_capacity(self, free_table):
        short = moment_table("free", 5)
        poly = hermite_interpolate(LOWER_SINGLE_NODES, LOWER_DOUBLE_NODES)
        with pytest.raises(CapacityError) as err:
            bound_from_moments(poly, short)
        assert "14" in str(err.value)
        assert bound_from_moments(poly, free_table) > PIVOT

    def test_constant_polynomial_bound(self, free_table):
        assert bound_from_moments(UniPoly((F(1, 2),)), free_table) == F(1, 2)


class TestVerifyCounterexample:
    def test_full_report(self, free_table, fixed_table):
        report = verify_counterexample(free_table, fixed_table)
        assert report["confirmed"] is True
        second = report["second_moment"]
        assert second["free"] == F(9, 1600)
        assert second["fixed"] == F(7, 2400)
        assert second["fixed_below_free"] is True
        assert second["gap"] == F(13, 4800)
        assert report["pivot"] == F(23471, 500000)
        assert report["lower_bound_above_pivot"] is True
        assert report["upper_bound_below_pivot"] is True
        lower = report["lower_certificate"]
        upper = report["upper_certificate"]
        assert upper.bound < PIVOT < lower.bound
        assert report["mean_separation"] == lower.bound - upper.bound
        assert report["mean_separation_positive"] is True
        assert abs(float(report["mean_separation"]) - 1.4253693032471135e-06) < 1e-18

    def test_truncated_tables_raise_capacity(self, free_table, fixed_table):
        with pytest.raises(CapacityError) as err:
            verify_counterexample(moment_table("free", 5), fixed_table)
        assert "k=7" in str(err.value)
        with pytest.raises(CapacityError) as err:
            verify_counterexample(free_table, moment_table("fixed-centroid", 5))
        assert "k=15" in str(err.value)

    def test_swapped_tables_raise_usage(self, free_table, fixed_table):
        with pytest.raises(UsageError):
            verify_counterexample(fixed_table, free_table)


class TestCertificateJson:
    def test_roundtrip(self, free_table):
        cert = lower_area_certificate(free_table)
        data = certificate_to_json(cert)
        assert data["side"] == "lower"
        assert data["interval_B"] == "3/4"
        assert data["interval_Bprime"] == "13/15"
        assert data["verified"] is True
        assert data["nodes"]["double"] == ["2/19", "4/15", "8/17"]
        back = certificate_from_json(data)
        assert back == cert


class TestSupportBounds:
    # D = 4 area^2 is a convex quadratic in each vertex while the others
    # stay fixed (the squared distance to a line), so its maximum over
    # T3 = conv{0, e1, e2, e3} sits at a tuple of vertices
    CORNERS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def max_quarter_gram(self, case, free_vertices):
        gram = build_gram_poly(case)
        return max(
            gram.evaluate([F(c) for corner in tup for c in corner]) / 4
            for tup in itertools.product(self.CORNERS, repeat=free_vertices)
        )

    def test_free_bound_is_vertex_maximum(self):
        assert self.max_quarter_gram("free", 3) == FREE_B

    def test_fixed_bound_is_vertex_maximum(self):
        # the pinned vertex (1/3, 1/3, 1/3) is built into the fixed Gram polynomial
        assert self.max_quarter_gram("fixed-centroid", 2) == FIXED_B
