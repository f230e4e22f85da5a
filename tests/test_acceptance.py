"""End-to-end acceptance checks for the headline results.

Each test freezes one deliverable of the package at its stated tolerance
and wall-clock budget:

* exact even-moment tables for both cases through k = 5,
* chord-power closed forms and their four-digit decimal values,
* the pinned-to-free moment ratio law,
* the strict second-moment comparison with its exact gap,
* grid node searches whose exact optima show that low polynomial degrees
  cannot cross the decision thresholds on a 200-point grid,
* the canonical certificates whose bounds straddle the pivot value,
* Monte Carlo reproduction of the mean-volume decimals,
* dimension-lifting convergence sweeps, and
* a cross-section of the property suite (serialization round-trips,
  thread-count determinism, exact-versus-sampled agreement, and the
  agreement of the Sturm verdict with dense evaluation).
"""

import math
import time
from fractions import Fraction as F

import pytest

from simplexmoments.certificates import (
    PIVOT,
    bound_from_moments,
    error_polynomial,
    verify_bound_polynomial,
    verify_counterexample,
)
from simplexmoments.chords import (
    TriangleSpec,
    chord_moment,
    edgepoint_moment,
    ratio_r,
)
from simplexmoments.exact import sturm_nonneg_on_interval, uni_eval
from simplexmoments.geometry import cube, tetrahedron_T3, triangle_T2
from simplexmoments.lifting import (
    boundary_convergence_sweep,
    interior_convergence_sweep,
)
from simplexmoments.lp import node_search
from simplexmoments.mc import CHUNK_SIZE, estimate_moment
from simplexmoments.tetra import MomentTable, even_moment, moment_table

# Frozen expected values.  The moment entries were cross-checked against
# an independent expansion of the squared-volume polynomial (see
# tests/test_tetra.py); the chord constants against closed-form
# integration of the planar kernels (see tests/test_chords.py).
FREE_EVEN_MOMENTS = {
    1: F(9, 1600),
    2: F(27, 196000),
    3: F(3161, 379330560),
    4: F(93957, 106247680000),
    5: F(209022679, 1551386124288000),
}

FIXED_EVEN_MOMENTS = {
    1: F(7, 2400),
    2: F(11, 529200),
    3: F(2839, 10973491200),
    4: F(29419, 6224027040000),
    5: F(4134139, 36352301290905600),
}

LOWER_LP_CEILING = F(4647, 100000)
UPPER_LP_FLOOR = F(4699, 100000)


@pytest.fixture(scope="module")
def free_table():
    return moment_table("free", 7)


@pytest.fixture(scope="module")
def fixed_table():
    return moment_table("fixed-centroid", 15)


@pytest.fixture(scope="module")
def report(free_table, fixed_table):
    return verify_counterexample(free_table, fixed_table)


def assert_proved(cert, table):
    """Re-prove a certificate from its own fields, independently of how it was made."""
    assert verify_bound_polynomial(cert.poly, cert.side, cert.interval_b, cert.bprime)
    assert bound_from_moments(cert.poly, table) == cert.bound


def right_isosceles():
    return TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))


class TestEvenMomentTables:
    def test_free_case_exact_through_k5(self):
        start = time.perf_counter()
        table = moment_table("free", 5)
        elapsed = time.perf_counter() - start
        for k, expected in FREE_EVEN_MOMENTS.items():
            value = table.value(k)
            assert isinstance(value, F)
            assert value == expected
        assert elapsed < 300.0

    def test_fixed_centroid_case_exact_through_k5(self):
        start = time.perf_counter()
        table = moment_table("fixed-centroid", 5)
        elapsed = time.perf_counter() - start
        for k, expected in FIXED_EVEN_MOMENTS.items():
            value = table.value(k)
            assert isinstance(value, F)
            assert value == expected
        assert elapsed < 300.0


class TestChordClosedForms:
    def test_exact_rational_values(self):
        spec = right_isosceles()
        mid = math.sqrt(2.0) / 2.0
        assert abs(chord_moment(spec, 2) - F(2, 9)) < 1e-10
        assert abs(chord_moment(spec, 4) - F(1, 10)) < 1e-10
        assert abs(edgepoint_moment(spec, mid, 2) - F(1, 6)) < 1e-10
        assert abs(edgepoint_moment(spec, mid, 4) - F(7, 180)) < 1e-10

    def test_four_digit_decimals(self):
        spec = right_isosceles()
        mid = math.sqrt(2.0) / 2.0
        assert abs(chord_moment(spec, 1) - 0.4142) < 1e-4
        assert abs(chord_moment(spec, 3) - 0.1405) < 1e-4
        assert abs(edgepoint_moment(spec, mid, 1) - 0.3825) < 1e-4
        assert abs(edgepoint_moment(spec, mid, 3) - 0.0783) < 1e-4


class TestPinningRatioLaw:
    def test_matches_moment_quotient(self):
        spec = right_isosceles()
        mid = math.sqrt(2.0) / 2.0
        for k in range(1, 13):
            quotient = edgepoint_moment(spec, mid, k) / chord_moment(spec, k)
            assert abs(ratio_r(k) - quotient) < 1e-10

    def test_below_one_and_strictly_decreasing(self):
        values = [ratio_r(k) for k in range(1, 51)]
        assert values[0] < 1.0
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSecondMomentComparison:
    def test_pinned_strictly_below_free_with_exact_gap(self):
        free = even_moment("free", 1)
        fixed = even_moment("fixed-centroid", 1)
        assert free == F(9, 1600)
        assert fixed == F(7, 2400)
        assert fixed < free
        assert free - fixed == F(13, 4800)


class TestNodeSearchThresholds:
    def test_degree6_lower_optimum_misses_threshold(self, free_table):
        start = time.perf_counter()
        found = node_search(free_table, 6, 200, F(7, 8), "lower")
        elapsed = time.perf_counter() - start
        assert found["status"] == "optimal"
        objective = found["objective"]
        assert isinstance(objective, F)
        assert objective < LOWER_LP_CEILING
        assert elapsed < 600.0

    def test_degree14_upper_optimum_misses_threshold(self, fixed_table):
        start = time.perf_counter()
        found = node_search(fixed_table, 14, 200, F(3, 10), "upper")
        elapsed = time.perf_counter() - start
        assert found["status"] == "optimal"
        objective = found["objective"]
        assert isinstance(objective, F)
        assert objective > UPPER_LP_FLOOR
        assert elapsed < 600.0


class TestCanonicalCertificates:
    def test_lower_certificate_exceeds_pivot(self, report, free_table):
        cert = report["lower_certificate"]
        assert_proved(cert, free_table)
        assert cert.poly.degree == 7
        assert cert.single_nodes == (F(0), F(47, 54))
        assert cert.double_nodes == (F(2, 19), F(4, 15), F(8, 17))
        assert isinstance(cert.bound, F)
        assert cert.bound > PIVOT

    def test_upper_certificate_below_pivot(self, report, fixed_table):
        cert = report["upper_certificate"]
        assert_proved(cert, fixed_table)
        assert cert.poly.degree == 15
        assert len(cert.double_nodes) == 8
        assert isinstance(cert.bound, F)
        assert cert.bound < PIVOT

    def test_counterexample_report_confirms(self, free_table, fixed_table):
        report = verify_counterexample(free_table, fixed_table)
        assert report["confirmed"] is True
        assert report["second_moment"]["fixed_below_free"] is True
        assert report["lower_bound_above_pivot"] is True
        assert report["upper_bound_below_pivot"] is True
        assert report["mean_separation_positive"] is True


class TestMonteCarloDecimals:
    def test_mean_volume_free_and_pinned(self):
        body = tetrahedron_T3()
        start = time.perf_counter()
        free = estimate_moment(
            body, 3, 1, samples=10**6, seed=31415, threads=4
        )
        pinned = estimate_moment(
            body,
            3,
            1,
            fixed=(1 / 3, 1 / 3, 1 / 3),
            samples=10**6,
            seed=31416,
            threads=4,
        )
        elapsed = time.perf_counter() - start
        assert abs(free.mean - 0.0592) < 3 * free.std_error
        assert abs(pinned.mean - 0.0466) < 3 * pinned.std_error
        assert pinned.mean < free.mean
        assert elapsed < 120.0

    def test_same_seed_reproduces_exactly(self):
        body = tetrahedron_T3()
        first = estimate_moment(
            body, 3, 1, samples=CHUNK_SIZE + 12345, seed=31415, threads=1
        )
        second = estimate_moment(
            body, 3, 1, samples=CHUNK_SIZE + 12345, seed=31415, threads=4
        )
        assert first.mean == second.mean
        assert first.std_error == second.std_error


class TestLiftingSweeps:
    EPS = [F(1, 2), F(1, 8), F(1, 32)]

    def test_interior_sweep_approaches_planar_value(self):
        start = time.perf_counter()
        result = interior_convergence_sweep(
            triangle_T2(),
            2,
            2,
            self.EPS,
            samples=200000,
            seed=71,
            threads=4,
            reference=F(2, 9),
        )
        elapsed = time.perf_counter() - start
        assert result["verdict"] in ("converged", "converged within noise")
        rows = result["rows"]
        assert rows[-1]["abs_error"] < rows[0]["abs_error"]
        assert rows[-1]["abs_error"] < 3 * rows[-1]["sigma"] + (1 / 32) ** 2
        assert elapsed < 300.0

    def test_boundary_sweep_approaches_planar_value(self):
        start = time.perf_counter()
        result = boundary_convergence_sweep(
            triangle_T2(),
            2,
            2,
            self.EPS,
            samples=200000,
            seed=72,
            threads=4,
            reference=F(2, 9),
        )
        elapsed = time.perf_counter() - start
        assert result["verdict"] in ("converged", "converged within noise")
        rows = result["rows"]
        for row in rows:
            assert row["flat_weight_consistent"]
        assert rows[-1]["abs_error"] < rows[0]["abs_error"] + 6 * rows[-1]["sigma"]
        assert elapsed < 300.0


class TestPropertyCrossSection:
    def test_moment_table_json_round_trip(self, free_table):
        again = MomentTable.from_json(free_table.to_json())
        assert again.case == free_table.case
        assert again.k_max == free_table.k_max
        assert again.values == free_table.values

    def test_sturm_verdict_matches_dense_evaluation(self, report):
        cert = report["lower_certificate"]
        g = error_polynomial(cert.poly, "lower")
        for i in range(401):
            t = cert.bprime * F(i, 400)
            assert uni_eval(g, t) >= 0
        result = sturm_nonneg_on_interval(g, F(0), cert.bprime)
        assert result.nonnegative

    def test_sampled_second_moment_matches_exact(self):
        est = estimate_moment(triangle_T2(), 2, 2, samples=200000, seed=5, threads=2)
        assert abs(est.mean - 2 / 9) < 4 * est.std_error

    def test_thread_count_never_changes_results(self):
        body = cube(2)
        samples = 2 * CHUNK_SIZE + 333
        one = estimate_moment(body, 3, 1, samples=samples, seed=17, threads=1)
        five = estimate_moment(body, 3, 1, samples=samples, seed=17, threads=5)
        assert one.mean == five.mean
        assert one.std_error == five.std_error


class TestPublicNames:
    def test_root_exports_exactly_the_public_api(self):
        import simplexmoments

        assert sorted(simplexmoments.__all__) == [
        "Body", "CHUNK_SIZE", "CapacityError", "Certificate", "DomainError",
        "EstimateWithError", "FIXED_B", "FIXED_BPRIME", "FIXED_KMAX_LIMIT", "FREE_B",
        "FREE_BPRIME", "FREE_KMAX_LIMIT", "LOWER_DOUBLE_NODES", "LOWER_SINGLE_NODES",
        "MomentTable", "NonnegResult", "PIVOT", "RNG_ALGORITHM", "RngStream",
        "SturmChain", "TriangleSpec", "UPPER_DOUBLE_NODES", "UPPER_SINGLE_NODES",
        "UniPoly", "UsageError", "VerificationError", "__version__", "ball",
        "body_measures", "bound_from_moments", "boundary_convergence_sweep",
        "build_certificate", "certificate_to_json", "chord_moment", "contains",
        "csc_power_antiderivative", "cube", "edgepoint_moment", "error_polynomial",
        "estimate_moment", "even_moment", "format_rational", "halfball",
        "hermite_interpolate", "interior_convergence_sweep", "is_polytopal",
        "moment_table", "node_search", "parse_rational", "polygon_edges",
        "product", "ratio_r", "rationalize", "sample_boundary_uniform",
        "sample_uniform", "standard_simplex", "sturm_nonneg_on_interval",
        "tetrahedron_T3", "triangle_T2", "uni_eval", "upper_sqrt_rational",
        "verify_bound_polynomial", "verify_counterexample", "vertex_moment",
        ]
        for name in simplexmoments.__all__:
            assert getattr(simplexmoments, name) is not None, name
