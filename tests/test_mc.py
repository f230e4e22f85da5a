"""Tests for the Monte Carlo samplers and moment estimators."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import _gram_det_exact, boundary_residual
from simplexmoments.chords import (
    EdgePointSpec,
    TriangleSpec,
    chord_moment,
    edgepoint_moment,
)
from simplexmoments.errors import DomainError, UsageError
from simplexmoments.geometry import (
    Body,
    ball,
    contains,
    cube,
    halfball,
    product,
    standard_simplex,
    tetrahedron_T3,
    triangle_T2,
)
from simplexmoments.mc import (
    CHUNK_SIZE,
    EstimateWithError,
    RngStream,
    _chunk_stats,
    _combine_chunks,
    _run_chunks,
    _simplex_volumes,
    estimate_moment,
    sample_boundary_uniform,
    sample_uniform,
)

T2_HYP = TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))


def three_sigma(estimate: EstimateWithError, target: float, slack: float = 0.0) -> bool:
    return abs(estimate.mean - target) <= 3.0 * estimate.std_error + slack


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator().random(8)
        b = RngStream(123, 5).generator().random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).generator().random(8)
        b = RngStream(123, 6).generator().random(8)
        c = RngStream(124, 5).generator().random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    # a key built from a Python tuple went through float64 for words of
    # 2**63 and above: -1 warned on an undefined cast, 2**63 + 1 lost bit 0
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_seed_is_its_uint64_word(self):
        a = RngStream(-1, 3).generator().random(8)
        b = RngStream(2**64 - 1, 3).generator().random(8)
        assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_high_seeds_keep_their_low_bits(self):
        a = RngStream(2**63).generator().random(8)
        b = RngStream(2**63 + 1).generator().random(8)
        assert not np.array_equal(a, b)


class TestSampleUniform:
    def test_cube_mean(self):
        pts = sample_uniform(cube(2), RngStream(7), size=1_000_000)
        sigma = math.sqrt(1.0 / 12.0 / 1_000_000)
        assert abs(pts[:, 0].mean() - 0.5) < 3 * sigma
        assert abs(pts[:, 1].mean() - 0.5) < 3 * sigma

    def test_t3_mean_is_centroid(self):
        pts = sample_uniform(tetrahedron_T3(), RngStream(11), size=400_000)
        # coordinates are Dirichlet(1,1,1,1) marginals: var = 3/80
        sigma = math.sqrt(3.0 / 80.0 / 400_000)
        for j in range(3):
            assert abs(pts[:, j].mean() - 0.25) < 3 * sigma
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1)

    def test_halfball_membership(self):
        pts = sample_uniform(halfball(3), RngStream(13), size=50_000)
        assert np.all(pts[:, 2] >= 0)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1 + 1e-12)

    def test_ball_radial_law(self):
        pts = sample_uniform(ball(2), RngStream(17), size=400_000)
        r2 = (pts**2).sum(axis=1)
        # E r^2 = 1/2 and Var r^2 = 1/12 for the uniform disk
        sigma = math.sqrt(1.0 / 12.0 / 400_000)
        assert abs(r2.mean() - 0.5) < 3 * sigma

    def test_product_membership(self):
        body = product(triangle_T2(), F(1, 10))
        pts = sample_uniform(body, RngStream(19), size=20_000)
        assert np.all(pts[:, 2] >= 0)
        assert np.all(pts[:, 2] <= 0.1)
        assert np.all(pts[:, 0] + pts[:, 1] <= 1)
        for row in pts[:50]:
            assert contains(body, tuple(map(float, row)), tol=1e-12)

    def test_simplex_points_match_row_sum_normalization(self):
        # reference: the row-sum form the sampler replaced, for <= 7 columns
        for d in range(1, 7):
            for m in (1, 5, 777, CHUNK_SIZE):
                stream = RngStream(109 + d, m)
                spacings = stream.generator().standard_exponential((m, d + 1))
                expected = spacings[:, :d] / spacings.sum(axis=1, keepdims=True)
                got = sample_uniform(standard_simplex(d), stream, size=m)
                assert np.array_equal(got, expected)

    def test_single_point_shape(self):
        pt = sample_uniform(cube(3), RngStream(23))
        assert pt.shape == (3,)

    def test_unsupported_kind(self):
        bogus = Body("torus", 3)
        with pytest.raises(UsageError):
            sample_uniform(bogus, RngStream(1), size=4)


class TestSampleBoundaryUniform:
    def test_points_lie_on_boundary(self):
        body = product(triangle_T2(), F(1, 4))
        pts = sample_boundary_uniform(body, RngStream(29), size=5_000)
        for row in pts[:500]:
            assert boundary_residual(body, tuple(map(float, row))) < 1e-12

    def test_flat_face_frequency_matches_weight(self):
        eps = 0.25
        body = product(triangle_T2(), F(1, 4))
        pts, flat = sample_boundary_uniform(
            body, RngStream(31), size=200_000, return_face_mask=True
        )
        # P(flat) = 2 vol / (2 vol + S eps) with vol = 1/2, S = 2 + sqrt(2)
        weight = 1.0 / (1.0 + (2.0 + math.sqrt(2.0)) * eps)
        sigma = math.sqrt(weight * (1 - weight) / 200_000)
        assert abs(flat.mean() - weight) < 3 * sigma

    def test_tiny_height_is_almost_all_flat(self):
        body = product(triangle_T2(), F(1, 10000))
        _, flat = sample_boundary_uniform(
            body, RngStream(37), size=50_000, return_face_mask=True
        )
        assert flat.mean() > 0.999

    def test_flat_restriction(self):
        body = product(triangle_T2(), F(1, 4))
        pts = sample_boundary_uniform(body, RngStream(41), size=10_000, faces="flat")
        z = pts[:, 2]
        assert np.all((z == 0.0) | (np.abs(z - 0.25) < 1e-15))
        # both flat faces get hit
        assert 0.4 < (z == 0.0).mean() < 0.6

    def test_unsupported_bodies(self):
        with pytest.raises(UsageError):
            sample_boundary_uniform(triangle_T2(), RngStream(1), size=4)
        with pytest.raises(UsageError):
            sample_boundary_uniform(product(ball(2), 1), RngStream(1), size=4)
        with pytest.raises(UsageError):
            sample_boundary_uniform(product(cube(1), 1), RngStream(1), size=4)


class TestSimplexVolumes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_exact_gram_determinant(self, n):
        rnd = random.Random(n)
        for d in range(n - 1, 7):
            # dyadic coordinates, so the float input is the rational input
            pts = [
                [[F(rnd.randint(-2**20, 2**20), 2**16) for _ in range(d)] for _ in range(n)]
                for _ in range(40)
            ]
            got = _simplex_volumes(np.array(pts, dtype=float))
            checked = 0
            for row, vol in zip(pts, got):
                det = _gram_det_exact(row)
                hadamard = math.prod(
                    sum((a - b) ** 2 for a, b in zip(p, row[0])) for p in row[1:]
                )
                if det < hadamard / 100:
                    continue  # ill-conditioned
                exact = math.sqrt(det) / math.factorial(n - 1)
                assert abs(vol - exact) <= 1e-9 * exact
                checked += 1
            assert checked >= 10

    def test_degenerate_simplices_are_exactly_zero(self):
        gen = RngStream(107).generator()
        for n in (2, 3, 4, 5):
            for i, j in itertools.combinations(range(n), 2):
                pts = gen.random((500, n, 4))
                pts[:, j] = pts[:, i]
                assert np.all(_simplex_volumes(pts) == 0)
            same = np.broadcast_to(gen.random(4), (50, n, 4)).copy()
            assert np.all(_simplex_volumes(same) == 0)

    def test_degenerate_simplex_has_zero_facets(self):
        pts = np.zeros((4, 3, 3))
        pts += np.array([0.3, 0.4, 0.1])
        totals = np.zeros(4)
        for skip in range(3):
            keep = [j for j in range(3) if j != skip]
            totals += _simplex_volumes(pts[:, keep, :])
        assert np.all(totals == 0)

    def test_axis_permutation_invariance(self):
        gen = RngStream(103).generator()
        pts = gen.random((2_000, 3, 3))
        totals = np.zeros(2_000)
        permuted = np.zeros(2_000)
        for skip in range(3):
            keep = [j for j in range(3) if j != skip]
            totals += _simplex_volumes(pts[:, keep, :])
            permuted += _simplex_volumes(pts[:, keep, :][:, :, [2, 0, 1]])
        assert np.allclose(totals, permuted, atol=1e-12)


class TestChunkMerge:
    def test_stable_near_1e8(self):
        gen = RngStream(113).generator()
        values = 1e8 + 1e-3 * gen.standard_normal(6 * 1000 + 37)
        chunks = [values[i : i + 1000] for i in range(0, values.size, 1000)]
        est = _combine_chunks([_chunk_stats(c) for c in chunks], seed=0)
        expected = np.std(values, ddof=1) / math.sqrt(values.size)
        assert est.samples == values.size
        assert abs(est.std_error - expected) <= 1e-6 * expected
        assert abs(est.mean - math.fsum(values) / values.size) <= 1e-7

    def test_single_sample_has_no_error_estimate(self):
        est = _combine_chunks([_chunk_stats(np.array([0.25]))], seed=0)
        assert est.mean == 0.25
        assert est.std_error == float("inf")


THREAD_CASES = {
    "pinned n=3": lambda threads: estimate_moment(
        tetrahedron_T3(), 3, 1, fixed=(1 / 3, 1 / 3, 1 / 3),
        samples=2 * CHUNK_SIZE + 321, seed=127, threads=threads,
    ),
    "n=2": lambda threads: estimate_moment(
        tetrahedron_T3(), 2, 1, samples=2 * CHUNK_SIZE + 321, seed=131, threads=threads
    ),
    "n=4": lambda threads: estimate_moment(
        tetrahedron_T3(), 4, 2, samples=2 * CHUNK_SIZE + 321, seed=137, threads=threads
    ),
}


@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_thread_count_bit_identity(case):
    one, two, four = (THREAD_CASES[case](threads) for threads in (1, 2, 4))
    assert one == two == four


class TestEstimateMoment:
    def test_segment_mean_distance(self):
        est = estimate_moment(cube(1), 2, 1, samples=400_000, seed=43)
        # E|x - y| = 1/3 on the unit segment
        assert three_sigma(est, 1.0 / 3.0)
        assert est.samples == 400_000
        assert est.seed == 43

    def test_t3_triangle_area_decimals(self):
        est = estimate_moment(tetrahedron_T3(), 3, 1, samples=400_000, seed=47)
        assert three_sigma(est, 0.0592, slack=5e-5)

    def test_t3_pinned_triangle_area_decimals(self):
        c3 = (1 / 3, 1 / 3, 1 / 3)
        est = estimate_moment(
            tetrahedron_T3(), 3, 1, fixed=c3, samples=400_000, seed=53
        )
        assert three_sigma(est, 0.0466, slack=5e-5)

    def test_consistency_with_exact_even_moments(self):
        t3 = tetrahedron_T3()
        est = estimate_moment(t3, 3, 2, samples=400_000, seed=59)
        assert three_sigma(est, 9.0 / 1600.0)
        est = estimate_moment(t3, 3, 4, samples=400_000, seed=61)
        assert three_sigma(est, 27.0 / 196000.0)
        est = estimate_moment(
            t3, 3, 2, fixed=(1 / 3, 1 / 3, 1 / 3), samples=400_000, seed=67
        )
        assert three_sigma(est, 7.0 / 2400.0)

    def test_consistency_with_chord_formulas(self):
        t2 = triangle_T2()
        est = estimate_moment(t2, 2, 1, samples=400_000, seed=71)
        assert three_sigma(est, chord_moment(T2_HYP, 1))
        est = estimate_moment(t2, 2, 2, samples=400_000, seed=73)
        assert three_sigma(est, 2.0 / 9.0)
        # fixed midpoint of the hypotenuse: (1/2, 1/2) in coordinates
        est = estimate_moment(
            t2, 2, 1, fixed=(0.5, 0.5), samples=400_000, seed=79
        )
        assert three_sigma(est, edgepoint_moment(T2_HYP, EdgePointSpec(math.sqrt(2) / 2), 1))
        est = estimate_moment(
            t2, 2, 2, fixed=(0.5, 0.5), samples=400_000, seed=83
        )
        assert three_sigma(est, 1.0 / 6.0)

    def test_deterministic_and_thread_invariant(self):
        t3 = tetrahedron_T3()
        n = 3 * CHUNK_SIZE + 777
        a = estimate_moment(t3, 3, 1, samples=n, seed=89)
        b = estimate_moment(t3, 3, 1, samples=n, seed=89)
        c = estimate_moment(t3, 3, 1, samples=n, seed=89, threads=4)
        assert a == b == c
        d = estimate_moment(t3, 3, 1, samples=n, seed=90)
        assert d.mean != a.mean

    def test_argument_validation(self):
        t3 = tetrahedron_T3()
        with pytest.raises(UsageError):
            estimate_moment(t3, 5, 1, samples=10, seed=1)
        with pytest.raises(UsageError):
            estimate_moment(t3, 1, 1, samples=10, seed=1)
        with pytest.raises(UsageError):
            estimate_moment(t3, 3, 0, samples=10, seed=1)
        with pytest.raises(UsageError):
            estimate_moment(t3, 3, 1, samples=0, seed=1)
        with pytest.raises(UsageError):
            estimate_moment(t3, 3, 1, fixed=(0.5, 0.5), samples=10, seed=1)
        with pytest.raises(DomainError):
            estimate_moment(t3, 3, 1, fixed=(2.0, 2.0, 2.0), samples=10, seed=1)

    def test_threads_below_one_refused_before_any_chunk(self):
        chunks = []

        def worker(chunk_index, size):
            chunks.append(chunk_index)
            return np.zeros(size), 0

        for threads in (0, -3):
            with pytest.raises(UsageError):
                estimate_moment(tetrahedron_T3(), 3, 1, samples=10, seed=1, threads=threads)
            with pytest.raises(UsageError):
                _run_chunks(worker, 10, 1, threads)
        assert chunks == []
