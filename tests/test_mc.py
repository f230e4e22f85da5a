"""Tests for the Monte Carlo samplers and moment estimators."""

import hashlib
import itertools
import json
import math
import os
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import _gram_det_exact, boundary_residual, simplex_volumes_unblocked
from simplexmoments.chords import (
    TriangleSpec,
    chord_moment,
    edgepoint_moment,
)
from simplexmoments.errors import CapacityError, DomainError, UsageError
from simplexmoments.geometry import (
    Body,
    ball,
    body_measures,
    contains,
    cube,
    halfball,
    product,
    standard_simplex,
    tetrahedron_T3,
    triangle_T2,
)
from simplexmoments.lifting import boundary_convergence_sweep, interior_convergence_sweep
from simplexmoments.mc import (
    _BLOCK_ROWS,
    CHUNK_SIZE,
    EstimateWithError,
    RngStream,
    _chunk_stats,
    _combine_chunks,
    _draw,
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
        pts = sample_uniform(cube(2), RngStream(7).generator(), size=1_000_000)
        sigma = math.sqrt(1.0 / 12.0 / 1_000_000)
        assert abs(pts[:, 0].mean() - 0.5) < 3 * sigma
        assert abs(pts[:, 1].mean() - 0.5) < 3 * sigma

    def test_t3_mean_is_centroid(self):
        pts = sample_uniform(tetrahedron_T3(), RngStream(11).generator(), size=400_000)
        # coordinates are Dirichlet(1,1,1,1) marginals: var = 3/80
        sigma = math.sqrt(3.0 / 80.0 / 400_000)
        for j in range(3):
            assert abs(pts[:, j].mean() - 0.25) < 3 * sigma
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1)

    def test_halfball_membership(self):
        pts = sample_uniform(halfball(3), RngStream(13).generator(), size=50_000)
        assert np.all(pts[:, 2] >= 0)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1 + 1e-12)

    def test_ball_radial_law(self):
        pts = sample_uniform(ball(2), RngStream(17).generator(), size=400_000)
        r2 = (pts**2).sum(axis=1)
        # E r^2 = 1/2 and Var r^2 = 1/12 for the uniform disk
        sigma = math.sqrt(1.0 / 12.0 / 400_000)
        assert abs(r2.mean() - 0.5) < 3 * sigma

    def test_product_membership(self):
        body = product(triangle_T2(), F(1, 10))
        pts = sample_uniform(body, RngStream(19).generator(), size=20_000)
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
                got = sample_uniform(standard_simplex(d), stream.generator(), size=m)
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "body",
        [tetrahedron_T3(), cube(3), ball(3), halfball(3), product(triangle_T2(), F(1, 4))],
        ids=lambda body: body.kind,
    )
    def test_points_are_contiguous_and_own_their_data(self, body):
        # the simplex sampler normalizes in place and returns a strided view
        for size in (1, 5):
            pts = sample_uniform(body, RngStream(29).generator(), size=size)
            assert pts.flags.c_contiguous and pts.flags.owndata

    def test_single_point_shape(self):
        pts = sample_uniform(cube(3), RngStream(23).generator(), size=1)
        assert pts.shape == (1, 3)

    @pytest.mark.parametrize("height", [0.1, 0.3, 1e-3, 2.0**-1074, 1e300])
    def test_float_height_is_its_exact_fraction(self, height):
        as_float = product(triangle_T2(), height)
        exact = product(triangle_T2(), F(height))
        assert as_float == exact and type(as_float.height) is F
        assert float(as_float.height) == height
        assert body_measures(as_float) == body_measures(exact)
        interior = [sample_uniform(body, RngStream(43).generator(), size=100)
                    for body in (as_float, exact)]
        assert np.array_equal(*interior)
        (pts_a, flat_a), (pts_b, flat_b) = (
            sample_boundary_uniform(body, RngStream(47).generator(), size=100)
            for body in (as_float, exact)
        )
        assert np.array_equal(pts_a, pts_b) and np.array_equal(flat_a, flat_b)

    def test_unsupported_kind(self):
        bogus = Body("torus", 3)
        with pytest.raises(UsageError):
            sample_uniform(bogus, RngStream(1).generator(), size=4)


class TestSampleBoundaryUniform:
    def test_points_lie_on_boundary(self):
        body = product(triangle_T2(), F(1, 4))
        pts, _ = sample_boundary_uniform(body, RngStream(29).generator(), size=5_000)
        for row in pts[:500]:
            assert boundary_residual(body, tuple(map(float, row))) < 1e-12

    def test_flat_face_frequency_matches_weight(self):
        eps = 0.25
        body = product(triangle_T2(), F(1, 4))
        pts, flat = sample_boundary_uniform(
            body, RngStream(31).generator(), size=200_000
        )
        # P(flat) = 2 vol / (2 vol + S eps) with vol = 1/2, S = 2 + sqrt(2)
        weight = 1.0 / (1.0 + (2.0 + math.sqrt(2.0)) * eps)
        sigma = math.sqrt(weight * (1 - weight) / 200_000)
        assert abs(flat.mean() - weight) < 3 * sigma

    def test_tiny_height_is_almost_all_flat(self):
        body = product(triangle_T2(), F(1, 10000))
        _, flat = sample_boundary_uniform(
            body, RngStream(37).generator(), size=50_000
        )
        assert flat.mean() > 0.999

    def test_flat_restriction(self):
        body = product(triangle_T2(), F(1, 4))
        pts, flat = sample_boundary_uniform(
            body, RngStream(41).generator(), size=10_000
        )
        z = pts[flat, 2]
        assert np.all((z == 0.0) | (np.abs(z - 0.25) < 1e-15))
        # both flat faces get hit
        assert 0.4 < (z == 0.0).mean() < 0.6

    def test_unsupported_bodies(self):
        with pytest.raises(UsageError):
            sample_boundary_uniform(triangle_T2(), RngStream(1).generator(), size=4)
        with pytest.raises(UsageError):
            sample_boundary_uniform(product(ball(2), 1), RngStream(1).generator(), size=4)
        with pytest.raises(UsageError):
            sample_boundary_uniform(product(cube(1), 1), RngStream(1).generator(), size=4)


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

    @pytest.mark.parametrize("pinned", [False, True], ids=["free", "origin"])
    @pytest.mark.parametrize(
        "m", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 17]
    )
    def test_blocks_match_the_unblocked_kernel(self, m, pinned):
        gen = RngStream(139, m).generator()
        for n in (2, 3, 4, 5):
            for d in range(n - 1, 6):
                pts = gen.random((m, n, d))
                if pinned:
                    pts[:, 0] = pts[0, 0]
                # a repeated vertex in the first and the last row
                pts[0, 1] = pts[0, 0]
                pts[-1, -1] = pts[-1, 0]
                if pinned:
                    got = _simplex_volumes(pts[:, 1:], origin=pts[0, 0])
                else:
                    got = _simplex_volumes(pts)
                assert np.array_equal(got, simplex_volumes_unblocked(pts))
                assert got[0] == 0.0 and got[-1] == 0.0

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


def _traced_peak(call) -> int:
    """tracemalloc peak of ``call()`` above what was allocated before it,
    after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fixed", [None, (1 / 3, 1 / 3, 1 / 3)], ids=["free", "pinned"])
def test_one_chunk_peak_memory(fixed):
    # one T3 triangle chunk, drawn a block of rows at a time: the chunk's
    # volumes plus three times one block's exponential draw (the draw
    # buffer, and the kernel's temporaries), where the whole chunk's draw
    # took 6 MiB (4 MiB pinned) and the peak 7.7 MiB (5.4 MiB)
    t3 = tetrahedron_T3()
    n_random = 3 if fixed is None else 2
    itemsize = np.dtype(float).itemsize
    block_draw_bytes = _BLOCK_ROWS * n_random * (t3.dim + 1) * itemsize
    peak = _traced_peak(
        lambda: estimate_moment(t3, 3, 1, fixed=fixed, samples=CHUNK_SIZE, seed=151)
    )
    assert peak <= CHUNK_SIZE * itemsize + 3 * block_draw_bytes


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 32)], ids=["1/2", "1/32"])
@pytest.mark.parametrize("mode", ["interior", "boundary"])
def test_one_prism_chunk_peak_memory(mode, eps):
    # a prism chunk holds its whole (2 * CHUNK_SIZE, 3) point array: the
    # heights fill the simplex base's spare column, and the boundary
    # sampler's other temporaries are block-sized; half the points' size
    # again covers the volumes and the kernel.  Before, the peaks were
    # 7.0 MiB (interior) and 5.7 and 7.6 MiB (boundary) for 3 MiB of points.
    prism = product(triangle_T2(), eps)
    point_bytes = 2 * CHUNK_SIZE * prism.dim * np.dtype(float).itemsize
    if mode == "interior":
        def call():
            estimate_moment(prism, 2, 2, samples=CHUNK_SIZE, seed=163)
    else:
        def call():
            boundary_convergence_sweep(
                triangle_T2(), 2, 2, [eps], samples=CHUNK_SIZE, seed=163, reference=F(2, 9)
            )
    assert _traced_peak(call) <= 1.5 * point_bytes


@pytest.mark.parametrize(
    "body, n", [(tetrahedron_T3(), 3), (cube(3), 4)], ids=["simplex", "cube"]
)
def test_streamed_chunk_equals_one_whole_draw(body, n):
    # the chunk worker draws and measures these bodies a block of rows at a
    # time, refilling one buffer; one draw of the whole chunk from the same
    # stream gives the same estimate, bit for bit
    size = 2 * _BLOCK_ROWS + 5
    pts = sample_uniform(body, RngStream(167, 0).generator(), size * n)
    gen = RngStream(167, 0).generator()
    buf, blocks = None, []
    for start in range(0, size, _BLOCK_ROWS):
        buf = _draw(body, gen, min(_BLOCK_ROWS, size - start) * n, buf)
        blocks.append(buf[:, : body.dim].copy())
    assert np.concatenate(blocks).tobytes() == pts.tobytes()
    # a buffer with fewer rows than the draw is left alone
    short = _draw(body, RngStream(167, 0).generator(), 7, buf[:3])
    assert short.shape[0] == 7 and short[:, : body.dim].tobytes() == pts[:7].tobytes()
    est = estimate_moment(body, n, 1, samples=size, seed=167)
    whole = _combine_chunks([_chunk_stats(_simplex_volumes(pts.reshape(size, n, body.dim)))], 167)
    assert est == whole


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


def test_concurrent_callers_share_the_worker_threads():
    # estimates from several caller threads at once share the kept worker
    # threads, with two thread counts in turn replacing the pool, and each
    # keeps its own chunk buffers: every one equals its serial value
    samples = CHUNK_SIZE + 3 * _BLOCK_ROWS + 7
    cases = [(body, seed, threads) for body in (tetrahedron_T3(), cube(2))
             for seed in (171, 173) for threads in (2, 3)]

    def run(case, threads):
        body, seed, _ = case
        return estimate_moment(body, 3, 1, samples=samples, seed=seed, threads=threads)

    serial = [run(case, 1) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(run, case, case[2]) for case in cases]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


class TestEstimateMoment:
    @pytest.mark.parametrize(
        "height, n, k", [(1e200, 3, 2), (1e154, 2, 1), (1e308, 2, 1)], ids=["1e200", "1e154", "1e308"]
    )
    def test_prisms_past_float64_refused_before_any_chunk(self, monkeypatch, height, n, k):
        # unchecked, 1e200 overflowed the volumes (a numpy warning and a nan
        # mean) and 1e154 the Gram determinant of a segment's length
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the refusal")

        monkeypatch.setattr("simplexmoments.mc._run_chunks", no_sampling)
        with pytest.raises(CapacityError, match="float64"):
            estimate_moment(product(triangle_T2(), height), n, k, samples=10, seed=1)

    def test_largest_accepted_prisms_give_finite_estimates(self):
        # inside the bound: D^2 and 10 samples times the squared volume fit
        for sweep in (interior_convergence_sweep, boundary_convergence_sweep):
            row = sweep(triangle_T2(), 2, 1, [1e153], samples=10, seed=1, reference=0)["rows"][0]
            assert math.isfinite(row["estimate"].mean) and math.isfinite(row["estimate"].std_error)
            assert 1e150 < row["estimate"].mean < 1e154

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
        assert three_sigma(est, edgepoint_moment(T2_HYP, math.sqrt(2) / 2, 1))
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


# Two full chunks and a partial one of 8193 trials: more than one row block
# of the volume kernel in every chunk, with a partial last block in each.
BLOCK_SAMPLES = 2 * CHUNK_SIZE + 8193
BLOCK_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "mc_blocks_golden.json")


def _estimate_record(est, **extra):
    record = {"mean": est.mean.hex(), "std_error": est.std_error.hex(), "samples": est.samples}
    record.update((key, value.hex()) for key, value in extra.items())
    return record


def _sweep_row_record(result):
    # the reference enters only the verdict, which is not recorded
    row = result["rows"][0]
    extra = {"flat_probability": row["flat_probability"]} if "flat_probability" in row else {}
    return _estimate_record(row["estimate"], **extra)


BLOCK_GOLDEN_CASES = {
    "T3 free n=3 k=1": lambda threads: _estimate_record(estimate_moment(
        tetrahedron_T3(), 3, 1, samples=BLOCK_SAMPLES, seed=211, threads=threads)),
    "T3 pinned n=3 k=1": lambda threads: _estimate_record(estimate_moment(
        tetrahedron_T3(), 3, 1, fixed=(1 / 3, 1 / 3, 1 / 3), samples=BLOCK_SAMPLES,
        seed=223, threads=threads)),
    "T2 n=3 k=2": lambda threads: _estimate_record(estimate_moment(
        triangle_T2(), 3, 2, samples=BLOCK_SAMPLES, seed=227, threads=threads)),
    "cube d=3 n=4": lambda threads: _estimate_record(estimate_moment(
        cube(3), 4, 1, samples=BLOCK_SAMPLES, seed=229, threads=threads)),
    "ball d=3 n=4": lambda threads: _estimate_record(estimate_moment(
        ball(3), 4, 1, samples=BLOCK_SAMPLES, seed=233, threads=threads)),
    "interior prism row": lambda threads: _sweep_row_record(interior_convergence_sweep(
        triangle_T2(), 3, 1, [F(1, 4)], fixed=(1 / 3, 1 / 3), samples=BLOCK_SAMPLES,
        seed=239, threads=threads, reference=F(1, 24))),
    "boundary sweep row": lambda threads: _sweep_row_record(boundary_convergence_sweep(
        triangle_T2(), 3, 1, [F(1, 4)], samples=BLOCK_SAMPLES, seed=241, threads=threads,
        reference=F(1, 24))),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", list(BLOCK_GOLDEN_CASES))
def test_multi_block_estimates_match_golden_file(case, threads):
    # frozen from the unblocked kernel, as float.hex: bit for bit
    with open(BLOCK_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["samples"] == BLOCK_SAMPLES
    assert sorted(golden["cases"]) == sorted(BLOCK_GOLDEN_CASES)
    assert BLOCK_GOLDEN_CASES[case](threads) == golden["cases"][case]


SAMPLER_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sampler_golden.json")
SAMPLER_BODIES = {
    "simplex:3": standard_simplex(3),
    "cube:2": cube(2),
    "ball:2": ball(2),
    "halfball:3": halfball(3),
    "T2 x [0, 1/4]": product(triangle_T2(), F(1, 4)),
    "T2 x [0, 0.1]": product(triangle_T2(), 0.1),
    "cube:2 x [0, 0.3]": product(cube(2), 0.3),
}


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("sampler", ["uniform", "boundary"])
def test_sampler_draws_match_golden_file(sampler):
    # frozen from the samplers before they took only a Generator and a size:
    # sha256 of the float64 point bytes and of the flat-face mask
    with open(SAMPLER_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(golden["uniform"]) | set(golden["boundary"]) == set(SAMPLER_BODIES)
    for name, case in golden[sampler].items():
        body = SAMPLER_BODIES[name]
        gen = RngStream(case["seed"]).generator()
        if sampler == "uniform":
            pts = sample_uniform(body, gen, golden["size"])
        else:
            pts, flat = sample_boundary_uniform(body, gen, golden["size"])
            assert _sha256(flat) == case["flat_mask"], name
        assert pts.shape == (golden["size"], body.dim) and pts.dtype == np.float64
        assert _sha256(pts) == case["points"], name
