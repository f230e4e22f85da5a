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

from oracles import (
    _gram_det_exact,
    boundary_residual,
    sample_boundary_unblocked,
    sample_uniform_points_first,
    simplex_volumes_unblocked,
)
from simplexmoments import lifting, mc
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
    _boundary_faces,
    _chunk_stats,
    _combine_chunks,
    _draw,
    _edge_volumes,
    _face_choice,
    _fill_edges,
    _row_dot,
    _run_chunks,
    estimate_moment,
    sample_boundary_uniform,
    sample_uniform,
)

T2_HYP = TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))


def three_sigma(estimate: EstimateWithError, target: float, slack: float = 0.0) -> bool:
    return abs(estimate.mean - target) <= 3.0 * estimate.std_error + slack


def kernel_volumes(pts: np.ndarray, origin=None) -> np.ndarray:
    """The package's volumes of an (m, n, d) vertex array (n - 1 vertices
    after ``origin``, as in ``_fill_edges``): its edge fill, then its
    Gram-Schmidt core."""
    n = pts.shape[1] + (origin is not None)
    edges = np.empty((n - 1, pts.shape[2], pts.shape[0]))
    _fill_edges(pts, origin, edges)
    return _edge_volumes(edges, np.empty(pts.shape[0]))


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

    @pytest.mark.parametrize("seed", [1.5, "1"])
    def test_seed_that_is_not_an_integer_refused_before_any_draw(self, monkeypatch, seed):
        # unchecked, these raised a bare TypeError from the key's "&"
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the seed was checked")

        monkeypatch.setattr(mc, "_draw", no_draw)
        monkeypatch.setattr(lifting, "estimate_moment", no_draw)
        monkeypatch.setattr(lifting, "_run_chunks", no_draw)
        with pytest.raises(UsageError, match="seed must be an integer"):
            estimate_moment(tetrahedron_T3(), 3, 1, samples=10, seed=seed)
        for sweep in (interior_convergence_sweep, boundary_convergence_sweep):
            with pytest.raises(UsageError, match="seed must be an integer"):
                sweep(triangle_T2(), 3, 1, [F(1, 2)], samples=10, seed=seed)
        with pytest.raises(UsageError, match="seed must be an integer"):
            RngStream(seed)

    def test_stream_index_outside_uint64_refused_and_numpy_seeds_kept(self):
        # unchecked, both indexes and np.int64 seeds raised a bare OverflowError
        for index in (-1, 2**64):
            with pytest.raises(UsageError, match="stream_index"):
                RngStream(1, index)
        a = RngStream(np.int64(5), 2).generator().random(8)
        b = RngStream(5, 2).generator().random(8)
        assert np.array_equal(a, b)


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

    @pytest.mark.parametrize("base", [cube(2), ball(2), halfball(2)], ids=lambda b: b.kind)
    def test_prism_over_a_base_without_a_spare_column(self, base):
        # the heights fill a plane of their own, whatever columns the
        # base's draw has
        prism = product(base, F(1, 2))
        pts = sample_uniform(prism, RngStream(31).generator(), size=1000)
        assert pts.shape == (1000, 3)
        assert all(contains(prism, row, tol=1e-12) for row in pts.tolist())
        one, two = (estimate_moment(prism, 3, 1, samples=CHUNK_SIZE + 99, seed=37, threads=t)
                    for t in (1, 2))
        assert one == two and math.isfinite(one.mean)

    @pytest.mark.parametrize("size", [1, 5, CHUNK_SIZE + 17])
    @pytest.mark.parametrize(
        "base",
        [triangle_T2(), cube(2), ball(2), halfball(2), product(triangle_T2(), F(1, 3))],
        ids=["T2", "cube:2", "ball:2", "halfball:2", "T2 x 1/3"],
    )
    def test_prism_points_match_the_points_first_draw(self, base, size):
        # a prism is drawn through its edge planes, the estimates' route, as
        # segments from the origin; all base points drawn at once and then
        # all heights give the same bytes, also past CHUNK_SIZE points,
        # where a ball or half-ball base is still drawn in one piece
        prism = product(base, F(1, 4))
        got = sample_uniform(prism, RngStream(197, size).generator(), size)
        want = sample_uniform_points_first(prism, RngStream(197, size).generator(), size)
        assert got.shape == want.shape == (size, prism.dim)
        assert got.tobytes() == want.tobytes()

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
        "sampler, body",
        [(sample_uniform, body) for body in (tetrahedron_T3(), cube(3), ball(3), halfball(3),
                                              product(triangle_T2(), F(1, 4)))]
        + [(lambda *args: sample_boundary_uniform(*args)[0], body)
           for body in (product(triangle_T2(), F(1, 4)), product(cube(2), 0.3))],
        ids=["simplex", "cube", "ball", "halfball", "product", "boundary T2", "boundary cube:2"],
    )
    def test_points_are_contiguous_and_own_their_data(self, sampler, body):
        # the simplex sampler normalizes in place and returns a strided view,
        # and both samplers draw their points as the edges of (d, size) planes
        for size in (1, 5):
            pts = sampler(body, RngStream(29).generator(), size)
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

    @pytest.mark.parametrize(
        "body, size",
        [(body, size) for size in (3 * _BLOCK_ROWS + 17, 1)
         for body in (product(triangle_T2(), F(1, 4)), product(triangle_T2(), F(1, 20000)),
                      product(cube(2), 0.3))],
        ids=["T2 x 1/4", "T2 x 1/20000", "cube:2 x 0.3",
             "T2 x 1/4, one point", "T2 x 1/20000, one point", "cube:2 x 0.3, one point"],
    )
    def test_blocks_match_one_whole_array_fill(self, body, size):
        # the sampler fills each face's rows a block at a time; over several
        # blocks, for a single point, and with a height so small that some
        # blocks hold no side-face row and one side face no row at all, it
        # draws exactly what whole-array masks draw
        pts, flat = sample_boundary_uniform(body, RngStream(173).generator(), size)
        want_pts, want_flat = sample_boundary_unblocked(body, RngStream(173).generator(), size)
        assert pts.tobytes() == want_pts.tobytes()
        assert flat.tobytes() == want_flat.tobytes()
        if body.height == F(1, 20000) and size > 1:
            sides = [np.count_nonzero(~flat[start : start + _BLOCK_ROWS])
                     for start in range(0, size, _BLOCK_ROWS)]
            assert 0 in sides and max(sides) > 0, sides
            faces, _h = _boundary_faces(body)
            weights = np.array([area for _tag, _payload, area in faces])
            per_face = np.bincount(_face_choice(weights, RngStream(173).generator(), size),
                                   minlength=len(faces))
            assert 0 in per_face[2:] and per_face[2:].any(), per_face

    @pytest.mark.parametrize("size", [1, 5, 3 * _BLOCK_ROWS + 17])
    @pytest.mark.parametrize(
        "weights",
        [[1.0, 1.0], [0.5, 0.5, 0.25, 0.25, 0.3535], [0.5, 0.5, 5e-5, 5e-5, 7e-5],
         [1.0, 0.0, 2.0, 0.0], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], [3.0]],
        ids=["two", "T2 prism", "thin prism", "zero weights", "seven", "one"],
    )
    def test_face_choice_equals_generator_choice(self, weights, size):
        # the inverse-CDF face choice gives Generator.choice's faces and
        # leaves the stream where choice leaves it
        weights = np.array(weights)
        gen, want_gen = RngStream(181, size).generator(), RngStream(181, size).generator()
        got = _face_choice(weights, gen, size)
        want = want_gen.choice(len(weights), size, p=weights / weights.sum())
        assert got.dtype == np.uint8
        assert got.astype(np.int64).tobytes() == want.tobytes()
        assert gen.random(3).tobytes() == want_gen.random(3).tobytes()

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
            got = kernel_volumes(np.array(pts, dtype=float))
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
                assert np.all(kernel_volumes(pts) == 0)
            same = np.broadcast_to(gen.random(4), (50, n, 4)).copy()
            assert np.all(kernel_volumes(same) == 0)

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
                want = simplex_volumes_unblocked(pts).tobytes()
                # also the layout the chunk worker passes: the simplex
                # sampler's draw, whose rows keep a spare column
                spare = np.empty((m * n, d + 1))[:, :d].reshape(m, n, d)
                spare[...] = pts
                for given in (pts, spare):
                    if pinned:
                        got = kernel_volumes(given[:, 1:], origin=given[0, 0])
                    else:
                        got = kernel_volumes(given)
                    assert got.tobytes() == want, (n, d, given.strides)
                    assert got[0] == 0.0 and got[-1] == 0.0

    @pytest.mark.parametrize("rows", [1, 17, _BLOCK_ROWS])
    def test_row_dot_adds_in_einsum_order(self, rows):
        # the kernel's dot products on (d, rows) planes give the bits of
        # einsum on (rows, d) arrays, the kernel that froze the goldens,
        # also past 8 coordinates, where einsum nests groups of 8
        gen = RngStream(191, rows).generator()
        for d in range(1, 20):
            x, y = gen.standard_normal((2, rows, d))
            for a, b in ((x, y), (x, x)):
                want = np.einsum("md,md->m", a, b)
                got = _row_dot(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
                assert got.tobytes() == want.tobytes(), d

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_negated_edges_keep_the_volume_bits(self, n):
        # IEEE negation is exact, so an edge given as p_0 - p_j only flips
        # the signs of its dot products and projections: any subset of
        # negated edges gives the same bytes, also for a repeated vertex
        # and past 8 coordinates, where _row_dot nests groups of 8
        gen = RngStream(193, n).generator()
        rows = 257
        for d in range(max(2, n - 1), 10):
            pts = gen.standard_normal((rows, n, d))
            pts[0, -1] = pts[0, 0]
            pts[1, 1] = pts[1, -1]
            edges = np.empty((n - 1, d, rows))
            _fill_edges(pts, None, edges)
            want = simplex_volumes_unblocked(pts).tobytes()
            assert _edge_volumes(edges.copy(), np.empty(rows)).tobytes() == want
            for signs in itertools.product((1.0, -1.0), repeat=n - 1):
                flipped = edges * np.array(signs)[:, None, None]
                assert _edge_volumes(flipped, np.empty(rows)).tobytes() == want, (d, signs)

    def test_degenerate_simplex_has_zero_facets(self):
        pts = np.zeros((4, 3, 3))
        pts += np.array([0.3, 0.4, 0.1])
        totals = np.zeros(4)
        for skip in range(3):
            keep = [j for j in range(3) if j != skip]
            totals += kernel_volumes(pts[:, keep, :])
        assert np.all(totals == 0)

    def test_axis_permutation_invariance(self):
        gen = RngStream(103).generator()
        pts = gen.random((2_000, 3, 3))
        totals = np.zeros(2_000)
        permuted = np.zeros(2_000)
        for skip in range(3):
            keep = [j for j in range(3) if j != skip]
            totals += kernel_volumes(pts[:, keep, :])
            permuted += kernel_volumes(pts[:, keep, :][:, :, [2, 0, 1]])
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
    # a prism chunk holds its simplices' (n - 1, d, CHUNK_SIZE) edge planes
    # and no point array; the chunk's volumes, one block's draw and the
    # kernel's temporaries stay below the edges' size again.  With the
    # (2 * CHUNK_SIZE, 3) point array of 3 MiB, the peaks were 3.9 MiB
    # (interior) and 4.1 MiB (boundary).
    prism, n = product(triangle_T2(), eps), 2
    edge_bytes = (n - 1) * prism.dim * CHUNK_SIZE * np.dtype(float).itemsize
    if mode == "interior":
        def call():
            estimate_moment(prism, n, 2, samples=CHUNK_SIZE, seed=163)
    else:
        def call():
            boundary_convergence_sweep(
                triangle_T2(), n, 2, [eps], samples=CHUNK_SIZE, seed=163, reference=F(2, 9)
            )
    assert _traced_peak(call) <= 2 * edge_bytes


@pytest.mark.parametrize(
    "body, n",
    [(ball(3), 4), (halfball(2), 3), (product(ball(2), F(1, 4)), 3)],
    ids=["ball:3", "halfball:2", "ball:2 prism"],
)
def test_one_ball_chunk_peak_memory(body, n):
    # a ball draws every point before any radius, so its chunk holds the
    # whole draw beside its edge planes and volumes; the norms and radii
    # are taken a block of rows at a time, so two blocks of edge planes
    # cover the rest.  With whole-draw norms and radii the peaks were 21.0,
    # 11.5 and 12.5 MiB.
    itemsize = np.dtype(float).itemsize
    drawn = body.base if body.kind == "product" else body
    draw_bytes = CHUNK_SIZE * n * drawn.dim * itemsize
    edge_bytes = (n - 1) * body.dim * CHUNK_SIZE * itemsize
    block_bytes = (n - 1) * body.dim * _BLOCK_ROWS * itemsize
    peak = _traced_peak(lambda: estimate_moment(body, n, 1, samples=CHUNK_SIZE, seed=191))
    assert peak <= draw_bytes + edge_bytes + CHUNK_SIZE * itemsize + 2 * block_bytes


def _chunked_oracle(volumes_of, samples: int, seed: int, k: int) -> EstimateWithError:
    """E V^k merged from chunk i's ``volumes_of(RngStream(seed, i).generator(),
    size)``, as the chunk runner splits and merges a run."""
    stats = []
    for i, start in enumerate(range(0, samples, CHUNK_SIZE)):
        size = min(CHUNK_SIZE, samples - start)
        stats.append(_chunk_stats(volumes_of(RngStream(seed, i).generator(), size) ** k))
    return _combine_chunks(stats, seed)


# two chunks, the second of several row blocks
STREAMED_SAMPLES = CHUNK_SIZE + 2 * _BLOCK_ROWS + 5
# (body, n, pinned vertex): each prism's pin is a base point lifted to height 0
STREAMED = {
    "simplex": (tetrahedron_T3(), 3, None),
    "cube": (cube(3), 4, None),
    **{
        "%s prism%s" % (name, " pinned" if pinned else ""):
            (product(base, F(1, 4)), 3, point + (0.0,) if pinned else None)
        for name, base, point in (
            ("T2", triangle_T2(), (1 / 3, 1 / 3)),
            ("cube:2", cube(2), (0.5, 0.25)),
            ("ball:2", ball(2), (0.1, -0.2)),
            ("T2 x 1/3", product(triangle_T2(), F(1, 3)), (1 / 3, 1 / 3, 0.1)),
        )
        for pinned in (False, True)
    },
}


@pytest.mark.parametrize("case", list(STREAMED))
def test_streamed_chunk_equals_one_whole_draw(monkeypatch, case):
    # simplex and cube chunks are drawn and measured a block of rows at a
    # time through one refilled buffer, and prism chunks straight into their
    # edge planes; each chunk's draw of all its points at once from the same
    # stream gives the same estimate, bit for bit, at 1 and 2 threads
    body, n, fixed = STREAMED[case]
    origin = None if fixed is None else np.array(fixed)
    n_random = n - (fixed is not None)

    def volumes_of(gen, size):
        pts = sample_uniform(body, gen, size * n_random).reshape(size, n_random, body.dim)
        if origin is not None:
            pts = np.concatenate([np.broadcast_to(origin, (size, 1, body.dim)), pts], axis=1)
        return simplex_volumes_unblocked(pts)

    want = _chunked_oracle(volumes_of, STREAMED_SAMPLES, 167, 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for threads in (1, 2):
        got = estimate_moment(body, n, 2, fixed=fixed, samples=STREAMED_SAMPLES, seed=167,
                              threads=threads)
        assert got == want, threads
    if body.kind == "product":
        return
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


@pytest.mark.parametrize("height", [F(1, 4), F(1, 20000)], ids=["1/4", "1/20000"])
@pytest.mark.parametrize("base", ["T2", "cube:2"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_streamed_boundary_chunk_equals_one_whole_draw(monkeypatch, n, base, height):
    # a boundary chunk's points go straight into its edge planes, face by
    # face; the oracle's whole-array draw of the chunk's points, measured by
    # the unblocked kernel, gives the same row bit for bit, at 1 and 2
    # threads, and the same count of all-flat simplices.  At the height
    # 1/20000 some blocks of a chunk's points hold no side-face point.
    body = {"T2": triangle_T2(), "cube:2": cube(2)}[base]
    prism = product(body, height)
    side_counts, all_flat = [], []

    def volumes_of(gen, size):
        pts, flat = sample_boundary_unblocked(prism, gen, size * n)
        side_counts.extend(np.count_nonzero(~flat[start : start + _BLOCK_ROWS])
                           for start in range(0, flat.size, _BLOCK_ROWS))
        all_flat.append(np.count_nonzero(flat.reshape(size, n).all(axis=1)))
        return simplex_volumes_unblocked(pts.reshape(size, n, prism.dim))

    # the sweep's one row draws from seed + 1
    want = _chunked_oracle(volumes_of, STREAMED_SAMPLES, 180, 2)
    if height == F(1, 20000):
        assert 0 in side_counts and max(side_counts) > 0, side_counts
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for threads in (1, 2):
        row = boundary_convergence_sweep(body, n, 2, [height], samples=STREAMED_SAMPLES,
                                         seed=179, threads=threads, reference=0)["rows"][0]
        assert (row["mean"], row["std_error"], row["samples"]) == (
            want.mean, want.std_error, want.samples), threads
        assert row["flat_probability"] == sum(all_flat) / STREAMED_SAMPLES


class TestChunkMerge:
    def test_stable_near_1e8(self):
        gen = RngStream(113).generator()
        values = 1e8 + 1e-3 * gen.standard_normal(6 * 1000 + 37)
        chunks = [values[i : i + 1000] for i in range(0, values.size, 1000)]
        est = _combine_chunks([_chunk_stats(c.copy()) for c in chunks], seed=0)
        expected = np.std(values, ddof=1) / math.sqrt(values.size)
        assert est.samples == values.size
        assert abs(est.std_error - expected) <= 1e-6 * expected
        assert abs(est.mean - math.fsum(values) / values.size) <= 1e-7

    def test_single_sample_has_no_error_estimate(self):
        est = _combine_chunks([_chunk_stats(np.array([0.25]))], seed=0)
        assert est.mean == 0.25
        assert est.std_error == float("inf")


def test_run_chunks_owns_each_chunk_stream_and_power(monkeypatch):
    # chunk i draws from RngStream(seed, i), its volumes are raised to k in
    # the runner, the tallies add up, and 1 and 2 threads agree bit for bit
    samples, seed, k = 2 * CHUNK_SIZE + 5, 41, 3
    firsts = []

    def constant(gen, size):
        firsts.append(gen.random())
        return np.full(size, 2.0), size

    est, tally = _run_chunks(constant, samples, seed, k, 1)
    assert firsts == [RngStream(seed, i).generator().random() for i in range(3)]
    assert (est.mean, est.std_error, est.samples) == (2.0 ** k, 0.0, samples)
    assert tally == samples

    def uniform(gen, size):
        return gen.random(size), 1

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one, two = (_run_chunks(uniform, samples, seed, k, threads) for threads in (1, 2))
    assert one == two
    sizes = (CHUNK_SIZE, CHUNK_SIZE, 5)
    chunks = [RngStream(seed, i).generator().random(size) ** k for i, size in enumerate(sizes)]
    assert one == (_combine_chunks([_chunk_stats(c) for c in chunks], seed), 3)


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


def test_concurrent_callers_share_the_worker_threads(monkeypatch):
    # estimates from several caller threads at once share the kept worker
    # threads, with two thread counts in turn replacing the pool, and each
    # keeps its own chunk buffers: every one equals its serial value.  Three
    # chunks and three CPUs let the counts 2 and 3 ask for pools of their
    # own size.
    samples = 2 * CHUNK_SIZE + 3 * _BLOCK_ROWS + 7
    cases = [(body, seed, threads) for body in (tetrahedron_T3(), cube(2))
             for seed in (171, 173) for threads in (2, 3)]
    requested = []
    pool = mc._pool

    def spy(max_workers, pid):
        requested.append(max_workers)
        return pool(max_workers, pid)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(mc, "_pool", spy)

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
    assert sorted(set(requested)) == [2, 3]


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

    def test_run_size_bounds_at_their_edges(self):
        # checked only, nothing drawn: 10^11 samples stay accepted, and each
        # bound refuses one step past its largest accepted size
        t3 = tetrahedron_T3()
        mc._check_run(t3, 3, 1, 10 ** 11)
        mc._check_run(t3, 3, 1, mc._MAX_CHUNKS * CHUNK_SIZE)
        with pytest.raises(CapacityError, match="at most 16777216 chunks"):
            mc._check_run(t3, 3, 1, mc._MAX_CHUNKS * CHUNK_SIZE + 1)
        # a cube step draws 2 points of at most dim + 1 floats per row
        dim = mc._MAX_STEP_FLOATS // (2 * _BLOCK_ROWS) - 1
        mc._check_run(cube(dim), 2, 1, 10 ** 6)
        with pytest.raises(CapacityError, match="at most 8388608 may be drawn"):
            mc._check_run(cube(dim + 1), 2, 1, 10 ** 6)

    def test_largest_accepted_prisms_give_finite_estimates(self):
        # inside the bound: D^2 and 10 samples times the squared volume fit
        for sweep in (interior_convergence_sweep, boundary_convergence_sweep):
            row = sweep(triangle_T2(), 2, 1, [1e153], samples=10, seed=1, reference=0)["rows"][0]
            assert math.isfinite(row["mean"]) and math.isfinite(row["std_error"])
            assert 1e150 < row["mean"] < 1e154

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

    def test_pin_with_a_nan_coordinate_refused_before_any_draw(self, monkeypatch):
        # contains put (0.2, nan, 0.2) inside T3, and the estimate was nan
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the pin was checked")

        monkeypatch.setattr(mc, "_draw", no_draw)
        with pytest.raises(DomainError, match="outside the body"):
            estimate_moment(tetrahedron_T3(), 3, 1, fixed=(0.2, math.nan, 0.2), samples=10,
                            seed=1)
        with pytest.raises(DomainError, match="outside the body"):
            interior_convergence_sweep(triangle_T2(), 2, 1, [F(1, 2)], samples=4, seed=1,
                                       fixed=(0.2, math.nan))

    @pytest.mark.parametrize(
        "cpus, asked", [(10**6, [3]), (2, [2]), (1, [])], ids=["chunks", "cpus", "serial"]
    )
    def test_worker_threads_bounded_by_chunks_and_cpus(self, monkeypatch, cpus, asked):
        # a fake pool maps in this thread, so no worker thread starts
        requests = []

        class InlinePool:
            def map(self, fn, jobs):
                return map(fn, jobs)

        def fake_pool(max_workers, pid):
            requests.append(max_workers)
            return InlinePool()

        samples = 2 * CHUNK_SIZE + 5
        serial = estimate_moment(tetrahedron_T3(), 3, 1, samples=samples, seed=7)
        monkeypatch.setattr("simplexmoments.mc._pool", fake_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        wide = estimate_moment(tetrahedron_T3(), 3, 1, samples=samples, seed=7, threads=10**6)
        assert requests == asked
        assert wide == serial

    def test_threads_below_one_refused_before_any_chunk(self):
        chunks = []

        def draw(gen, size):
            chunks.append(gen)
            return np.zeros(size), 0

        for threads in (0, -3):
            with pytest.raises(UsageError):
                estimate_moment(tetrahedron_T3(), 3, 1, samples=10, seed=1, threads=threads)
            with pytest.raises(UsageError):
                _run_chunks(draw, 10, 1, 1, threads)
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
    record = {key: row[key].hex() for key in ("mean", "std_error", "flat_probability") if key in row}
    record["samples"] = row["samples"]
    return record


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
