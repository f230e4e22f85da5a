"""Monte Carlo estimators for random-simplex volume moments.

Sampling is vectorized with numpy and driven by counter-based Philox
streams: a run with ``samples`` trials is split into fixed chunks of
2**16 trials, chunk i drawing from ``Philox(key=(seed mod 2**64, i))``.
Each chunk reduces to its (count, mean, M2) statistics, merged with Chan's
pairwise update in chunk-index order, so estimates are bit-identical for
a given (seed, samples, configuration) whatever the number of worker
threads executing the chunks.

Estimators cover the catalog bodies of :mod:`simplexmoments.geometry`:
uniform interior sampling (simplices by normalized exponential spacings,
balls by direction times U^(1/d), half-balls by reflection, prisms by
base sample plus uniform height) and boundary-uniform sampling of prisms
over planar polytopes (faces picked with area weights).  Simplex volumes
come from one kernel, elementwise over the batch: modified Gram-Schmidt
on the edge vectors, whose squared residual norms multiply to the Gram
determinant, so ambient dimension is arbitrary.  Its numpy calls release
the interpreter lock, which lets worker threads run chunks in parallel.

A point has only d = 2-4 coordinates, and numpy runs its inner loop over
the axis of smallest stride, so an operation on a (rows, d) array loops d
times per row.  The simplex sampler's normalization and the boundary
sampler's face fill therefore run one coordinate column at a time, and
the kernel keeps each residual as d contiguous coordinate planes, a
(d, rows) array, so that every elementwise pass runs over a whole block.
Its dot products add the d products in the order of numpy 2.4's
``np.einsum("md,md->m", ...)`` on x86-64, the kernel that froze the
Monte Carlo goldens: the even coordinates in order, the odd ones in
order, then the two sums (groups of 8 coordinates nest, see ``_row_dot``).
Adding them in index order would change about a quarter of the rows.

The boundary sampler picks every point's face at once by the inverse CDF
of ``Generator.choice``, with its bits, and finds each face's rows with
one stable sort of the face indices.

Memory is bounded per chunk, not per run.  The simplex and cube samplers
take their points one after another from the stream, so a chunk of those
bodies is drawn and measured a block of 2**13 rows at a time, through one
refilled draw buffer into one volume array: a T3 triangle chunk peaks at
2.1 MiB in tracemalloc (1.8 MiB pinned), where a whole-chunk draw takes
6 MiB (4 MiB).  Ball, half-ball and prism samplers draw every base point
before any radius or height, so their chunks are drawn whole.  A prism
over a simplex writes its heights into the spare last column of the
base's spacings, and the boundary sampler fills its points face by face
a block at a time, so a prism chunk of n = 2 peaks at 4.1-4.2 MiB, its
3 MiB point array and a third more.  Each worker thread holds one chunk
at a time, and the threads live from run to run.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _LAZY_NAMES
from .errors import CapacityError, DomainError, UsageError, _count
from .geometry import Body, body_measures, contains, is_polytopal, polygon_edges

__all__ = _LAZY_NAMES["mc"]

CHUNK_SIZE = 1 << 16
# a run lists its chunks before the first one runs: 2**24 chunks are about
# 1.1e12 samples, hours of sampling on any host
_MAX_CHUNKS = 1 << 24
# rows per block of the volume kernel: its temporaries stay a few hundred
# KiB, and every block size gives the same volumes
_BLOCK_ROWS = 1 << 13
# one step of a chunk draws at most this many float64s (64 MiB), so memory
# stays bounded per chunk in a body of any dimension
_MAX_STEP_FLOATS = 1 << 23
RNG_ALGORITHM = "numpy-philox4x64"


@dataclass(frozen=True)
class RngStream:
    """A reproducible, splittable random stream.

    Distinct ``stream_index`` values give statistically independent
    streams; the same (seed, stream_index) always reproduces the same
    sequence, independent of platform thread scheduling.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        try:
            operator.index(self.seed)
        except TypeError:
            raise UsageError("seed must be an integer, got %r" % (self.seed,)) from None
        if _count(self.stream_index, "stream_index", 0) >= 2**64:
            raise UsageError("stream_index must be below 2**64, got %d" % self.stream_index)

    def generator(self) -> np.random.Generator:
        # an explicit uint64 key: from a tuple, numpy would go through
        # float64 for words of 2**63 and above, merging or breaking seeds
        key = np.array([operator.index(self.seed) & (2**64 - 1), self.stream_index],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo mean with its standard error (sample sd / sqrt(N))."""

    mean: float
    std_error: float
    samples: int
    seed: int


# ---------------------------------------------------------------------------
# samplers


def _draw(body: Body, gen: np.random.Generator, m: int,
          buf: Optional[np.ndarray] = None) -> np.ndarray:
    """``m`` uniform points in ``body``: the first ``body.dim`` columns of the
    returned (m, w) array, w >= ``body.dim``.

    A simplex returns its exponential spacings, normalized in place, so one
    spare column follows its points; a prism over it writes its heights
    there.  The simplex and cube samplers take their points one after
    another from ``gen``, so m points drawn in pieces equal one draw of m,
    and ``buf``, an earlier draw of theirs, is refilled when it has at
    least m rows instead of a new array being made.
    """
    d = body.dim
    kind = body.kind
    if buf is not None and len(buf) < m:
        buf = None
    if kind == "simplex":
        spacings = (gen.standard_exponential((m, d + 1)) if buf is None
                    else gen.standard_exponential(out=buf[:m]))
        for start in range(0, m, _BLOCK_ROWS):
            block = spacings[start : start + _BLOCK_ROWS]
            # column by column, as a row is only d + 1 long: the sum adds in
            # the order of numpy's row sum of up to 7 terms, and the division
            # is elementwise, so the bits are those of the 2-D operations
            total = block[:, 0] + block[:, 1]
            for j in range(2, d + 1):
                total += block[:, j]
            for j in range(d):
                block[:, j] /= total
        return spacings
    if kind == "cube":
        return gen.random((m, d)) if buf is None else gen.random(out=buf[:m])
    if kind in ("ball", "halfball"):
        direction = gen.standard_normal((m, d))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        radii = gen.random((m, 1)) ** (1.0 / d)
        pts = direction / norms * radii
        if kind == "halfball":
            pts[:, -1] = np.abs(pts[:, -1])
        return pts
    if kind == "product":
        pts = _draw(body.base, gen, m)
        if pts.shape[1] < d:
            # only a simplex base leaves a spare column
            pts = np.concatenate([pts, np.empty((m, 1))], axis=1)
        heights = pts[:, -1]
        # all m heights follow all m base points in the stream
        for start in range(0, m, _BLOCK_ROWS):
            heights[start : start + _BLOCK_ROWS] = gen.random(min(_BLOCK_ROWS, m - start))
        heights *= float(body.height)
        return pts
    raise UsageError("no interior sampler for body kind %r" % (kind,))


def sample_uniform(body: Body, gen: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform points in a catalog body, shape (size, d), drawn
    from ``gen``, e.g. ``RngStream(seed).generator()``."""
    pts = _draw(body, gen, _count(size, "size"))
    # a simplex's points are followed by its spare column
    return pts if pts.shape[1] == body.dim else pts[:, : body.dim].copy()


def _boundary_faces(body: Body):
    """Faces of a prism over a planar polytope, with their areas."""
    if body.kind != "product":
        raise UsageError("boundary sampling is implemented for prisms only")
    base = body.base
    if not is_polytopal(base):
        raise UsageError("boundary sampling needs a polytopal base (curved "
                         "bases are not supported)")
    if base.dim != 2:
        raise UsageError("boundary sampling needs a planar base")
    edges = polygon_edges(base)
    h = float(body.height)
    base_area = body_measures(base)["volume"]
    faces = [("flat", 0.0, base_area), ("flat", h, base_area)]
    for start, end in edges:
        length = math.hypot(end[0] - start[0], end[1] - start[1])
        faces.append(("side", (start, end), length * h))
    return faces, h


def _face_choice(weights: np.ndarray, gen: np.random.Generator, m: int) -> np.ndarray:
    """``gen.choice(len(weights), m, p=weights / weights.sum())`` as uint8,
    with its bits and its draws: one uniform a point, whose index is the
    number of steps of the normalized CDF at or below it (the searchsorted
    of ``Generator.choice``).  One comparison a step, as a prism over a
    polygon has few faces, replaces the binary search."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    u = gen.random(m)
    choice = np.zeros(m, dtype=np.uint8)
    for step in cdf[:-1]:
        choice += u >= step
    return choice


def sample_boundary_uniform(body: Body, gen: np.random.Generator, size: int):
    """``size`` uniform points on the boundary of a prism K x [0, h].

    The boundary splits into two flat copies of K and one rectangle per
    edge of K; a face is chosen with probability proportional to its area,
    then the point is uniform on the face.  Returns the (size, d) points and
    a boolean array marking the points on the two flat faces.
    """
    m = _count(size, "size")
    face_list, h = _boundary_faces(body)
    choice = _face_choice(np.array([f[2] for f in face_list]), gen, m)
    # each face's rows in row order, after one stable sort; the point array
    # is made only once the sort's int64 index is gone
    order = np.argsort(choice, kind="stable").astype(np.int32)
    ends = np.cumsum([np.count_nonzero(choice == idx) for idx in range(len(face_list))])
    pts = np.empty((m, body.dim))
    cols = pts.T
    base_buf = None

    def pieces(idx):
        # face idx's rows a block at a time: a face draws for its rows in
        # row order, so piece by piece equals one draw for all of them.  A
        # piece is cast to intp once, where numpy would cast int32 row
        # numbers again for every column written through them.
        rows = order[(ends[idx - 1] if idx else 0) : ends[idx]]
        for start in range(0, rows.size, _BLOCK_ROWS):
            yield rows[start : start + _BLOCK_ROWS].astype(np.intp)

    for idx, (tag, payload, _area) in enumerate(face_list):
        if tag == "flat":
            for at in pieces(idx):
                base_buf = _draw(body.base, gen, at.size, base_buf)
                for c in range(body.dim - 1):
                    cols[c][at] = base_buf[:, c]
                cols[-1][at] = payload
        else:
            (sx, sy), (ex, ey) = payload
            for at in pieces(idx):
                s = gen.random(at.size)
                cols[0][at] = sx + s * (ex - sx)
                cols[1][at] = sy + s * (ey - sy)
            # all of a side face's heights follow all of its edge parameters
            for at in pieces(idx):
                cols[-1][at] = gen.random(at.size) * h
    # faces 0 and 1 are the flat copies of K
    return pts, choice < 2


# ---------------------------------------------------------------------------
# estimators


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The row dot products of two (d, rows) coordinate planes, added in
    the order of ``np.einsum("md,md->m", ...)`` on (rows, d) arrays.

    numpy 2.4's einsum on x86-64 keeps two lanes, one for the even and one
    for the odd coordinates, and adds them at the end; below 8 coordinates
    each lane adds its products in order, and each whole group of 8 adds
    coordinates 6, 4, 2, 0 (7, 5, 3, 1) to its lane.  So a volume's bits
    are those of the einsum kernel that froze the Monte Carlo goldens,
    where the products added in index order differ in about a quarter of
    the rows.
    """
    d = len(a)
    whole = d - d % 8
    order = [g + c for g in range(0, whole, 8) for c in (6, 4, 2, 0, 7, 5, 3, 1)]
    order += range(whole, d)
    lanes = [None, None]
    for c in order:
        term = a[c] * b[c]
        lane = lanes[c % 2]
        if lane is None:
            lanes[c % 2] = term
        else:
            lane += term
    even, odd = lanes
    if odd is not None:
        even += odd
    return even


def _simplex_volumes(pts: np.ndarray, origin: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """(n-1)-volumes of simplices given as an (m, n, d) vertex array.

    With ``origin``, a point of shape (d,), the array holds n-1 vertices per
    simplex and ``origin`` is the first vertex of every one.  Modified
    Gram-Schmidt on the edges p_j - p_0, elementwise over the m simplices:
    each edge loses its projections onto the earlier residuals u_i, with
    coefficient (r . u_i) / (u_i . u_i), and the squared residual norms
    multiply to the Gram determinant.  A zero residual divides by 1
    instead, so degenerate simplices (a repeated vertex gives coefficient
    exactly 1) have volume exactly 0.  The rows run in blocks of
    ``_BLOCK_ROWS``, each written into the one output array (``out`` when
    given), so the temporaries are block-sized whatever m is; every row's
    arithmetic is the same in any block and for any strides of ``pts``.
    """
    n = pts.shape[1] + (origin is not None)
    d = pts.shape[2]
    volumes = np.empty(pts.shape[0]) if out is None else out
    for start in range(0, pts.shape[0], _BLOCK_ROWS):
        block = pts[start : start + _BLOCK_ROWS]
        # the edges run from the first vertex to each of the others
        first, others = (block[:, 0, :], block[:, 1:, :]) if origin is None else (origin, block)
        gram = volumes[start : start + _BLOCK_ROWS]
        residuals = []
        for j in range(n - 1):
            # each residual is a C-contiguous (d, rows) array, one plane a
            # coordinate, so every elementwise pass runs contiguously
            r = np.empty((d, len(block)))
            for c in range(d):
                np.subtract(others[:, j, c], first[..., c], out=r[c])
            for u, uu in residuals:
                coef = _row_dot(r, u)
                coef /= uu
                for c in range(d):
                    r[c] -= coef * u[c]
            rr = _row_dot(r, r)
            if j:
                gram *= rr
            else:
                gram[:] = rr
            if j < n - 2:  # only a later edge projects onto this residual
                residuals.append((r, np.where(rr > 0.0, rr, 1.0)))
        np.sqrt(gram, out=gram)
    volumes /= math.factorial(n - 1)
    return volumes


def _chunk_stats(values: np.ndarray):
    """(count, mean, M2) of one chunk's trial values."""
    mean = float(values.mean())
    centered = values - mean
    # not np.dot: BLAS would start its own threads, which contend with the
    # chunk threads for the CPUs and hold memory
    return values.size, mean, float(np.einsum("m,m->", centered, centered))


def _combine_chunks(stats, seed: int) -> EstimateWithError:
    """Merge per-chunk (count, mean, M2) with Chan's pairwise update.

    The merge runs in chunk-index order, so the result does not depend on
    which thread produced which chunk.
    """
    count, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in stats:
        total = count + n_b
        delta = mean_b - mean
        mean += delta * (n_b / total)
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    std_error = math.sqrt(m2 / (count - 1) / count) if count > 1 else float("inf")
    return EstimateWithError(mean, std_error, count, seed)


@functools.lru_cache(maxsize=1)
def _pool(threads: int, pid: int) -> ThreadPoolExecutor:
    """The worker threads, kept from run to run while the thread count and
    the process (a forked child has none of its parent's threads) stay.

    Each thread of a new pool takes a malloc arena, and an arena whose
    thread is still exiting is not handed on; a pool per run therefore
    sometimes made one more arena, holding freed chunk buffers: about 4 MB
    more peak RSS.
    """
    return ThreadPoolExecutor(max_workers=threads)


def _run_chunks(draw, samples: int, seed: int, k: int, threads: int):
    """(E V^k estimate, summed tallies) over the chunks: chunk i calls
    ``draw(RngStream(seed, i).generator(), size) -> (volumes, tally)``, and
    its volumes are raised to k in place and reduced in its thread before
    the thread's next chunk, so ``draw`` may refill one array."""
    _count(threads, "threads")

    def run(start):
        size = min(CHUNK_SIZE, samples - start)
        volumes, tally = draw(RngStream(seed, start // CHUNK_SIZE).generator(), size)
        volumes **= k
        return _chunk_stats(volumes), tally

    starts = range(0, samples, CHUNK_SIZE)
    # a worker past the chunk count or the CPU count would only sit idle
    workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers > 1:
        partials = list(_pool(workers, os.getpid()).map(run, starts))
    else:
        partials = [run(start) for start in starts]
    estimate = _combine_chunks([p[0] for p in partials], seed)
    return estimate, sum(p[1] for p in partials)


def _step_rows(body: Body) -> int:
    """Simplices per draw: the simplex and cube samplers take their points
    one after another from the stream, so a chunk is drawn and measured a
    block of rows at a time; the others draw all base points before any
    radius or height."""
    return _BLOCK_ROWS if body.kind in ("simplex", "cube") else CHUNK_SIZE


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _diameter_bound(body: Body) -> float:
    """An upper bound on the diameter of a catalog body: sqrt(2) for a
    simplex, sqrt(d) for a cube, 2 for a ball or a half-ball."""
    if body.kind == "product":
        return math.hypot(_diameter_bound(body.base), float(body.height))
    return {"simplex": math.sqrt(2.0), "cube": math.sqrt(body.dim)}.get(body.kind, 2.0)


def _check_run(body: Body, n: int, k: int, samples: int) -> None:
    """Every refusal of an estimate of E V^k, made before any draw: a
    UsageError for malformed n, k or samples, and a CapacityError for a
    run that would list too many chunks, draw too much at once, or could
    leave float64.

    In a body of diameter D the volume kernel's Gram determinant is at most
    D^(2(n-1)), a trial value V^k at most b = (D^(n-1)/(n-1)!)^k, and the
    sum of squared deviations at most samples * b^2.  A prism's face areas,
    by which the boundary sampler picks faces, are then each at most 2D.
    """
    _count(n, "vertex count n", 2)
    if n > body.dim + 1:
        raise UsageError(
            "a %d-vertex simplex needs ambient dimension >= %d, body has %d"
            % (n, n - 1, body.dim)
        )
    _count(samples, "samples")
    chunks = -(-samples // CHUNK_SIZE)
    if chunks > _MAX_CHUNKS:
        raise CapacityError(
            "%d samples make %d chunks of %d; a run takes at most %d chunks"
            % (samples, chunks, CHUNK_SIZE, _MAX_CHUNKS)
        )
    # a point takes at most dim + 1 floats: a simplex's spare column
    floats = min(samples, _step_rows(body)) * n * (body.dim + 1)
    if floats > _MAX_STEP_FLOATS:
        raise CapacityError(
            "%d-point simplices in dimension %d draw %d float64s at a time; "
            "at most %d may be drawn at once" % (n, body.dim, floats, _MAX_STEP_FLOATS)
        )
    _count(k, "moment order k")
    log_d = math.log(_diameter_bound(body))
    log_b = k * ((n - 1) * log_d - math.lgamma(n))
    if max(2 * (n - 1) * log_d, 2 * log_b + math.log(samples)) >= _LOG_FLOAT_MAX:
        raise CapacityError(
            "E V^%d of %d points over %d samples in a body of diameter up to %.3g "
            "can leave the float64 range" % (k, n, samples, _diameter_bound(body))
        )


def estimate_moment(
    body: Body,
    n: int,
    k: int,
    *,
    fixed: Optional[Sequence[float]] = None,
    samples: int,
    seed: int,
    threads: int = 1,
) -> EstimateWithError:
    """Estimate E V^k for the (n-1)-simplex of n uniform points in body.

    With ``fixed`` supplied, that point replaces one of the n random
    vertices (it must lie in the closed body).  Deterministic for a given
    (seed, samples, configuration), independent of ``threads``.
    """
    _check_run(body, n, k, samples)
    anchor = None
    if fixed is not None:
        fixed = tuple(fixed)
        if not contains(body, fixed, tol=1e-12):
            raise DomainError("fixed point lies outside the body")
        anchor = np.array(fixed, dtype=float)
    n_random = n if anchor is None else n - 1

    step = _step_rows(body)
    # each thread refills its first volume array and block draw buffer:
    # new ones every chunk would be mapped or trimmed by malloc anew each
    # time, about 20k more page faults in a first mc-area operation
    kept = threading.local()

    def sample(gen, size: int):
        if getattr(kept, "volumes", np.empty(0)).size < size:
            kept.volumes, kept.draw = np.empty(size), None
        volumes = kept.volumes[:size]
        for start in range(0, size, step):
            rows = min(step, size - start)
            draw = _draw(body, gen, rows * n_random, kept.draw)
            if step < CHUNK_SIZE and kept.draw is None:
                kept.draw = draw
            pts = draw[:, : body.dim].reshape(rows, n_random, body.dim)
            _simplex_volumes(pts, origin=anchor, out=volumes[start : start + rows])
        return volumes, 0

    return _run_chunks(sample, samples, seed, k, threads)[0]

