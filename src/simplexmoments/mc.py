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

Memory is bounded per chunk, not per run.  The simplex sampler normalizes
its exponential spacings in place, a pinned vertex enters the kernel as
the origin of every simplex rather than as a copied column, and the kernel
runs over blocks of 2**13 rows written into one output array, so its
temporaries are block-sized.  A chunk's working set is its exponential
draw plus at most half that again: for a T3 triangle chunk the draw is
6 MiB (4 MiB pinned) and the tracemalloc peak 7.7 MiB (5.4 MiB pinned).
Each worker thread holds one chunk at a time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, UsageError, _count
from .geometry import Body, body_measures, contains, is_polytopal, polygon_edges

__all__ = [
    "CHUNK_SIZE",
    "RNG_ALGORITHM",
    "RngStream",
    "EstimateWithError",
    "sample_uniform",
    "sample_boundary_uniform",
    "estimate_moment",
]

CHUNK_SIZE = 1 << 16
# rows per block of the volume kernel: its temporaries stay a few hundred
# KiB, and every block size gives the same volumes
_BLOCK_ROWS = 1 << 13
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

    def generator(self) -> np.random.Generator:
        # an explicit uint64 key: from a tuple, numpy would go through
        # float64 for words of 2**63 and above, merging or breaking seeds
        key = np.array([self.seed & (2**64 - 1), self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo mean with its standard error (sample sd / sqrt(N))."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _resolve_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise UsageError("rng must be an RngStream or numpy Generator")


# ---------------------------------------------------------------------------
# samplers


def _sample_interior(body: Body, gen: np.random.Generator, m: int) -> np.ndarray:
    d = body.dim
    kind = body.kind
    if kind == "simplex":
        spacings = gen.standard_exponential((m, d + 1))
        # column by column: faster than a row reduction, and it adds in the
        # same order as numpy's row sum of up to 7 terms
        total = spacings[:, 0] + spacings[:, 1]
        for j in range(2, d + 1):
            total += spacings[:, j]
        # normalized in place: the points are a strided view of the spacings
        pts = spacings[:, :d]
        return np.divide(pts, total[:, None], out=pts)
    if kind == "cube":
        return gen.random((m, d))
    if kind in ("ball", "halfball"):
        direction = gen.standard_normal((m, d))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        radii = gen.random((m, 1)) ** (1.0 / d)
        pts = direction / norms * radii
        if kind == "halfball":
            pts[:, -1] = np.abs(pts[:, -1])
        return pts
    if kind == "product":
        base_pts = _sample_interior(body.base, gen, m)
        heights = gen.random((m, 1)) * float(body.height)
        return np.concatenate([base_pts, heights], axis=1)
    raise UsageError("no interior sampler for body kind %r" % (kind,))


def sample_uniform(body: Body, rng, size: Optional[int] = None) -> np.ndarray:
    """Uniform point(s) in a catalog body; shape (d,) or (size, d)."""
    gen = _resolve_generator(rng)
    m = 1 if size is None else _count(size, "size")
    pts = _sample_interior(body, gen, m)
    if size is None:
        pts = pts[0]
    # the simplex sampler returns a strided view of a wider buffer
    return pts if pts.flags.c_contiguous and pts.flags.owndata else pts.copy()


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


def sample_boundary_uniform(
    body: Body,
    rng,
    size: Optional[int] = None,
    return_face_mask: bool = False,
):
    """Uniform point(s) on the boundary of a prism K x [0, h].

    The boundary splits into two flat copies of K and one rectangle per
    edge of K; a face is chosen with probability proportional to its area,
    then the point is uniform on the face.  With ``return_face_mask`` a
    boolean array marking flat-face points is returned alongside the points.
    """
    gen = _resolve_generator(rng)
    m = 1 if size is None else _count(size, "size")
    face_list, h = _boundary_faces(body)
    weights = np.array([f[2] for f in face_list])
    choice = gen.choice(len(face_list), size=m, p=weights / weights.sum())
    pts = np.empty((m, body.dim))
    flat_mask = np.zeros(m, dtype=bool)
    for idx, (tag, payload, _area) in enumerate(face_list):
        mask = choice == idx
        count = int(mask.sum())
        if not count:
            continue
        if tag == "flat":
            base_pts = _sample_interior(body.base, gen, count)
            pts[mask, :-1] = base_pts
            pts[mask, -1] = payload
            flat_mask[mask] = True
        else:
            (sx, sy), (ex, ey) = payload
            s = gen.random(count)
            pts[mask, 0] = sx + s * (ex - sx)
            pts[mask, 1] = sy + s * (ey - sy)
            pts[mask, -1] = gen.random(count) * h
    if size is None:
        pts = pts[0]
        flat_mask = bool(flat_mask[0])
    if return_face_mask:
        return pts, flat_mask
    return pts


# ---------------------------------------------------------------------------
# estimators


def _simplex_volumes(pts: np.ndarray, origin: Optional[np.ndarray] = None) -> np.ndarray:
    """(n-1)-volumes of simplices given as an (m, n, d) vertex array.

    With ``origin``, a point of shape (d,), the array holds n-1 vertices per
    simplex and ``origin`` is the first vertex of every one.  Modified
    Gram-Schmidt on the edges p_j - p_0, elementwise over the m simplices:
    each edge loses its projections onto the earlier residuals u_i, with
    coefficient (r . u_i) / (u_i . u_i), and the squared residual norms
    multiply to the Gram determinant.  A zero residual divides by 1
    instead, so degenerate simplices (a repeated vertex gives coefficient
    exactly 1) have volume exactly 0.  The rows run in blocks of
    ``_BLOCK_ROWS``, each written into the one output array, so the
    temporaries are block-sized whatever m is; every row's arithmetic is
    the same in any block.
    """
    n = pts.shape[1] + (origin is not None)
    volumes = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _BLOCK_ROWS):
        block = pts[start : start + _BLOCK_ROWS]
        # the edges run from the first vertex to each of the others
        first, others = (block[:, 0, :], block[:, 1:, :]) if origin is None else (origin, block)
        gram = volumes[start : start + _BLOCK_ROWS]
        gram[:] = 1.0
        residuals = []
        for j in range(n - 1):
            r = others[:, j, :] - first
            for u, uu in residuals:
                r -= (np.einsum("md,md->m", r, u) / uu)[:, None] * u
            rr = np.einsum("md,md->m", r, r)
            gram *= rr
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


def _chunk_layout(samples: int):
    full, rest = divmod(samples, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _run_chunks(worker, samples: int, seed: int, threads: int):
    """Run ``worker(chunk_index, size) -> (values, tally)`` over the chunks.

    Returns the estimate of the mean of ``values`` and the sum of the
    integer tallies; chunk statistics are taken in the worker threads.
    """
    _count(threads, "threads")

    def run(job):
        values, tally = worker(*job)
        return _chunk_stats(values), tally

    jobs = list(enumerate(_chunk_layout(samples)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run, jobs))
    else:
        partials = [run(job) for job in jobs]
    estimate = _combine_chunks([p[0] for p in partials], seed)
    return estimate, sum(p[1] for p in partials)


def _check_common(body: Body, n: int, samples: int) -> None:
    _count(n, "vertex count n", 2)
    if n > body.dim + 1:
        raise UsageError(
            "a %d-vertex simplex needs ambient dimension >= %d, body has %d"
            % (n, n - 1, body.dim)
        )
    _count(samples, "samples")


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
    _check_common(body, n, samples)
    _count(k, "moment order k")
    anchor = None
    if fixed is not None:
        anchor = np.asarray([float(v) for v in fixed])
        if anchor.shape != (body.dim,):
            raise UsageError("fixed point has wrong dimension")
        if not contains(body, tuple(float(v) for v in anchor), tol=1e-12):
            raise DomainError("fixed point lies outside the body")
    n_random = n if anchor is None else n - 1

    def worker(chunk_index: int, size: int):
        gen = RngStream(seed, chunk_index).generator()
        pts = _sample_interior(body, gen, size * n_random)
        pts = pts.reshape(size, n_random, body.dim)
        return _simplex_volumes(pts, origin=anchor) ** k, 0

    return _run_chunks(worker, samples, seed, threads)[0]

