"""Dimension lifting: prisms K x [0, eps] and convergence experiments.

Lifting a convex body K to the thin prism K x [0, eps], which is
``geometry.product(K, eps)``, raises its dimension by one while perturbing random-simplex moments only slightly:
as eps shrinks, E V^k over the prism converges to E V^k over K, and the
same holds when the vertices are drawn uniformly from the prism boundary
(the two flat faces dominate as eps -> 0).  These facts let a
low-dimensional strict inequality between two nested bodies persist after
lifting, which is how a planar counterexample becomes one in every higher
dimension.

This module is a statistical demonstration harness, not a proof engine:
convergence is asserted as "the deviation from the reference shrinks,
up to 6 standard errors of slack".
"""

from __future__ import annotations

import math
from typing import Sequence

from . import _LAZY_NAMES
from .errors import UsageError
from .geometry import Body, body_measures, product
from .mc import (
    RngStream,
    _boundary_faces,
    _check_run,
    _run_chunks,
    _simplex_volumes,
    estimate_moment,
    sample_boundary_uniform,
)

__all__ = _LAZY_NAMES["lifting"]


def _check_eps_list(prisms) -> None:
    if not prisms:
        raise UsageError("eps_list must be nonempty")
    heights = [float(prism.height) for prism in prisms]
    if any(b >= a for a, b in zip(heights, heights[1:])):
        raise UsageError("eps values must be strictly decreasing")


def _sweep_verdict(rows) -> str:
    errors = [r["abs_error"] for r in rows]
    sigmas = [r["sigma"] for r in rows]
    if all(err <= 3 * sig for err, sig in zip(errors, sigmas)):
        return "converged within noise"
    stepwise = all(
        errors[i + 1] <= errors[i] + 6 * max(sigmas[i], sigmas[i + 1])
        for i in range(len(errors) - 1)
    )
    if stepwise and errors[-1] < errors[0]:
        return "converged"
    return "not converged"


def _run_sweep(mode, body, n, k, eps_list, samples, seed, threads, reference, fixed, estimate_at):
    """The loop of both sweeps: checks, reference, one row per eps, verdict.

    The reference is the supplied exact value, or a Monte Carlo estimate on
    the base body (exactly zero in the degenerate case n = dim + 2).
    ``estimate_at(prism, seed)`` estimates E V^k on one prism and
    returns ``(estimate, extra row fields)``.  Each row holds the mean,
    standard error and sample count, then ``abs_error``, ``sigma`` and the
    extra fields, as ``lift-sweep`` prints them.
    """
    if reference is not None:
        try:
            value = float(reference)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if not math.isfinite(value):
            raise UsageError("reference must be a finite number within the float64 "
                             "range, got %r" % (reference,))
    eps_values = list(eps_list)
    # product refuses a height that is not positive and finite in float64
    prisms = [product(body, eps) for eps in eps_values]
    _check_eps_list(prisms)
    # the prisms have dimension dim + 1, so n <= dim + 2
    for prism in prisms:
        _check_run(prism, n, k, samples)
    # a seed that is not an integer is refused before row seeds derive from it
    RngStream(seed)
    if reference is not None:
        ref = {"value": value, "std_error": 0.0, "source": "exact"}
    elif n == body.dim + 2:
        # n points in a d-body span at most a d-simplex, so the
        # (n-1 = d+1)-volume vanishes almost surely before lifting
        ref = {"value": 0.0, "std_error": 0.0, "source": "degenerate"}
    else:
        est = estimate_moment(
            body, n, k, fixed=fixed, samples=samples, seed=seed, threads=threads
        )
        ref = {"value": est.mean, "std_error": est.std_error, "source": "monte-carlo"}
    rows = []
    for i, (eps, prism) in enumerate(zip(eps_values, prisms)):
        est, extra = estimate_at(prism, seed + i + 1)
        rows.append({
            "epsilon": eps,
            "mean": est.mean,
            "std_error": est.std_error,
            "samples": est.samples,
            "abs_error": abs(est.mean - ref["value"]),
            "sigma": math.hypot(est.std_error, ref["std_error"]),
            **extra,
        })
    return {
        "mode": mode, "n": n, "k": k, "reference": ref, "rows": rows,
        "verdict": _sweep_verdict(rows),
    }


def interior_convergence_sweep(
    body: Body,
    n: int,
    k: int,
    eps_list: Sequence,
    *,
    samples: int,
    seed: int,
    threads: int = 1,
    reference=None,
    fixed=None,
) -> dict:
    """Estimate E V^k over K x [0, eps] for shrinking eps, with a verdict.

    Each row holds the mean, standard error and sample count for one eps,
    against a reference for the limit on the base body.  With ``fixed`` =
    p, one vertex is pinned at p in the base body and at (p, 0) in every
    prism.  The verdict is "converged" when the deviations shrink (up to 6
    sigma of slack per step), "converged within noise" when every
    deviation is already below 3 sigma, and "not converged" otherwise.
    """
    lifted_fixed = None if fixed is None else tuple(fixed) + (0,)

    def estimate_at(prism, row_seed):
        est = estimate_moment(
            prism, n, k, fixed=lifted_fixed, samples=samples, seed=row_seed, threads=threads
        )
        return est, {}

    return _run_sweep(
        "interior", body, n, k, eps_list, samples, seed, threads, reference, fixed, estimate_at
    )


def boundary_convergence_sweep(
    body: Body,
    n: int,
    k: int,
    eps_list: Sequence,
    *,
    samples: int,
    seed: int,
    threads: int = 1,
    reference=None,
) -> dict:
    """Like the interior sweep, but vertices are uniform on bd(K x [0, eps]).

    Rows carry an extra diagnostic: the empirical probability that all n
    vertices land on the two flat faces, against the exact mixture weight
    (2 vol K)^n / (2 vol K + S(K) eps)^n, with a 3 sigma agreement flag.
    """
    # the prism boundary sampler takes only planar polytopal bases; refuse
    # any other before the reference is sampled
    _boundary_faces(product(body, 1))
    measures = body_measures(body)
    vol2 = 2.0 * measures["volume"]

    def estimate_at(prism, row_seed):
        def sample(gen, size: int):
            pts, flat = sample_boundary_uniform(prism, gen, size * n)
            volumes = _simplex_volumes(pts.reshape(size, n, prism.dim))
            # a simplex is all flat when each of its n vertex columns is;
            # column by column, as a row of n is too short for numpy's loops
            on_flat = flat.reshape(size, n)
            all_flat = on_flat[:, 0].copy()
            for j in range(1, n):
                all_flat &= on_flat[:, j]
            return volumes, int(all_flat.sum())

        est, all_flat = _run_chunks(sample, samples, row_seed, k, threads)
        flat_frac = all_flat / samples
        weight = (vol2 / (vol2 + measures["surface"] * float(prism.height))) ** n
        wsigma = math.sqrt(max(weight * (1.0 - weight), 1e-300) / samples)
        return est, {
            "flat_probability": flat_frac,
            "flat_weight_exact": weight,
            "flat_weight_consistent": abs(flat_frac - weight) <= 3 * wsigma,
        }

    return _run_sweep(
        "boundary", body, n, k, eps_list, samples, seed, threads, reference, None, estimate_at
    )
