"""Tests for prism lifting and the convergence experiments."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import simplexmoments.lifting as lifting
from simplexmoments.chords import TriangleSpec, chord_moment
from simplexmoments.errors import CapacityError, UsageError
from simplexmoments.geometry import (
    ball,
    body_measures,
    contains,
    cube,
    halfball,
    product,
    tetrahedron_T3,
    triangle_T2,
)
from simplexmoments.lifting import boundary_convergence_sweep, interior_convergence_sweep
from simplexmoments.mc import RngStream, estimate_moment, sample_boundary_uniform, sample_uniform


class TestLiftBody:
    def test_prism_volume(self):
        lifted = product(triangle_T2(), F(1, 10))
        assert lifted.kind == "product"
        assert lifted.dim == 3
        assert abs(body_measures(lifted)["volume"] - 1 / 20) < 1e-15

    def test_double_lift(self):
        lifted = product(product(triangle_T2(), F(1, 4)), F(1, 4))
        assert lifted.dim == 4
        assert lifted.base.dim == 3

    def test_containment_preserved_on_samples(self):
        inner = product(triangle_T2(), F(1, 4))
        outer = product(cube(2), F(1, 4))
        pts = sample_uniform(inner, RngStream(5).generator(), size=5_000)
        for row in pts:
            assert contains(outer, tuple(map(float, row)), tol=1e-12)

    def test_eps_must_be_positive(self):
        with pytest.raises(UsageError):
            product(triangle_T2(), 0)


class TestInteriorSweep:
    def test_t2_chord_second_moment(self):
        result = interior_convergence_sweep(
            triangle_T2(),
            2,
            2,
            [F(1, 2), F(1, 8), F(1, 32)],
            samples=200_000,
            seed=2024,
            reference=F(2, 9),
        )
        rows = result["rows"]
        assert result["reference"]["source"] == "exact"
        assert result["verdict"] in ("converged", "converged within noise")
        # the documented first-versus-last criterion
        assert rows[-1]["abs_error"] < rows[0]["abs_error"] + 6 * rows[-1]["sigma"]
        # eps = 1/2 adds a visible vertical bias E(z1-z2)^2 = eps^2/6
        assert rows[0]["mean"] > 2 / 9

    def test_t3_triangle_second_moment(self):
        result = interior_convergence_sweep(
            tetrahedron_T3(),
            3,
            2,
            [F(1, 4), F(1, 16), F(1, 64)],
            samples=200_000,
            seed=2025,
            reference=F(9, 1600),
        )
        last = result["rows"][-1]
        assert last["abs_error"] <= 3 * last["sigma"]

    def test_noise_dominated_sweep(self):
        result = interior_convergence_sweep(
            triangle_T2(),
            2,
            2,
            [F(1, 64), F(1, 128), F(1, 256)],
            samples=50_000,
            seed=2026,
            reference=F(2, 9),
        )
        assert result["verdict"] == "converged within noise"

    def test_degenerate_reference_is_zero(self):
        # four points in the plane are affinely dependent, so the reference
        # for n = dim + 2 vanishes; lifting makes the volume positive
        result = interior_convergence_sweep(
            triangle_T2(),
            4,
            1,
            [F(1, 2), F(1, 4)],
            samples=20_000,
            seed=2027,
        )
        assert result["reference"] == {
            "value": 0.0,
            "std_error": 0.0,
            "source": "degenerate",
        }
        assert result["rows"][0]["mean"] > 0

    def test_monte_carlo_reference(self):
        result = interior_convergence_sweep(
            triangle_T2(),
            2,
            1,
            [F(1, 8)],
            samples=50_000,
            seed=2028,
        )
        ref = result["reference"]
        assert ref["source"] == "monte-carlo"
        spec = TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))
        assert abs(ref["value"] - chord_moment(spec, 1)) < 4 * ref["std_error"]

    def test_pinned_sweep_matches_pinned_prism_estimates(self):
        # the pin p sits at (p, 0) in every prism and at p on the base body
        p = (F(1, 3), F(1, 3), F(1, 3))
        eps = [F(1, 4), F(1, 16)]
        seed = 2029
        result = interior_convergence_sweep(
            tetrahedron_T3(), 3, 1, eps, samples=20_000, seed=seed, threads=2, fixed=p
        )
        for i, (e, row) in enumerate(zip(eps, result["rows"])):
            est = estimate_moment(
                product(tetrahedron_T3(), e), 3, 1, fixed=p + (0,), samples=20_000,
                seed=seed + i + 1,
            )
            assert (row["mean"], row["std_error"], row["samples"]) == (
                est.mean, est.std_error, est.samples
            )
        base = estimate_moment(tetrahedron_T3(), 3, 1, fixed=p, samples=20_000, seed=seed)
        assert result["reference"] == {
            "value": base.mean,
            "std_error": base.std_error,
            "source": "monte-carlo",
        }
        # pinned at the facet centroid the mean area is near 0.0466, well
        # below the free 0.0592
        assert abs(base.mean - 0.0466) < 5 * base.std_error + 5e-5

    def test_argument_validation(self):
        with pytest.raises(UsageError):
            interior_convergence_sweep(
                triangle_T2(), 5, 1, [F(1, 2)], samples=10, seed=1
            )
        with pytest.raises(UsageError):
            interior_convergence_sweep(
                triangle_T2(), 2, 1, [F(1, 8), F(1, 2)], samples=10, seed=1
            )
        with pytest.raises(UsageError):
            interior_convergence_sweep(
                triangle_T2(), 2, 1, [], samples=10, seed=1
            )
        with pytest.raises(UsageError):
            interior_convergence_sweep(
                triangle_T2(), 2, 1, [F(0)], samples=10, seed=1
            )

    @pytest.mark.parametrize("sweep", [interior_convergence_sweep, boundary_convergence_sweep])
    def test_threads_below_one_refused(self, sweep):
        with pytest.raises(UsageError):
            sweep(triangle_T2(), 2, 1, [F(1, 2)], samples=10, seed=1, threads=0,
                  reference=F(2, 9))


class TestBoundarySweep:
    def test_t2_converges_with_weight_diagnostics(self):
        result = boundary_convergence_sweep(
            triangle_T2(),
            2,
            2,
            [F(1, 2), F(1, 8), F(1, 32)],
            samples=200_000,
            seed=3024,
            reference=F(2, 9),
        )
        rows = result["rows"]
        assert result["verdict"] in ("converged", "converged within noise")
        assert rows[-1]["abs_error"] < rows[0]["abs_error"] + 6 * rows[-1]["sigma"]
        for row in rows:
            assert row["flat_weight_consistent"]

    def test_weight_matches_at_quarter(self):
        result = boundary_convergence_sweep(
            triangle_T2(),
            2,
            2,
            [F(1, 4)],
            samples=200_000,
            seed=3025,
            reference=F(2, 9),
        )
        row = result["rows"][0]
        expected = (1.0 / (1.0 + (2.0 + math.sqrt(2.0)) * 0.25)) ** 2
        assert abs(row["flat_weight_exact"] - expected) < 1e-12
        assert row["flat_weight_consistent"]

    def test_thread_count_bit_identity(self):
        one, two, four = (
            boundary_convergence_sweep(
                triangle_T2(),
                3,
                1,
                [F(1, 2), F(1, 8)],
                samples=2 * 65536 + 321,
                seed=3027,
                threads=threads,
            )
            for threads in (1, 2, 4)
        )
        assert one == two == four

    def test_huge_eps_rarely_flat(self):
        result = boundary_convergence_sweep(
            triangle_T2(),
            2,
            1,
            [F(10)],
            samples=50_000,
            seed=3026,
        )
        row = result["rows"][0]
        assert row["flat_weight_exact"] < 1e-3
        assert row["flat_probability"] < 0.01

    def test_rejects_marked_points_and_curved_bodies(self, monkeypatch):
        # boundary sweeps take no pinned vertex
        with pytest.raises(TypeError):
            boundary_convergence_sweep(
                triangle_T2(), 2, 1, [F(1, 4)], samples=10, seed=1, fixed=(F(1, 2), F(1, 2))
            )

        # a base the prism boundary sampler cannot take is refused before
        # the reference or any row is sampled
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the base was checked")

        monkeypatch.setattr(lifting, "estimate_moment", no_sampling)
        monkeypatch.setattr(lifting, "_run_chunks", no_sampling)
        for base in (ball(2), halfball(2), tetrahedron_T3(), product(cube(1), 1)):
            with pytest.raises(UsageError):
                boundary_convergence_sweep(base, 2, 1, [F(1, 4)], samples=4_000_000, seed=1)


class TestCrossSweepProperties:
    def test_flat_restricted_sampling_matches_base_estimate(self):
        # conditioned on flat faces, vertices are uniform in two copies of
        # K, so for small eps the moment matches the base-body estimate
        lifted = product(triangle_T2(), F(1, 64))
        gen = RngStream(4100).generator()
        m = 100_000
        pts, flat = sample_boundary_uniform(lifted, gen, size=2 * m)
        # keep the pairs whose two points both landed on a flat face
        pairs = pts.reshape(m, 2, 3)[flat.reshape(m, 2).all(axis=1)]
        assert len(pairs) > 0.85 * m
        dist = np.linalg.norm(pairs[:, 0, :] - pairs[:, 1, :], axis=1)
        v2 = dist**2
        base = estimate_moment(triangle_T2(), 2, 2, samples=m, seed=4101)
        sigma = math.hypot(v2.std(ddof=1) / math.sqrt(len(v2)), base.std_error)
        assert abs(v2.mean() - base.mean) < 3 * sigma + (1 / 64) ** 2 / 6

    def test_interior_and_boundary_sweeps_share_a_limit(self):
        eps = [F(1, 64), F(1, 256)]
        interior = interior_convergence_sweep(
            triangle_T2(), 2, 2, eps, samples=100_000, seed=4200,
            reference=F(2, 9),
        )
        boundary = boundary_convergence_sweep(
            triangle_T2(), 2, 2, eps, samples=100_000, seed=4300,
            reference=F(2, 9),
        )
        a = interior["rows"][-1]
        b = boundary["rows"][-1]
        sigma = math.hypot(a["std_error"], b["std_error"])
        assert abs(a["mean"] - b["mean"]) < 3 * sigma + 2e-3

    @pytest.mark.parametrize("sweep", [interior_convergence_sweep, boundary_convergence_sweep])
    @pytest.mark.parametrize(
        "eps_list", [["1/2"], [math.inf], [F(1, 2), F(10**400)]], ids=["string", "inf", "10**400"]
    )
    def test_heights_outside_float64_refused_before_sampling(self, sweep, eps_list, monkeypatch):
        # unchecked, "1/2" raised a bare ValueError, inf sampled a nan
        # interior row or failed the boundary face choice, and 10**400
        # raised a bare OverflowError
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the heights were checked")

        monkeypatch.setattr(lifting, "estimate_moment", no_sampling)
        monkeypatch.setattr(lifting, "_run_chunks", no_sampling)
        with pytest.raises(UsageError, match="prism height"):
            sweep(triangle_T2(), 2, 1, eps_list, samples=10, seed=1)

    @pytest.mark.parametrize(
        "sweep, n, k, height",
        [(interior_convergence_sweep, 3, 2, 1e200), (boundary_convergence_sweep, 2, 1, 1e308)],
        ids=["interior", "boundary"],
    )
    def test_prisms_past_float64_refused_before_the_reference(
        self, monkeypatch, sweep, n, k, height
    ):
        # unchecked, the interior volumes overflowed to a nan mean, and the
        # boundary face areas to a failed face choice (both a bare ValueError
        # from the CLI)
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the refusal")

        monkeypatch.setattr(lifting, "estimate_moment", no_sampling)
        monkeypatch.setattr(lifting, "_run_chunks", no_sampling)
        with pytest.raises(CapacityError, match="float64"):
            sweep(triangle_T2(), n, k, [height, F(1, 2)], samples=10, seed=1)

    @pytest.mark.parametrize("sweep", [interior_convergence_sweep, boundary_convergence_sweep])
    @pytest.mark.parametrize(
        "reference", [F(10**400), "x", math.nan, -math.inf, [1]],
        ids=["10**400", "x", "nan", "-inf", "list"],
    )
    def test_reference_outside_float64_refused(self, monkeypatch, sweep, reference):
        # unchecked, 10**400 raised a bare OverflowError, "x" a bare
        # ValueError, and nan gave rows with a nan error, "not converged"
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the reference was checked")

        monkeypatch.setattr(lifting, "estimate_moment", no_sampling)
        monkeypatch.setattr(lifting, "_run_chunks", no_sampling)
        with pytest.raises(UsageError, match="reference"):
            sweep(triangle_T2(), 2, 1, [F(1, 2)], samples=10, seed=1, reference=reference)
