"""Exact and stochastic moments of random simplex volumes in convex bodies.

The package computes moments of the (n-1)-volume of the convex hull of n
random points in a convex body (optionally with one vertex pinned to a fixed
point), proves one-sided polynomial bounds on sqrt exactly (Descartes'
rule of signs, then Sturm sequences where it cannot decide), searches for
certificate nodes by an exact exchange on d+1 grid nodes of the dual
moment problem, and cross-checks everything by deterministic Monte Carlo.
The flagship use is the machine verification that pinning a vertex to the
facet centroid (1/3, 1/3, 1/3) of T3 = conv{0, e1, e2, e3} can strictly
decrease the expected volume, so these expectations are not monotone under
the natural ordering.

The command line tool lives in :mod:`simplexmoments.cli` and is not
imported here; ``python -m simplexmoments`` runs it.  Every public name is
listed in its module's ``__all__``, and the root re-exports them all.

The root imports none of its modules: each one loads the first time one
of its names (or the module itself) is read from the root.  mc and
lifting are the only modules that import numpy, so the exact layers never
load it, and ``verify-counterexample`` loads only the modules the verdict
runs: errors, exact, tetra and certificates, which the CLI imports.
"""

__version__ = "0.1.0"

from importlib import import_module

# the public names of every module, in the order of __all__, loaded by
# __getattr__ on first use; a test keeps these lists equal to each
# module's __all__
_LAZY_NAMES = {
    "errors": ["CapacityError", "DomainError", "UsageError", "VerificationError"],
    "exact": [
        "format_rational",
        "parse_rational",
        "UniPoly",
        "uni_eval",
        "SturmChain",
        "NonnegResult",
        "sturm_nonneg_on_interval",
    ],
    "geometry": [
        "Body",
        "ball",
        "body_measures",
        "contains",
        "cube",
        "halfball",
        "is_polytopal",
        "polygon_edges",
        "product",
        "standard_simplex",
        "tetrahedron_T3",
        "triangle_T2",
    ],
    "chords": [
        "TriangleSpec",
        "csc_power_antiderivative",
        "vertex_moment",
        "edgepoint_moment",
        "chord_moment",
        "ratio_r",
    ],
    "tetra": [
        "FREE_KMAX_LIMIT",
        "FIXED_KMAX_LIMIT",
        "MomentTable",
        "even_moment",
        "moment_table",
    ],
    "lp": ["node_search", "rationalize"],
    "certificates": [
        "PIVOT",
        "FREE_B",
        "FREE_BPRIME",
        "FIXED_B",
        "FIXED_BPRIME",
        "LOWER_SINGLE_NODES",
        "LOWER_DOUBLE_NODES",
        "UPPER_SINGLE_NODES",
        "UPPER_DOUBLE_NODES",
        "Certificate",
        "hermite_interpolate",
        "verify_bound_polynomial",
        "bound_from_moments",
        "build_certificate",
        "verify_counterexample",
        "certificate_to_json",
        "error_polynomial",
        "upper_sqrt_rational",
    ],
    "mc": [
        "CHUNK_SIZE",
        "RNG_ALGORITHM",
        "RngStream",
        "EstimateWithError",
        "sample_uniform",
        "sample_boundary_uniform",
        "estimate_moment",
    ],
    "lifting": [
        "interior_convergence_sweep",
        "boundary_convergence_sweep",
    ],
}
_LAZY_MODULE = {name: module for module, names in _LAZY_NAMES.items() for name in names}


def __getattr__(name):
    # the submodules themselves stay attributes of the root, as before
    module = name if name in _LAZY_NAMES else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    loaded = import_module("." + module, __name__)
    globals().update({key: getattr(loaded, key) for key in _LAZY_NAMES[module]})
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES) | set(_LAZY_MODULE))


__all__ = [name for names in _LAZY_NAMES.values() for name in names] + ["__version__"]
