"""Exact and stochastic moments of random simplex volumes in convex bodies.

The package computes moments of the (n-1)-volume of the convex hull of n
random points in a convex body (optionally with one vertex pinned to a fixed
point), proves one-sided polynomial bounds on sqrt by exact Sturm
certificates, searches for certificate nodes by an exact exchange on d+1
grid nodes of the dual moment problem, and cross-checks everything by
deterministic Monte Carlo. The flagship use is the machine verification
that pinning a vertex to the facet centroid (1/3, 1/3, 1/3) of
T3 = conv{0, e1, e2, e3} can strictly decrease the expected volume, so
these expectations are not monotone under the natural ordering.

The command line tool lives in :mod:`simplexmoments.cli` and is not
imported here; ``python -m simplexmoments`` runs it.  Every public name is
listed in its module's ``__all__``, and the root re-exports them all.

The names of :mod:`simplexmoments.mc` and :mod:`simplexmoments.lifting`
load lazily: those two modules are the only ones that import numpy, and
the root imports them the first time one of their names is read, so the
exact layers (tables, certificates, node search, chords) never load numpy.
"""

__version__ = "0.1.0"

from importlib import import_module

from .errors import *
from .exact import *
from .geometry import *
from .chords import *
from .tetra import *
from .lp import *
from .certificates import *

# the public names of mc and lifting, loaded by __getattr__ on first use;
# a test keeps these lists equal to mc.__all__ and lifting.__all__
_LAZY_NAMES = {
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
        "lift_body",
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


__all__ = (
    errors.__all__
    + exact.__all__
    + geometry.__all__
    + chords.__all__
    + tetra.__all__
    + lp.__all__
    + certificates.__all__
    + _LAZY_NAMES["mc"]
    + _LAZY_NAMES["lifting"]
    + ["__version__"]
)
