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
listed once, in its module's ``__all__``, and the root re-exports them all.
"""

__version__ = "0.1.0"

from .errors import *
from .exact import *
from .geometry import *
from .chords import *
from .tetra import *
from .lp import *
from .certificates import *
from .mc import *
from .lifting import *

__all__ = (
    errors.__all__
    + exact.__all__
    + geometry.__all__
    + chords.__all__
    + tetra.__all__
    + lp.__all__
    + certificates.__all__
    + mc.__all__
    + lifting.__all__
    + ["__version__"]
)
