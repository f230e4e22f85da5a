"""Every count argument follows one rule: an int, not a bool, of at least a bound.

Each entry point below takes one count (a dimension, an order, a sample,
thread, degree or grid count, a denominator bound or a sample size).  A
bool, a float, or an int below the bound is a UsageError; the bound itself
is accepted.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from simplexmoments.certificates import upper_sqrt_rational
from simplexmoments.chords import (
    TriangleSpec,
    chord_moment,
    csc_power_antiderivative,
    edgepoint_moment,
    ratio_r,
    vertex_moment,
)
from simplexmoments.errors import UsageError
from simplexmoments.geometry import (
    ball,
    cube,
    halfball,
    product,
    standard_simplex,
    tetrahedron_T3,
    triangle_T2,
)
from simplexmoments.lifting import boundary_convergence_sweep, interior_convergence_sweep
from simplexmoments.lp import node_search, rationalize
from simplexmoments.mc import estimate_moment, sample_boundary_uniform, sample_uniform
from simplexmoments.tetra import even_moment, moment_table

TRI = TriangleSpec.from_sides(math.sqrt(2.0), 1.0, 1.0)
TABLE = moment_table("free", 1)


def _estimate(n=3, k=1, samples=10, threads=1):
    return estimate_moment(tetrahedron_T3(), n, k, samples=samples, seed=1, threads=threads)


def _sweep(sweep):
    def run(n=2, k=1, samples=10, threads=1):
        return sweep(triangle_T2(), n, k, [F(1, 2)], samples=samples, seed=1, threads=threads)
    return run


def _rng():
    return np.random.default_rng(0)


# (name, least, call with the count in its slot)
SITES = [
    ("upper_sqrt_rational.max_den", 1, lambda v: upper_sqrt_rational(2, v)),
    ("csc_power_antiderivative.m", 1, lambda v: csc_power_antiderivative(v, 1.0)),
    ("vertex_moment.k", 1, lambda v: vertex_moment(TRI, "A", v)),
    ("edgepoint_moment.k", 1, lambda v: edgepoint_moment(TRI, 0.5, v)),
    ("chord_moment.k", 1, lambda v: chord_moment(TRI, v)),
    ("ratio_r.k", 1, ratio_r),
    ("standard_simplex.dim", 1, standard_simplex),
    ("cube.dim", 1, cube),
    ("ball.dim", 1, ball),
    ("halfball.dim", 1, halfball),
    ("rationalize.max_den", 1, lambda v: rationalize(math.pi, v)),
    ("node_search.degree", 1, lambda v: node_search(TABLE, v, 8, 1, "lower")),
    ("node_search.grid_size", 1, lambda v: node_search(TABLE, 1, v, 1, "lower")),
    ("estimate_moment.n", 2, lambda v: _estimate(n=v)),
    ("estimate_moment.k", 1, lambda v: _estimate(k=v)),
    ("estimate_moment.samples", 1, lambda v: _estimate(samples=v)),
    ("estimate_moment.threads", 1, lambda v: _estimate(threads=v)),
    ("sample_uniform.size", 1, lambda v: sample_uniform(cube(2), _rng(), size=v)),
    ("sample_boundary_uniform.size", 1,
     lambda v: sample_boundary_uniform(product(triangle_T2(), F(1, 2)), _rng(), size=v)),
    ("even_moment.k", 0, lambda v: even_moment("free", v)),
    ("moment_table.k_max", 0, lambda v: moment_table("free", v)),
] + [
    ("%s.%s" % (sweep.__name__, arg), least,
     lambda v, run=_sweep(sweep), arg=arg: run(**{arg: v}))
    for sweep in (interior_convergence_sweep, boundary_convergence_sweep)
    for arg, least in (("n", 2), ("k", 1), ("samples", 1), ("threads", 1))
]

BAD = [
    pytest.param(call, value, id="%s=%r" % (name, value))
    for name, least, call in SITES
    for value in (True, least - 1)
] + [
    pytest.param(call, 2.5, id="%s=2.5" % name)
    for name, _least, call in SITES
    if name.endswith(".size")
]


@pytest.mark.parametrize("call, value", BAD)
def test_bad_count_is_usage(call, value):
    with pytest.raises(UsageError, match="must be an integer >="):
        call(value)


@pytest.mark.parametrize(
    "call, least", [pytest.param(call, least, id=name) for name, least, call in SITES]
)
def test_least_count_is_accepted(call, least):
    call(least)
