"""Exact grid node search for one-sided polynomial bounds of sqrt.

Given exact even moments mu_0, mu_2, ..., mu_2d of a random area V, the best
p(x) = sum a_i x^i with p(t^2) <= t on a rational grid of t-values maximizes
sum a_i mu_2i, a lower bound for E V; the reverse inequality minimized gives
an upper bound.  Grid points where the optimum touches the constraint, with
adjacent ones merged, are candidate interpolation nodes.

The program is solved on its dual side, a discrete moment problem with d+1
rows: over weights y_l >= 0 on the grid points x_l = t_l^2, minimize
(lower) or maximize (upper) sum_l t_l y_l subject to sum_l y_l x_l^i = mu_2i
for i = 0..d, by an exchange on d+1 grid nodes (a dual simplex method).  A
basis gets its weights from one exact Vandermonde solve and its polynomial
p by interpolating t; the first basis makes p a feasible bound.  While a
weight is negative, the node with the most negative one leaves, and the grid
point that first touches the bound as p moves along the leaving Lagrange
polynomial enters.  By Descartes' rule of signs, t - p(t^2) has at most d+1
zeros on [0, inf), so no grid point off the basis touches the bound: each
exchange strictly improves the objective, and the loop ends with no
anti-cycling rule.  The final basis supports a principal representation of
the moments (Karlin & Studden, 1966).

When no point can enter, the leaving Lagrange polynomial is >= 0 on the grid
with a negative moment functional; with fewer grid points than coefficients
the signed product of (x - x_l) over the grid is.  Either, checked exactly,
proves that no weights fit, so the bound program is unbounded.  Optima are
certified exactly, with no tolerance: dual feasibility, the bound at every
grid point, and equal objectives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm

from . import _LAZY_NAMES
from .certificates import hermite_interpolate
from .errors import CapacityError, UsageError, VerificationError, _count
from .exact import _as_fraction, _horner

__all__ = _LAZY_NAMES["lp"]


def rationalize(x, max_den: int) -> Fraction:
    """Best rational approximation with denominator at most max_den."""
    _count(max_den, "max_den")
    try:
        value = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise UsageError("cannot rationalize %r: not a finite number" % (x,)) from None
    return value.limit_denominator(max_den)


def _poly_from_roots(roots) -> list:
    """Coefficients, lowest first, of the product of (x - r) over the roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [lo - r * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _functional(coeffs, moments) -> Fraction:
    return sum((c * mu for c, mu in zip(coeffs, moments)), Fraction(0))


def _lagrange(xs, basis, r):
    """Lagrange polynomial of node r on the basis, as (coefficients, divisor)."""
    coeffs = _poly_from_roots(xs[c] for c in basis if c != r)
    return coeffs, _horner(coeffs, xs[r])


def _interpolant(grid, basis) -> list[Fraction]:
    """The len(basis) coefficients of the p of degree < len(basis) with p(t_b^2) = t_b."""
    coeffs = list(hermite_interpolate([grid[b] for b in basis], ()).coeffs)
    return coeffs + [Fraction(0)] * (len(basis) - len(coeffs))


def _start_basis(npts: int, degree: int, sense: str) -> list[int]:
    """t = 0 (lower), adjacent grid pairs spread evenly, and the grid end if a
    node is left.  t - p(t^2) changes sign only at these d+1 zeros, so off them
    it keeps its sign at t = 0+: that of t if p(0) = 0, else -p(0) < 0 (Descartes)."""
    lower = sense == "lower"
    pairs, slack = (degree + 1 - lower) // 2, npts - 1 - degree  # no slack: packed left
    starts = [lower + 2 * k + slack * (k + 1) // (pairs + 1) for k in range(pairs)]
    basis = [0] * lower + [l + i for l in starts for i in (0, 1)]
    return basis + [npts - 1] * (degree + 1 - len(basis))


def _check_farkas(grid, moments, coefficients) -> None:
    """Raise VerificationError unless w(t_l^2) >= 0 on the grid and sum_i w_i
    mu_2i < 0, which proves that no grid weights y >= 0 have the moments."""
    if any(_horner(coefficients, t * t) < 0 for t in grid):
        raise VerificationError("Farkas polynomial is negative at a grid point")
    if _functional(coefficients, moments) >= 0:
        raise VerificationError("Farkas polynomial has a nonnegative moment functional")


def _solve_moment_program(grid, moments, sense: str):
    """Optimal basis and weights on an increasing grid of t >= 0, or None
    once an exact Farkas proof shows that no weights fit."""
    npts, size = len(grid), len(moments)
    if npts < size:
        vanishing = _poly_from_roots(t * t for t in grid)  # zero on the whole grid
        value = _functional(vanishing, moments)
        if not value:
            raise VerificationError("%d grid points cannot determine a degree-%d bound "
                                    "polynomial" % (npts, size - 1))
        _check_farkas(grid, moments, [-c / value for c in vanishing])
        return None
    scale = lcm(*(t.denominator for t in grid))
    u = [int(t * scale) ** 2 for t in grid]  # x_l = u_l / scale^2 in integers
    nu = [mu * scale ** (2 * i) for i, mu in enumerate(moments)]  # the moments over u
    basis = _start_basis(npts, size - 1, sense)
    p, sign = _interpolant(grid, basis), (1 if sense == "lower" else -1)
    cost = [sign * (t - _horner(p, t * t)) for t in grid]  # reduced costs, kept >= 0
    while True:
        lags = {b: _lagrange(u, basis, b) for b in basis}
        weights = {b: _functional(lag, nu) / den for b, (lag, den) in lags.items()}
        leave = min(basis, key=lambda b: (weights[b], b))
        if weights[leave] >= 0:
            return basis, [weights.get(l, Fraction(0)) for l in range(npts)]
        lag, den = lags[leave]
        along = [Fraction(_horner(lag, x), den) for x in u]  # L_r on the grid
        entering = [j for j, a in enumerate(along) if a < 0]
        if not entering:  # L_r >= 0 on the grid, its moment functional is y_r < 0
            farkas = [Fraction(c * scale ** (2 * i), den) for i, c in enumerate(lag)]
            _check_farkas(grid, moments, farkas)
            return None
        step, enter = min((cost[j] / -along[j], j) for j in entering)
        cost = [c + step * a for c, a in zip(cost, along)]
        basis[basis.index(leave)] = enter


def _check_certificate(grid, moments, sense: str, coefficients, weights) -> list[int]:
    """Exact optimality proof of a polynomial bound and its dual weights.

    Raises VerificationError unless the weights are nonnegative and
    reproduce every moment exactly, p(t_l^2) <= t_l ("lower") or >= t_l
    ("upper") at every grid point, and sum_i a_i mu_2i equals
    sum_l t_l y_l.  Returns the grid indices where p(t_l^2) = t_l.
    """
    support = [(t, y) for t, y in zip(grid, weights) if y]
    if len(weights) != len(grid) or any(y < 0 for y in weights):
        raise VerificationError("dual weights are not a nonnegative grid measure")
    for i, mu in enumerate(moments):
        if sum((y * t ** (2 * i) for t, y in support), Fraction(0)) != mu:
            raise VerificationError("dual weights miss moment mu_%d" % (2 * i))
    active = []
    for l, t in enumerate(grid):
        value = _horner(coefficients, t * t)
        if value == t:
            active.append(l)
        elif (value > t) == (sense == "lower"):
            raise VerificationError("bound polynomial fails at grid point t=%s" % t)
    if _functional(coefficients, moments) != sum((t * y for t, y in support), Fraction(0)):
        raise VerificationError("primal and dual objectives differ")
    return active


# The exchange makes about one step per grid point it moves a node, each of
# O(grid) Fraction operations, so node_search's time grows about 4x per
# doubling of the grid.  Degree 6 and degree 14 took 1.1 and 1.4 s at 400
# points, 4.9 and 4.5 s at 800, and 18 and 20 s at 1600 (2-CPU Xeon, Python
# 3.11), so a run at this bound takes a minute or two.
_MAX_GRID = 3200


def _check_grid(grid_size) -> None:
    """A grid size from 1 to _MAX_GRID; a larger one is a CapacityError,
    raised before any grid point or moment is touched."""
    _count(grid_size, "grid_size")
    if grid_size > _MAX_GRID:
        raise CapacityError(
            "a grid of %d cells exceeds the limit of %d; the node search's time grows "
            "about 4x per doubling of the grid, to about 20 s at 1600 cells"
            % (grid_size, _MAX_GRID)
        )


def node_search(table, degree: int, grid_size: int, interval_end, sense: str) -> dict:
    """Best polynomial bound for sqrt on a rational grid, plus touch points.

    On the grid t_l = l * interval_end / grid_size, l = 0..grid_size, it
    maximizes (sense "lower") or minimizes ("upper") sum_i a_i mu_2i over p of
    the given degree with p(t_l^2) <= t_l, or >= t_l, taking mu_2i from
    ``table``.  Returns the exact objective, the coefficients, and candidate
    interpolation nodes: grid t-values with an active constraint, adjacent
    ones merged to their midpoint, t = 0 excluded.  The status is "unbounded"
    when no polynomial bound has a finite optimum.  Grids above _MAX_GRID
    cells are refused with a CapacityError.
    """
    if sense not in ("lower", "upper"):
        raise UsageError("sense must be 'lower' or 'upper'")
    _count(degree, "degree")
    _check_grid(grid_size)
    end = _as_fraction(interval_end)
    if end <= 0:
        raise UsageError("interval_end must be positive")
    moments = table.upto(degree)
    grid = [Fraction(l) * end / grid_size for l in range(grid_size + 1)]
    solved = _solve_moment_program(grid, moments, sense)
    if solved is None:
        return {"status": "unbounded", "objective": None, "candidate_nodes": []}
    basis, weights = solved
    coefficients = tuple(_interpolant(grid, basis))
    active = [l for l in _check_certificate(grid, moments, sense, coefficients, weights) if l]
    runs = [[l for _, l in run] for _, run in groupby(enumerate(active), lambda p: p[1] - p[0])]
    candidates = [sum(grid[i] for i in run) / len(run) for run in runs]
    return {
        "status": "optimal",
        "objective": _functional(coefficients, moments),
        "coefficients": coefficients,
        "candidate_nodes": candidates,
        "active_grid_indices": tuple(active),
    }
