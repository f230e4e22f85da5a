"""Exact grid node search for one-sided polynomial bounds of sqrt.

Given an exact even-moment table (mu_0, mu_2, ..., mu_2d) for a random area
V, the best polynomial p(x) = sum a_i x^i with p(t^2) <= t on a rational
grid of t-values maximizes sum a_i mu_2i (a lower bound for E V); the
reverse inequality minimized gives an upper bound.  The grid t-values where
the optimal polynomial touches the constraint are candidates for
interpolation nodes; adjacent active grid points are merged, since the true
tangency lies between them.

The program is solved on its dual side, a discrete moment problem with only
d+1 equality rows: over weights y_l >= 0 on the grid points x_l = t_l^2,

    minimize (lower) or maximize (upper)  sum_l t_l y_l
    subject to  sum_l y_l x_l^i = mu_2i  for i = 0..d.

A dense two-phase simplex over Fraction arithmetic solves it; Bland's rule
guarantees termination even on degenerate vertices.  The optimal basis is
the support of a principal representation of the moments (Karlin & Studden,
Tchebycheff Systems, 1966), and the polynomial with p(x_b) = t_b on those
d+1 grid points, one Vandermonde solve, is the primal optimum.  There is no
tolerance anywhere: every optimum is certified exactly by dual feasibility,
the bound inequality at every grid point, and equal objectives, which by
weak duality prove both sides optimal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .errors import CapacityError, UsageError, VerificationError
from .exact import UniPoly, _as_fraction, _solve_fraction_free

__all__ = ["node_search", "rationalize"]


def rationalize(x, max_den: int) -> Fraction:
    """Best rational approximation with denominator at most max_den."""
    if not isinstance(max_den, int) or max_den < 1:
        raise UsageError("max_den must be a positive integer")
    return Fraction(x).limit_denominator(max_den)


def _pivot(lines, basis, row: int, col: int) -> None:
    """Make column ``col`` basic in tableau row ``row``.

    ``lines`` holds the tableau rows followed by the reduced-cost row; each
    ends in its right-hand side.
    """
    prow = lines[row]
    inv = 1 / prow[col]
    prow[:] = [v * inv for v in prow]
    for line in lines:
        factor = line[col]
        if line is not prow and factor:
            line[:] = [a - factor * b if b else a for a, b in zip(line, prow)]
    basis[row] = col


def _bland(tableau, basis, cost) -> None:
    """Simplex steps by Bland's rule until no reduced cost is positive."""
    lines = tableau + [cost]
    while True:
        enter = next((j for j in range(len(cost) - 1) if cost[j] > 0), None)
        if enter is None:
            return
        leave, best = None, None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            # phase 1 is bounded by zero, phase 2 by weak duality against
            # the always feasible primal (a = 0 or a = (end, 0, ...))
            raise VerificationError("the moment program has an unbounded ray")
        _pivot(lines, basis, leave, enter)


def _solve_moment_program(grid, moments, sense: str):
    """Optimal basis and weights on the grid, or None if no weights fit."""
    npts = len(grid)
    tableau = []
    column = [Fraction(1)] * npts
    for mu in moments:
        tableau.append(column + [mu])
        column = [c * t * t for c, t in zip(column, grid)]
    basis = list(range(npts, npts + len(moments)))  # artificials
    # phase 1: maximize minus the sum of the artificials
    cost = [sum(col) for col in zip(*tableau)]
    _bland(tableau, basis, cost)
    if cost[-1]:
        return None
    for i, b in enumerate(basis):
        if b >= npts:  # an artificial left basic at level zero
            col = next((j for j in range(npts) if tableau[i][j]), None)
            if col is None:
                raise VerificationError(
                    "%d grid points cannot determine a degree-%d bound polynomial"
                    % (npts, len(moments) - 1)
                )
            _pivot(tableau, basis, i, col)
    # phase 2: minimize (lower) or maximize (upper) sum_l t_l y_l
    sign = -1 if sense == "lower" else 1
    cost = [sign * t for t in grid] + [Fraction(0)]
    for row, b in zip(tableau, basis):
        factor = cost[b]
        cost = [c - factor * v for c, v in zip(cost, row)]
    _bland(tableau, basis, cost)
    weights = [Fraction(0)] * npts
    for row, b in zip(tableau, basis):
        weights[b] = row[-1]
    return basis, weights


def _check_certificate(grid, moments, sense: str, coefficients, weights) -> List[int]:
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
    poly = UniPoly(coefficients)
    active = []
    for l, t in enumerate(grid):
        value = poly(t * t)
        if value == t:
            active.append(l)
        elif (value > t) == (sense == "lower"):
            raise VerificationError("bound polynomial fails at grid point t=%s" % t)
    primal = sum((a * mu for a, mu in zip(coefficients, moments)), Fraction(0))
    if primal != sum((t * y for t, y in support), Fraction(0)):
        raise VerificationError("primal and dual objectives differ")
    return active


def node_search(table, degree: int, grid_size: int, interval_end, sense: str) -> dict:
    """Best polynomial bound for sqrt on a rational grid, plus touch points.

    Builds the grid t_l = l * interval_end / grid_size for l = 0..grid_size
    and solves, over polynomials p of the given degree,

        maximize  sum_i a_i mu_2i   s.t.  p(t_l^2) <= t_l   (sense "lower")
        minimize  sum_i a_i mu_2i   s.t.  p(t_l^2) >= t_l   (sense "upper")

    with the moments mu_2i taken from ``table``.  Returns the exact
    objective, the solved coefficient vector, and candidate interpolation
    nodes: grid t-values with an active constraint, adjacent actives merged
    to their midpoint, the structural t = 0 point excluded.  The status is
    "unbounded" when no polynomial bound has a finite optimum.
    """
    if sense not in ("lower", "upper"):
        raise UsageError("sense must be 'lower' or 'upper'")
    if not isinstance(degree, int) or degree < 1:
        raise UsageError("degree must be a positive integer")
    if not isinstance(grid_size, int) or grid_size < 1:
        raise UsageError("grid_size must be a positive integer")
    end = _as_fraction(interval_end)
    if end <= 0:
        raise UsageError("interval_end must be positive")
    if table.k_max < degree:
        raise CapacityError(
            "moment table reaches k=%d but the degree-%d program needs "
            "moments through order %d" % (table.k_max, degree, 2 * degree)
        )
    moments = [table.value(i) for i in range(degree + 1)]
    grid = [Fraction(l) * end / grid_size for l in range(grid_size + 1)]
    solved = _solve_moment_program(grid, moments, sense)
    if solved is None:
        return {"status": "unbounded", "objective": None, "candidate_nodes": []}
    basis, weights = solved
    coefficients = tuple(
        _solve_fraction_free(
            [[grid[l] ** (2 * i) for i in range(len(moments))] for l in basis],
            [grid[l] for l in basis],
        )
    )
    active = [l for l in _check_certificate(grid, moments, sense, coefficients, weights) if l]
    candidates = []
    run: List[int] = []
    for idx in active:
        if run and idx == run[-1] + 1:
            run.append(idx)
        else:
            if run:
                candidates.append(sum(grid[i] for i in run) / len(run))
            run = [idx]
    if run:
        candidates.append(sum(grid[i] for i in run) / len(run))
    return {
        "status": "optimal",
        "objective": sum((a * mu for a, mu in zip(coefficients, moments)), Fraction(0)),
        "coefficients": coefficients,
        "candidate_nodes": candidates,
        "active_grid_indices": tuple(active),
    }
