"""Tests for the dual-side node-search programs."""

import json
import os
from fractions import Fraction as F

import pytest
import scipy.optimize

from oracles import solve_fraction_free
from simplexmoments.certificates import LOWER_DOUBLE_NODES, PIVOT
from simplexmoments.cli import main
from simplexmoments.errors import CapacityError, UsageError, VerificationError
from simplexmoments import lp
from simplexmoments.exact import format_rational, parse_rational
from simplexmoments.lp import (
    _check_certificate,
    _check_farkas,
    _solve_moment_program,
    _start_basis,
    node_search,
    rationalize,
)
from simplexmoments.tetra import moment_table

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestRationalize:
    def test_documented_values(self):
        assert rationalize(0.105263157894, 50) == F(2, 19)
        assert rationalize(0.5, 10) == F(1, 2)
        assert rationalize(0.259259259259, 30) == F(7, 27)

    def test_fraction_input_passthrough(self):
        assert rationalize(F(2, 19), 64) == F(2, 19)
        assert rationalize(F(123456, 1000003), 64) == F(123456, 1000003).limit_denominator(64)

    def test_bad_max_den(self):
        with pytest.raises(UsageError):
            rationalize(0.5, 0)
        with pytest.raises(UsageError):
            rationalize(0.5, 1.5)


@pytest.fixture(scope="module")
def free_table():
    return moment_table("free", 4)


@pytest.fixture(scope="module")
def fixed_table():
    return moment_table("fixed-centroid", 4)


class TestNodeSearch:
    def test_degree_one_lower_is_chord_through_origin(self, free_table):
        result = node_search(free_table, 1, 40, F(7, 8), "lower")
        assert result["status"] == "optimal"
        # best linear under-bound of sqrt pivots on the origin and the grid
        # end, so exactly one non-zero candidate node survives
        assert result["candidate_nodes"] == [F(7, 8)]
        assert result["coefficients"][0] == 0
        assert result["coefficients"][1] == F(8, 7)
        assert result["objective"] == free_table.value(1) * F(8, 7)

    def test_degree_one_upper_optimal(self, fixed_table):
        result = node_search(fixed_table, 1, 40, F(3, 10), "upper")
        assert result["status"] == "optimal"
        # an upper linear bound of sqrt must clear every grid point exactly
        a0, a1 = result["coefficients"]
        for l in range(41):
            t = F(l, 40) * F(3, 10)
            assert a0 + a1 * t * t >= t
        assert result["objective"] == a0 + a1 * fixed_table.value(1)

    def test_lower_objectives_nondecreasing_in_degree(self, free_table):
        values = [
            node_search(free_table, deg, 25, F(7, 8), "lower")["objective"]
            for deg in range(1, 5)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo

    def test_upper_objectives_nonincreasing_in_degree(self, fixed_table):
        values = [
            node_search(fixed_table, deg, 25, F(3, 10), "upper")["objective"]
            for deg in range(1, 5)
        ]
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi

    def test_bounds_bracket_true_expectation(self, free_table, fixed_table):
        # E V lies between any lower and upper program value for its case
        lower = node_search(free_table, 3, 30, F(7, 8), "lower")["objective"]
        upper = node_search(free_table, 3, 30, F(7, 8), "upper")["objective"]
        assert lower < upper
        lower = node_search(fixed_table, 3, 30, F(3, 10), "lower")["objective"]
        upper = node_search(fixed_table, 3, 30, F(3, 10), "upper")["objective"]
        assert lower < upper

    def test_grid_constraints_hold_exactly(self, free_table):
        result = node_search(free_table, 2, 30, F(7, 8), "lower")
        coeffs = result["coefficients"]
        for l in range(31):
            t = F(l, 30) * F(7, 8)
            value = sum(c * (t * t) ** i for i, c in enumerate(coeffs))
            assert value <= t
        for idx in result["active_grid_indices"]:
            t = F(idx, 30) * F(7, 8)
            value = sum(c * (t * t) ** i for i, c in enumerate(coeffs))
            assert value == t

    def test_adjacent_active_rows_merge_to_midpoint(self, free_table):
        # a fine grid makes the tangency fall between two grid points, and
        # the reported candidate is then their midpoint
        result = node_search(free_table, 2, 64, F(7, 8), "lower")
        active = result["active_grid_indices"]
        nodes = result["candidate_nodes"]
        runs = []
        current = [active[0]]
        for idx in active[1:]:
            if idx == current[-1] + 1:
                current.append(idx)
            else:
                runs.append(current)
                current = [idx]
        runs.append(current)
        assert len(nodes) == len(runs)
        for node, run in zip(nodes, runs):
            expect = sum(F(i, 64) * F(7, 8) for i in run) / len(run)
            assert node == expect

    def test_insufficient_table_raises_capacity(self, free_table):
        with pytest.raises(CapacityError):
            node_search(free_table, 5, 20, F(7, 8), "lower")

    def test_usage_errors(self, free_table):
        with pytest.raises(UsageError):
            node_search(free_table, 1, 20, F(7, 8), "sideways")
        with pytest.raises(UsageError):
            node_search(free_table, 0, 20, F(7, 8), "lower")
        with pytest.raises(UsageError):
            node_search(free_table, 1, 0, F(7, 8), "lower")
        with pytest.raises(UsageError):
            node_search(free_table, 1, 20, F(0), "lower")

    def test_grid_above_the_bound_is_refused_before_any_work(self):
        # no table is read and no grid point built: a grid of 10**30 never returned
        for grid in (lp._MAX_GRID + 1, 10 ** 30):
            with pytest.raises(CapacityError) as err:
                node_search(None, 6, grid, F(7, 8), "lower")
            assert "exceeds the limit of %d" % lp._MAX_GRID in str(err.value)
        lp._check_grid(lp._MAX_GRID)


def highs_objective(table, degree, grid_size, end, sense):
    """Floating-point reference optimum via scipy's HiGHS backend.

    HiGHS solves the dual moment problem with each row divided by its
    moment.  The primal in floats is a poor oracle here: at free degree 4
    upper its Vandermonde rows are so ill conditioned that HiGHS returns a
    polynomial violating one grid constraint by 3e-9 and an objective 1.4e-8
    too low, whatever its tolerances.
    """
    grid = [float(F(l) * end / grid_size) for l in range(grid_size + 1)]
    mu = [float(table.value(i)) for i in range(degree + 1)]
    sign = 1 if sense == "lower" else -1
    res = scipy.optimize.linprog(
        [sign * t for t in grid],
        A_eq=[[t ** (2 * i) / m for t in grid] for i, m in enumerate(mu)],
        b_eq=[1.0] * len(mu),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return sign * res.fun


class TestAgainstHighs:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    @pytest.mark.parametrize("case", ["free", "fixed-centroid"])
    def test_objective_matches_float_oracle(self, free_table, fixed_table, case, sense, degree):
        table, end = (free_table, F(7, 8)) if case == "free" else (fixed_table, F(3, 10))
        found = node_search(table, degree, 25, end, sense)
        assert found["status"] == "optimal"
        exact = float(found["objective"])
        assert abs(highs_objective(table, degree, 25, end, sense) - exact) <= 1e-9 * exact


class TestGoldenPrograms:
    def test_grid50_programs_match_golden_file(self):
        # generated by the primal simplex solver this dual solver replaced
        with open(os.path.join(DATA, "node_search_golden.json"), encoding="utf-8") as fh:
            programs = json.load(fh)["programs"]
        assert [(p["case"], p["sense"], p["degree"]) for p in programs] == [
            ("free", "lower", 6),
            ("fixed-centroid", "upper", 14),
        ]
        for prog in programs:
            table = moment_table(prog["case"], prog["degree"])
            found = node_search(
                table, prog["degree"], prog["grid"], parse_rational(prog["interval_end"]), prog["sense"]
            )
            assert found["status"] == "optimal"
            assert format_rational(found["objective"]) == prog["objective"]
            assert [format_rational(c) for c in found["coefficients"]] == prog["coefficients"]
            assert [format_rational(t) for t in found["candidate_nodes"]] == prog["candidate_nodes"]
            assert list(found["active_grid_indices"]) == prog["active_grid_indices"]


class TestSmallGoldenPrograms:
    def test_small_programs_match_golden_file(self, free_table, fixed_table):
        # frozen from the two-phase tableau simplex the exchange replaced:
        # degrees 1-4, six grids, both cases and both senses
        with open(os.path.join(DATA, "node_search_small_golden.json"), encoding="utf-8") as fh:
            programs = json.load(fh)["programs"]
        assert len(programs) == 96
        tables = {"free": free_table, "fixed-centroid": fixed_table}
        for prog in programs:
            table, degree, size = tables[prog["case"]], prog["degree"], prog["grid"]
            end = parse_rational(prog["interval_end"])
            found = node_search(table, degree, size, end, prog["sense"])
            grid = [F(l) * end / size for l in range(size + 1)]
            moments = [table.value(i) for i in range(degree + 1)]
            solved = _solve_moment_program(grid, moments, prog["sense"])
            assert found["status"] == prog["status"]
            if prog["status"] == "unbounded":
                assert solved is None
                continue
            basis, weights = solved
            assert sorted(basis) == prog["support"]
            assert len(weights) == size + 1
            assert {l: format_rational(y) for l, y in enumerate(weights) if y} == dict(
                zip(prog["support"], prog["weights"])
            )
            assert format_rational(found["objective"]) == prog["objective"]
            assert [format_rational(c) for c in found["coefficients"]] == prog["coefficients"]
            assert list(found["active_grid_indices"]) == prog["active_grid_indices"]


class TestExchange:
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_start_basis_is_a_feasible_bound(self, sense):
        grid = [F(l, 50) * F(7, 8) for l in range(51)]
        for degree in range(1, 16):
            basis = _start_basis(len(grid), degree, sense)
            assert len(set(basis)) == degree + 1
            assert all(0 <= l < len(grid) for l in basis)
            coeffs = solve_fraction_free(
                [[grid[l] ** (2 * i) for i in range(degree + 1)] for l in basis],
                [grid[l] for l in basis],
            )
            for l, t in enumerate(grid):
                gap = t - sum(a * t ** (2 * i) for i, a in enumerate(coeffs))
                assert gap == 0 if l in basis else (gap > 0) == (sense == "lower")

    def test_start_basis_packs_pairs_on_a_tight_grid(self):
        assert _start_basis(5, 4, "lower") == [0, 1, 2, 3, 4]
        assert _start_basis(5, 4, "upper") == [0, 1, 2, 3, 4]
        assert _start_basis(4, 3, "lower") == [0, 1, 2, 3]

    GRID = [F(0), F(1, 2), F(1)]

    def test_farkas_rejects_a_negative_grid_value(self, free_table):
        # w(x) = x - 1/8 is negative only at x = 0; its moment functional is
        # negative, so only the grid check can refuse it
        moments = [free_table.value(i) for i in range(2)]
        assert moments[1] - F(1, 8) < 0
        with pytest.raises(VerificationError, match="negative at a grid point"):
            _check_farkas(self.GRID, moments, [-F(1, 8), F(1)])

    @pytest.mark.parametrize("coeffs", [[F(1)], [F(0)], [F(0), F(1)]])
    def test_farkas_rejects_a_nonnegative_functional(self, free_table, coeffs):
        moments = [free_table.value(i) for i in range(2)]
        with pytest.raises(VerificationError, match="nonnegative moment functional"):
            _check_farkas(self.GRID, moments, coeffs)

    @pytest.mark.parametrize("degree,size,route", [(3, 2, "vanishing"), (4, 4, "lagrange")])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_unbounded_routes_pass_the_farkas_check(
        self, free_table, monkeypatch, degree, size, route, sense
    ):
        proofs = []

        def recording(grid, moments, coefficients):
            _check_farkas(grid, moments, coefficients)
            proofs.append((grid, coefficients))

        monkeypatch.setattr(lp, "_check_farkas", recording)
        found = node_search(free_table, degree, size, F(7, 8), sense)
        assert found["status"] == "unbounded"
        [(grid, coeffs)] = proofs
        values = [sum(c * t ** (2 * i) for i, c in enumerate(coeffs)) for t in grid]
        if route == "vanishing":
            # fewer grid points than coefficients: zero on the whole grid
            assert values == [0] * len(grid)
        else:
            # the grid is the basis, so the proof is one Lagrange polynomial
            assert sorted(values) == [0] * (len(grid) - 1) + [1]


class TestUnbounded:
    # with no more grid points than coefficients the bound polynomial can
    # move freely off the grid, so no weights on the grid fit the moments
    @pytest.mark.parametrize("degree,grid", [(3, 2), (4, 4)])
    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_coarse_grid_is_unbounded(self, free_table, degree, grid, sense):
        found = node_search(free_table, degree, grid, F(7, 8), sense)
        assert found == {"status": "unbounded", "objective": None, "candidate_nodes": []}

    def test_nodes_command_reports_unbounded(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["nodes", "--case", "free", "--degree", "3", "--grid", "2", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text(encoding="utf-8"))["result"]
        assert result["status"] == "unbounded"
        assert "objective" not in result


class TestCertificateCheck:
    GRID = [F(l, 30) * F(7, 8) for l in range(31)]

    def optimal_pair(self, table, sense):
        moments = [table.value(i) for i in range(3)]
        _, weights = _solve_moment_program(self.GRID, moments, sense)
        found = node_search(table, 2, 30, F(7, 8), sense)
        return moments, list(found["coefficients"]), weights, found

    @pytest.mark.parametrize("sense", ["lower", "upper"])
    def test_optimal_pair_passes(self, free_table, sense):
        moments, coeffs, weights, found = self.optimal_pair(free_table, sense)
        active = _check_certificate(self.GRID, moments, sense, coeffs, weights)
        assert tuple(l for l in active if l) == found["active_grid_indices"]
        # a basic optimum carries one positive weight per moment row
        assert sum(1 for y in weights if y) == len(moments)

    @pytest.mark.parametrize("sense", ["lower", "upper"])
    @pytest.mark.parametrize("step", [F(1, 10**12), -F(1, 10**12)])
    def test_nudged_coefficient_fails(self, free_table, sense, step):
        # one direction breaks the grid inequality, the other the objective match
        moments, coeffs, weights, _ = self.optimal_pair(free_table, sense)
        coeffs[0] += step
        with pytest.raises(VerificationError):
            _check_certificate(self.GRID, moments, sense, coeffs, weights)

    @pytest.mark.parametrize("step", [F(1, 10**12), -F(1, 10**12)])
    def test_nudged_weight_fails(self, free_table, step):
        moments, coeffs, weights, _ = self.optimal_pair(free_table, "lower")
        support = next(l for l, y in enumerate(weights) if y)
        weights[support] += step
        with pytest.raises(VerificationError):
            _check_certificate(self.GRID, moments, "lower", coeffs, weights)

    def test_negative_weight_fails(self, free_table):
        moments, coeffs, weights, _ = self.optimal_pair(free_table, "lower")
        zero = next(l for l, y in enumerate(weights) if not y)
        weights[zero] = -F(1, 10**12)
        with pytest.raises(VerificationError):
            _check_certificate(self.GRID, moments, "lower", coeffs, weights)


class TestFineGridNodeRecovery:
    @pytest.mark.slow
    def test_degree7_grid_search_localizes_certificate_nodes(self):
        # The grid spans [0, 7/8], slightly more than the support
        # [0, sqrt(3)/2] of the volume variable, so the optimum pays for
        # feasibility it does not need and lands just below the pivot.
        # The canonical lower certificate clears the pivot by verifying
        # on the tight rational endpoint 13/15 >= sqrt(3)/2 instead.
        # Even so, the fine grid search localizes each interior tangency
        # of that certificate to within one grid step.
        free = moment_table("free", 7)
        result = node_search(free, 7, 400, F(7, 8), "lower")
        assert result["status"] == "optimal"
        objective = result["objective"]
        assert isinstance(objective, F)
        assert F(4647, 100000) < objective < PIVOT
        nodes = result["candidate_nodes"]
        assert nodes[-1] == F(7, 8)
        interior = nodes[:-1]
        assert len(interior) == 3
        step = F(7, 8) / 400
        for node, target in zip(interior, LOWER_DOUBLE_NODES):
            assert abs(node - target) < step
