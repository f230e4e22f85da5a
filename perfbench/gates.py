"""Correctness gates: every benchmark operation is checked against the
frozen fixtures, and an operation that misses any gate counts as failed.

Each check returns a list of failure messages (empty when the output is
correct).  Exact quantities are compared as ``fractions.Fraction`` values,
so "p/q" strings that differ only in formatting still match.  Nothing here
imports the package under test.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
TABLE_FILES = {"free": "free_moments.json", "fixed-centroid": "fixed_moments.json"}


def load_expected(fixtures: str = FIXTURES) -> dict:
    with open(os.path.join(fixtures, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path: str) -> dict[int, Fraction]:
    """A checkpoint file in the package's table format, as {k: value}."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {int(e["k"]): Fraction(e["value"]) for e in data["entries"]}


def check_verdict_report(path: str, expected: dict) -> list[str]:
    """The verify-counterexample report must confirm the frozen verdict."""
    if not os.path.exists(path):
        return ["no report was written"]
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh).get("result", {})
    failures = []
    if result.get("confirmed") is not True:
        failures.append("report is not confirmed")
    verdict = expected["verdict"]
    found = {
        "lower_bound": result.get("lower_certificate", {}).get("bound"),
        "upper_bound": result.get("upper_certificate", {}).get("bound"),
        "mean_separation": result.get("mean_separation"),
        "second_moment_free": result.get("second_moment", {}).get("free"),
        "second_moment_fixed": result.get("second_moment", {}).get("fixed"),
    }
    for key, value in found.items():
        if value is None or Fraction(value) != Fraction(verdict[key]):
            failures.append("%s differs from the fixture" % key)
    return failures


def check_lp(program: dict, grid: int, moments, found: dict) -> list[str]:
    """Exact objective, and the returned coefficients re-checked at every
    grid point: p(t^2) <= t for "lower", p(t^2) >= t for "upper"."""
    label = program["name"]
    if found.get("status") != "optimal":
        return ["%s: status %r" % (label, found.get("status"))]
    failures = []
    objective = Fraction(program["objective"])
    if found["objective"] != objective:
        failures.append("%s: objective differs from the fixture" % label)
    coeffs = [Fraction(c) for c in found["coefficients"]]
    if len(coeffs) != program["degree"] + 1:
        return failures + ["%s: expected %d coefficients" % (label, program["degree"] + 1)]
    if sum(c * m for c, m in zip(coeffs, moments)) != objective:
        failures.append("%s: coefficients do not price to the objective" % label)
    end = Fraction(program["interval_end"])
    for l in range(grid + 1):
        t = end * l / grid
        x = t * t
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * x + c
        ok = value <= t if program["sense"] == "lower" else value >= t
        if not ok:
            failures.append("%s: constraint violated at grid point %d" % (label, l))
            break
    return failures


def check_mc(label: str, threaded, single, target: float, slack: float) -> list[str]:
    """Thread-count bit identity and the `reproduce` acceptance rule."""
    failures = []
    if (threaded.mean, threaded.std_error) != (single.mean, single.std_error):
        failures.append("%s: result depends on the thread count" % label)
    if not abs(threaded.mean - target) <= 3.0 * threaded.std_error + slack:
        failures.append(
            "%s: mean %r is not within 3 sigma + %g of %g"
            % (label, threaded.mean, slack, target)
        )
    return failures


def check_sweep(label: str, result: dict) -> list[str]:
    if result["verdict"] != "converged":
        return ["%s sweep verdict is %r" % (label, result["verdict"])]
    return []
