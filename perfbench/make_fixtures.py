"""Regenerate the frozen fixtures the benchmark checks every operation against.

    PYTHONPATH=src python3 perfbench/make_fixtures.py

Writes, under perfbench/fixtures/:

* tables/free_moments.json (k <= 7) and tables/fixed_moments.json
  (k <= 15), in the package's own checkpoint format, so the directory can
  be handed to ``verify-counterexample --tables`` as it is;
* expected.json: the exact verdict (both certificate bounds, the second
  moments and the mean separation), the two node-search LP objectives at
  the benchmark grid, and the Monte Carlo targets of the ``reproduce`` rule.

The fixtures are a frozen record of the program's answers.  Regenerate them
only when the answers are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

from gates import FIXTURES, TABLE_FILES

# grid of the LPs in the layers pass: one degree-6 lower plus one degree-14
# upper program takes about 5 to 10 s on a 2-CPU machine
LP_GRID = 50
LP_PROGRAMS = (
    {"name": "lower6", "case": "free", "degree": 6, "sense": "lower", "interval_end": "7/8"},
    {"name": "upper14", "case": "fixed-centroid", "degree": 14, "sense": "upper", "interval_end": "3/10"},
)
# the `reproduce` acceptance rule for the mean area in T3: free and pinned
# at (1/3, 1/3, 1/3), within 3 sigma plus half a unit of the last digit
MC_TARGETS = {"free": 0.0592, "pinned": 0.0466}
MC_SLACK = 5e-5


def main() -> int:
    from simplexmoments import format_rational, moment_table, node_search, verify_counterexample

    tables_dir = os.path.join(FIXTURES, "tables")
    shutil.rmtree(tables_dir, ignore_errors=True)
    os.makedirs(tables_dir)
    tables = {}
    for case, k_max in (("free", 7), ("fixed-centroid", 15)):
        path = os.path.join(tables_dir, TABLE_FILES[case])
        tables[case] = moment_table(case, k_max, checkpoint=path)

    report = verify_counterexample(tables["free"], tables["fixed-centroid"])
    if not report["confirmed"]:
        print("the verdict is not confirmed; no fixtures written", file=sys.stderr)
        return 1
    verdict = {
        "lower_bound": report["lower_certificate"].bound,
        "upper_bound": report["upper_certificate"].bound,
        "mean_separation": report["mean_separation"],
        "second_moment_free": report["second_moment"]["free"],
        "second_moment_fixed": report["second_moment"]["fixed"],
    }
    programs = []
    for program in LP_PROGRAMS:
        found = node_search(
            tables[program["case"]],
            program["degree"],
            LP_GRID,
            Fraction(program["interval_end"]),
            program["sense"],
        )
        programs.append(dict(program, objective=format_rational(found["objective"])))

    expected = {
        "verdict": {k: format_rational(v) for k, v in verdict.items()},
        "lp": {"grid": LP_GRID, "programs": programs},
        "mc": {"targets": MC_TARGETS, "slack": MC_SLACK},
    }
    with open(os.path.join(FIXTURES, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
