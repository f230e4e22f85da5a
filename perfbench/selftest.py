"""Self-test of the correctness gates: a corrupted fixture fails an operation.

    python3 perfbench/selftest.py

Run from the repository root.  Copies perfbench/fixtures into a temporary
directory under .perfbench_out, changes one exact value in the copy, and
runs one operation against it:

* a verdict-warm operation with the k=15 pinned moment nudged by 10^-40
  (relative): the table still passes ``MomentTable.check`` and the verdict
  is still confirmed, but the upper bound no longer equals the frozen one;
* the layers pass of a traced run with the frozen degree-6 LP objective
  nudged by 10^-40.

Each must be counted as a failed operation, and the same operation against
the untouched fixtures must pass.  Exits 0 when all four hold.  Takes about
a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

import gates
import run as bench

NUDGE = Fraction(1, 10**40)


def verdict_op(run: bench.Run) -> list:
    return bench.verdict_ops(run, 1)[0]["failures"]


def layers_op(run: bench.Run) -> list:
    return bench.layers_pass(run)["failures"]


def failures(op, fixtures: str) -> list:
    run = bench.Run("verdict-warm", 0, 0.001, 0, os.getcwd(), fixtures=fixtures)
    try:
        return op(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def nudge_table(fixtures: str) -> None:
    path = os.path.join(fixtures, "tables", gates.TABLE_FILES["fixed-centroid"])
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    last = data["entries"][-1]
    value = Fraction(last["value"]) * (1 - NUDGE)
    last["value"] = "%d/%d" % (value.numerator, value.denominator)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def nudge_lp_objective(fixtures: str) -> None:
    path = os.path.join(fixtures, "expected.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    program = data["lp"]["programs"][0]
    value = Fraction(program["objective"]) + NUDGE
    program["objective"] = "%d/%d" % (value.numerator, value.denominator)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def main() -> int:
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for op, corrupt in ((verdict_op, nudge_table), (layers_op, nudge_lp_objective)):
        clean = failures(op, gates.FIXTURES)
        scratch = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
        try:
            fixtures = os.path.join(scratch, "fixtures")
            shutil.copytree(gates.FIXTURES, fixtures)
            corrupt(fixtures)
            broken = failures(op, fixtures)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print("%s, frozen fixtures: failures %s" % (op.__name__, clean))
        print("%s, corrupted copy (%s): failures %s" % (op.__name__, corrupt.__name__, broken))
        ok = ok and not clean and bool(broken)
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
