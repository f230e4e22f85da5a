"""One-shot re-measurement of the ROADMAP baseline table (not a gated workload).

    python3 perfbench/baseline.py [--out perfbench/BENCH_baseline.json]

Run from the repository root.  Each part runs once, in a fresh interpreter:

* the benchmark's layers pass (``worker.py layers``): per-order
  ``even_moment`` times for free k <= 7 and fixed k <= 15, the canonical
  certificate times, and Monte Carlo at 10^6 samples on 1 thread;
* the grid-200 degree-6 lower and degree-14 upper node searches;
* ``simplexmoments reproduce full`` into an empty tables directory, timed
  from outside as a user would see it.

Takes about a quarter of an hour on a 2-CPU machine.  The grid-200 LPs
dominate, and ``reproduce full`` solves them a second time.  The output
records the environment next to the ROADMAP's own figures.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import gates
import run as bench
from spans import Tracer, total

ROADMAP_FIGURES = {
    "tetra.free_s": 7.4,
    "tetra.free.k7_s": 5.3,
    "tetra.fixed_s": 2.2,
    "tetra.fixed.k15_s": 0.77,
    "certificates.lower_s": 0.01,
    "certificates.upper_s": 0.25,
    "lp200.lower6_s": 74.0,
    "lp200.upper14_s": 210.0,
    "mc.t1_1e6_s": "0.8-0.95",
    "tier1_suite_s": 364.0,
}
ORDER_SPAN = re.compile(r"tetra\.even_moment\.(free|fixed)\.k(\d+)$")


def lp200() -> dict:
    from simplexmoments import format_rational
    from worker import load_tables, lp_op

    tracer = Tracer("lp200")
    lp = dict(gates.load_expected()["lp"], grid=200)
    found = lp_op(tracer, load_tables(gates.FIXTURES), lp)
    out = {}
    for name, result in found.items():
        out["lp200.%s_s" % name] = total(tracer.spans, "lp.node_search.%s" % name)
        out["lp200.%s.objective" % name] = format_rational(result["objective"])
    return out


def layers(root: str, env: dict, scratch: str) -> dict:
    out = os.path.join(scratch, "layers.json")
    args = {"run": "baseline", "seed": 0, "workdir": scratch, "out": out, "fixtures": gates.FIXTURES}
    subprocess.run([sys.executable, bench.WORKER, "layers", json.dumps(args)],
                   env=env, cwd=root, check=True)
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    measured = dict(data["metrics"], layer_failures=data["failures"])
    for span in data["spans"]:
        match = ORDER_SPAN.match(span["name"])
        if match:
            measured["tetra.%s.k%s_s" % match.groups()] = span["end"] - span["start"]
    measured["mc.t1_1e6_s"] = 10**6 / measured["mc.t1_samples_per_s"]
    return measured


def reproduce_full(root: str, env: dict, scratch: str) -> dict:
    report = os.path.join(scratch, "report.json")
    argv = ["reproduce", "full", "--tables", os.path.join(scratch, "tables"), "--out", report]
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from simplexmoments.cli import main; sys.exit(main(%r))" % (argv,)],
        env=env, cwd=root)
    seconds = time.perf_counter() - t0
    with open(report, encoding="utf-8") as fh:
        passed = json.load(fh)["result"]["all_passed"]
    return {"reproduce_full_s": seconds, "reproduce_full_exit_code": done.returncode,
            "reproduce_full_all_passed": passed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(os.path.dirname(gates.FIXTURES), "BENCH_baseline.json"))
    parser.add_argument("--lp200", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.lp200:
        json.dump(lp200(), sys.stdout)
        return 0

    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    record = {"environment": bench.environment(root), "roadmap_figures": ROADMAP_FIGURES}
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="baseline-", dir=out_dir)
    try:
        print("baseline: layers pass", file=sys.stderr, flush=True)
        measured = layers(root, env, scratch)
        print("baseline: grid-200 LPs", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--lp200"],
                              env=env, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
        measured.update(json.loads(done.stdout))
        print("baseline: reproduce full", file=sys.stderr, flush=True)
        measured.update(reproduce_full(root, env, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["environment"]["loadavg_end"] = list(os.getloadavg())
    record["measured"] = measured
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(measured, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
