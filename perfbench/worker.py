"""Child-process side of the benchmark.  Every call is a fresh interpreter,
so the package's in-process caches never carry over between runs.

    PYTHONPATH=src python3 perfbench/worker.py <mode> '<json arguments>'

Modes:

* ``setup``  import the package and load the workload's fixtures (timed
  from outside as ``setup_s``);
* ``cli``    one ``simplexmoments.cli.main`` call with spans around the
  public calls of each layer (the traced form of a verdict operation);
* ``mc``     Monte Carlo and lifting operations for a window (mc-area);
* ``layers`` one traced pass over every layer for the per-layer metrics.

Results go to the JSON file named by the ``out`` argument.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

import gates
from spans import NoTracer, Tracer, another_op, self_times, total

# mc-area operation sizes: 10^6 samples per estimate keeps the `reproduce`
# rule's false-alarm rate near 1e-4 per estimate; the sweeps match the
# acceptance tests
MC_SAMPLES = 10**6
SWEEP_SAMPLES = 200_000
SWEEP_EPS = (Fraction(1, 2), Fraction(1, 8), Fraction(1, 32))
SWEEP_REFERENCE = Fraction(2, 9)
PINNED_POINT = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
# repeats of the millisecond-scale calls in the layers pass (median reported)
SHORT_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def mc_seeds(seed: int) -> dict:
    """Per-estimate seeds derived from the benchmark seed."""
    base = 4 * (seed % 2**31)
    return {"free": base + 1, "pinned": base + 2, "interior": base + 3, "boundary": base + 4}


def load_tables(fixtures: str):
    from simplexmoments import MomentTable

    tables = {}
    for case, name in gates.TABLE_FILES.items():
        with open(os.path.join(fixtures, "tables", name), encoding="utf-8") as fh:
            table = MomentTable.from_json(json.load(fh))
        table.check()
        tables[case] = table
    return tables


def cli_targets():
    """(owner, attribute, span name) for the public calls a CLI run makes."""
    from simplexmoments import certificates, cli, tetra

    return (
        (tetra, "even_moment", "tetra.even_moment"),
        (cli, "moment_table", "tables.moment_table"),
        (tetra.MomentTable, "from_json", "tables.from_json"),
        (tetra.MomentTable, "check", "tables.check"),
        (cli, "verify_counterexample", "certificates.verify_counterexample"),
        (certificates, "hermite_interpolate", "certificates.hermite_interpolate"),
        (certificates, "verify_bound_polynomial", "certificates.verify_bound_polynomial"),
        (certificates, "bound_from_moments", "certificates.bound_from_moments"),
    )


# ---------------------------------------------------------------------------
# operations: each returns its outputs; the gates run outside the timing


def lp_op(tracer, tables, lp):
    from simplexmoments import node_search

    found = {}
    for program in lp["programs"]:
        with tracer.span("lp.node_search.%s" % program["name"]):
            found[program["name"]] = node_search(
                tables[program["case"]],
                program["degree"],
                lp["grid"],
                Fraction(program["interval_end"]),
                program["sense"],
            )
    return found


def lp_gates(tables, lp, found) -> list:
    failures = []
    for program in lp["programs"]:
        table = tables[program["case"]]
        moments = [table.value(i) for i in range(program["degree"] + 1)]
        failures += gates.check_lp(program, lp["grid"], moments, found[program["name"]])
    return failures


def mc_op(tracer, seed: int):
    from simplexmoments import (
        boundary_convergence_sweep,
        estimate_moment,
        interior_convergence_sweep,
        tetrahedron_T3,
        triangle_T2,
    )

    seeds = mc_seeds(seed)
    threads = nproc()
    t3 = tetrahedron_T3()
    out = {}
    for label, fixed in (("free", None), ("pinned", PINNED_POINT)):
        for n_threads in sorted({threads, 1}, reverse=True):
            with tracer.span("mc.estimate_moment.%s.t%d" % (label, n_threads)):
                out[label, n_threads] = estimate_moment(
                    t3, 3, 1, fixed=fixed, samples=MC_SAMPLES, seed=seeds[label], threads=n_threads
                )
    for label, sweep in (
        ("interior", interior_convergence_sweep),
        ("boundary", boundary_convergence_sweep),
    ):
        with tracer.span("lifting.%s_convergence_sweep" % label):
            out[label] = sweep(
                triangle_T2(),
                2,
                2,
                SWEEP_EPS,
                samples=SWEEP_SAMPLES,
                seed=seeds[label],
                threads=threads,
                reference=SWEEP_REFERENCE,
            )
    return out


def mc_gates(mc, out) -> list:
    threads = nproc()
    failures = []
    for label, target in mc["targets"].items():
        failures += gates.check_mc(label, out[label, threads], out[label, 1], target, mc["slack"])
    for label in ("interior", "boundary"):
        failures += gates.check_sweep(label, out[label])
    return failures


def loop_ops(args, op, check) -> dict:
    """Run ``op`` for about ``seconds`` (at least ``min_ops`` times).

    In a traced run odd-numbered operations are traced and even ones are
    not, so the two medians give the tracing overhead.
    """
    ops = []
    collected = Tracer(args["run"])
    start = time.perf_counter()
    index = 0
    while another_op([op["seconds"] for op in ops], time.perf_counter() - start,
                     args["seconds"], args["min_ops"]):
        traced = bool(args["trace"]) and index % 2 == 1
        tracer = Tracer("%s-op%d" % (args["run"], index)) if traced else NoTracer()
        failures = []
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                out = op(tracer)
        except Exception as exc:  # a raising operation is a failed operation
            out = None
            failures.append("raised %s: %s" % (type(exc).__name__, exc))
        seconds = time.perf_counter() - t0
        if out is not None:
            failures += check(out)
        ops.append({"index": index, "traced": traced, "seconds": seconds, "failures": failures})
        collected.adopt(tracer.spans, None)
        index += 1
    return {"ops": ops, "spans": collected.spans}


# ---------------------------------------------------------------------------
# modes


def mode_setup(args) -> dict:
    import simplexmoments  # noqa: F401

    gates.load_expected(args["fixtures"])
    if args["workload"] != "mc-area":
        load_tables(args["fixtures"])
    return {}


def mode_cli(args) -> dict:
    tracer = Tracer(args["run"])
    with tracer.span("cli.import"):
        from simplexmoments import cli
    with tracer.patched(cli_targets()):
        with tracer.span("cli.main"):
            code = cli.main(args["argv"])
    return {"exit_code": code, "spans": tracer.spans}


def mode_mc(args) -> dict:
    mc = gates.load_expected(args["fixtures"])["mc"]
    return loop_ops(args, lambda tr: mc_op(tr, args["seed"]), lambda out: mc_gates(mc, out))


def _timed(tracer, name, fn, repeats):
    """Call fn ``repeats`` times under spans; return (result, median seconds)."""
    times = []
    for _ in range(repeats):
        with tracer.span(name) as span:
            result = fn()
        times.append(span["end"] - span["start"])
    return result, statistics.median(times)


def mode_layers(args) -> dict:
    """One traced pass over every layer's public calls, gated like the ops."""
    from simplexmoments import (
        FIXED_B,
        FIXED_BPRIME,
        FREE_B,
        FREE_BPRIME,
        LOWER_DOUBLE_NODES,
        LOWER_SINGLE_NODES,
        UPPER_DOUBLE_NODES,
        UPPER_SINGLE_NODES,
        MomentTable,
        bound_from_moments,
        cli,
        even_moment,
        hermite_interpolate,
        verify_bound_polynomial,
    )

    fixtures = args["fixtures"]
    expected = gates.load_expected(fixtures)
    tracer = Tracer(args["run"])
    failures = []
    metrics = {}

    # tetra: order by order in this fresh process (cold integral caches)
    for case, k_max, key in (("free", 7, "free"), ("fixed-centroid", 15, "fixed")):
        frozen = gates.read_table(os.path.join(fixtures, "tables", gates.TABLE_FILES[case]))
        layer_total = 0.0
        for k in range(1, k_max + 1):
            with tracer.span("tetra.even_moment.%s.k%d" % (key, k)) as span:
                value = even_moment(case, k)
            seconds = span["end"] - span["start"]
            layer_total += seconds
            if value != frozen[k]:
                failures.append("tetra: %s k=%d differs from the fixture" % (case, k))
        metrics["tetra.%s_s" % key] = layer_total
        metrics["tetra.%s.k%d_s" % (key, k_max)] = seconds

    # tables: parse and validate the fixture tables
    raw = {}
    for case, name in gates.TABLE_FILES.items():
        with open(os.path.join(fixtures, "tables", name), encoding="utf-8") as fh:
            raw[case] = json.load(fh)

    def read_tables():
        tables = {case: MomentTable.from_json(data) for case, data in raw.items()}
        for table in tables.values():
            table.check()
        return tables

    tables, metrics["tables.read_s"] = _timed(tracer, "tables.read", read_tables, SHORT_REPEATS)

    # certificates: interpolate, Sturm proof and pricing of both canonical bounds
    sides = (
        ("lower", LOWER_SINGLE_NODES, LOWER_DOUBLE_NODES, "free", FREE_B, FREE_BPRIME),
        ("upper", UPPER_SINGLE_NODES, UPPER_DOUBLE_NODES, "fixed-centroid", FIXED_B, FIXED_BPRIME),
    )
    interpolate = price = 0.0
    bits = 0
    for side, singles, doubles, case, b, bprime in sides:
        poly, seconds = _timed(
            tracer, "certificates.hermite_interpolate.%s" % side,
            lambda: hermite_interpolate(singles, doubles), SHORT_REPEATS,
        )
        interpolate += seconds
        proof, metrics["certificates.sturm.%s_s" % side] = _timed(
            tracer, "certificates.verify_bound_polynomial.%s" % side,
            lambda: verify_bound_polynomial(poly, side, b, bprime), 3,
        )
        bound, seconds = _timed(
            tracer, "certificates.bound_from_moments.%s" % side,
            lambda: bound_from_moments(poly, tables[case]), SHORT_REPEATS,
        )
        price += seconds
        bits = max([bits] + [abs(c.numerator).bit_length() for c in poly.coeffs])
        if not proof:
            failures.append("certificates: the %s bound is not proved" % side)
        if bound != Fraction(expected["verdict"]["%s_bound" % side]):
            failures.append("certificates: the %s bound differs from the fixture" % side)
    metrics["certificates.interpolate_s"] = interpolate
    metrics["certificates.price_s"] = price
    metrics["certificates.coeff_bits"] = bits

    # cli: one in-process verify-counterexample against a copy of the fixtures
    tables_dir = os.path.join(args["workdir"], "layers-tables")
    shutil.copytree(os.path.join(fixtures, "tables"), tables_dir)
    report = os.path.join(args["workdir"], "layers-report.json")
    with tracer.patched(cli_targets()):
        with tracer.span("cli.main") as main_span:
            code = cli.main(["verify-counterexample", "--tables", tables_dir, "--out", report])
    if code != 0:
        failures.append("cli: exit code %d" % code)
    failures += gates.check_verdict_report(report, expected)
    metrics["cli.main_s"] = main_span["end"] - main_span["start"]
    metrics["cli.overhead_s"] = self_times(tracer.spans)[main_span["id"]]
    metrics["cli.report_bytes"] = os.path.getsize(report)

    # lp: both node-search programs at the benchmark grid
    lp = expected["lp"]
    found = lp_op(tracer, tables, lp)
    failures += lp_gates(tables, lp, found)
    for program in lp["programs"]:
        name = program["name"]
        metrics["lp.%s_s" % name] = total(tracer.spans, "lp.node_search.%s" % name)

    # mc and lifting
    out = mc_op(tracer, args["seed"])
    failures += mc_gates(expected["mc"], out)
    threads = nproc()
    by_threads = {
        n: sum(total(tracer.spans, "mc.estimate_moment.%s.t%d" % (label, n)) for label in ("free", "pinned"))
        for n in (threads, 1)
    }
    metrics["mc.free_s"] = total(tracer.spans, "mc.estimate_moment.free.t%d" % threads)
    metrics["mc.pinned_s"] = total(tracer.spans, "mc.estimate_moment.pinned.t%d" % threads)
    metrics["mc.t1_samples_per_s"] = 2 * MC_SAMPLES / by_threads[1]
    metrics["mc.nproc_samples_per_s"] = 2 * MC_SAMPLES / by_threads[threads]
    metrics["mc.thread_speedup"] = by_threads[1] / by_threads[threads]
    metrics["lifting.interior_s"] = total(tracer.spans, "lifting.interior_convergence_sweep")
    metrics["lifting.boundary_s"] = total(tracer.spans, "lifting.boundary_convergence_sweep")
    return {"metrics": metrics, "failures": failures, "spans": tracer.spans}


MODES = {
    "setup": mode_setup,
    "cli": mode_cli,
    "mc": mode_mc,
    "layers": mode_layers,
}


def main(argv) -> int:
    mode, args = argv[0], json.loads(argv[1])
    try:
        result = MODES[mode](args)
    except Exception:
        traceback.print_exc()
        return 1
    if args.get("out"):
        with open(args["out"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
