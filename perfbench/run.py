"""Benchmark of the simplexmoments package: two exact-gated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the package from ``src`` with
``PYTHONPATH=src``, always in fresh interpreters.  Workloads:

* ``verdict-warm``  ``verify-counterexample`` against a copy of the frozen
  tables (the re-verify path; tables, certificates and the CLI dominate);
* ``mc-area``       mean triangle area in T3, free and pinned, at nproc and
  1 thread, plus the T2 lifting sweeps (``mc`` and ``lifting`` only).

Operations repeat for about ``--seconds`` (half of it in a traced run,
whose layers pass takes the rest).  Every operation is
checked against ``perfbench/fixtures`` and counted as failed if it raises,
exits non-zero or misses a gate.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics (setup_s, wall_s, peak_rss_mb); with
``--trace 1`` it carries the per-layer metrics of a traced run (see
perfbench/README.md).  Full results and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import gates
from spans import Tracer, another_op, layer_self_times

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# every run ends within this many seconds, whatever --seconds says
RUN_LIMIT = 170.0
# fresh-interpreter set-ups before and again after the operations;
# setup_s is the median of all of them, spread over the whole run
SETUP_REPEATS = 5

WORKLOADS = {
    "verdict-warm": {"kind": "verdict", "dominant": ("cli", "tables", "certificates")},
    "mc-area": {"kind": "mc", "dominant": ("mc", "lifting")},
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "tetra.free_s": "s",
    "tetra.fixed_s": "s",
    "tetra.free.k7_s": "s",
    "tetra.fixed.k15_s": "s",
    "tables.read_s": "s",
    "certificates.interpolate_s": "s",
    "certificates.sturm.lower_s": "s",
    "certificates.sturm.upper_s": "s",
    "certificates.price_s": "s",
    "certificates.coeff_bits": "bits",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "cli.report_bytes": "bytes",
    "lp.lower6_s": "s",
    "lp.upper14_s": "s",
    "mc.free_s": "s",
    "mc.pinned_s": "s",
    "mc.t1_samples_per_s": "1/s",
    "mc.nproc_samples_per_s": "1/s",
    "mc.thread_speedup": "x",
    "lifting.interior_s": "s",
    "lifting.boundary_s": "s",
    "proc.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.dominant_share": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Child:
    def __init__(self, code: int, seconds: float, usage):
        self.code = code
        self.seconds = seconds
        self.rss_kb = usage.ru_maxrss
        self.cpu_s = usage.ru_utime + usage.ru_stime


class Run:
    """One benchmark run: its settings, scratch directory and spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int,
                 root: str, fixtures: str = gates.FIXTURES):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.fixtures = fixtures
        self.name = "%s-s%d-t%d" % (workload, seed, trace)
        self.start = time.perf_counter()
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "simplexmoments", "__init__.py")):
            raise BenchError("no package at %s; run from the repository root" % src)
        self.out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=self.name + "-", dir=self.out_dir)
        self.stderr_path = os.path.join(self.dir, "stderr.txt")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.expected = gates.load_expected(fixtures)
        self.tracer = Tracer(self.name)

    def window(self) -> float:
        """Seconds of operations; the layers pass fills the rest of a traced run."""
        return self.seconds / 2 if self.trace else self.seconds

    def remaining(self) -> float:
        return RUN_LIMIT - (time.perf_counter() - self.start)

    def run_child(self, cmd) -> Child:
        """Run cmd to completion (killed when the run's time is up)."""
        with open(self.stderr_path, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, seconds, usage)

    def stderr_tail(self, lines: int = 20) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])

    def worker(self, mode: str, **args) -> list:
        args.setdefault("fixtures", self.fixtures)
        return [sys.executable, WORKER, mode, json.dumps(args)]

    @contextlib.contextmanager
    def span(self, name: str, run: str):
        """A span of operation ``run`` in a traced run; nothing otherwise."""
        if not self.trace:
            yield {}
            return
        with self.tracer.span(name) as record:
            record["run"] = run
            yield record

    def adopt(self, path: str, parent) -> dict:
        """Load a worker's JSON result and adopt its spans under ``parent``."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if self.trace and "id" in parent:
            self.tracer.adopt(data.get("spans", []), parent["id"])
        return data


# ---------------------------------------------------------------------------
# set-up and operations


def measure_setup(run: Run) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        child = run.run_child(run.worker("setup", workload=run.workload))
        if child.code != 0:
            raise BenchError("set-up failed (exit code %d):\n%s" % (child.code, run.stderr_tail()))
        times.append(child.seconds)
    return times


def verdict_op(run: Run, index: int, traced: bool) -> dict:
    op_id = "%s-op%d" % (run.name, index)
    tables = os.path.join(run.dir, "tables")
    if not os.path.isdir(tables):
        shutil.copytree(os.path.join(run.fixtures, "tables"), tables)
    report = os.path.join(run.dir, "report-%d.json" % index)
    argv = ["verify-counterexample", "--tables", tables, "--out", report]
    spans_out = os.path.join(run.dir, "spans-%d.json" % index)
    if traced:
        cmd = run.worker("cli", run=op_id, argv=argv, out=spans_out)
    else:
        cmd = [sys.executable, "-c",
               "import sys; from simplexmoments.cli import main; sys.exit(main(%r))" % (argv,)]
    with run.span("bench.op", op_id) as span:
        child = run.run_child(cmd)
    failures = [] if child.code == 0 else ["exit code %d" % child.code]
    failures += gates.check_verdict_report(report, run.expected)
    if traced and os.path.exists(spans_out):
        run.adopt(spans_out, span)
    return {"index": index, "traced": traced, "seconds": child.seconds,
            "failures": failures, "rss_kb": child.rss_kb, "cpu_s": child.cpu_s}


def verdict_ops(run: Run, min_ops: int) -> list:
    ops = []
    t0 = time.perf_counter()
    while another_op([op["seconds"] for op in ops], time.perf_counter() - t0, run.window(), min_ops):
        if run.remaining() <= 0:
            break
        index = len(ops)
        ops.append(verdict_op(run, index, bool(run.trace) and index % 2 == 1))
    return ops


def worker_ops(run: Run, min_ops: int) -> list:
    """mc-area: one fresh worker repeats the operation."""
    out = os.path.join(run.dir, "worker.json")
    cmd = run.worker(run.spec["kind"], run=run.name, seed=run.seed, seconds=run.window(),
                     trace=run.trace, min_ops=min_ops, out=out)
    with run.span("bench.worker", run.name) as span:
        child = run.run_child(cmd)
    if child.code != 0 or not os.path.exists(out):
        return [{"index": 0, "traced": False, "seconds": child.seconds,
                 "failures": ["worker exit code %d" % child.code],
                 "rss_kb": child.rss_kb, "cpu_s": child.cpu_s}]
    ops = run.adopt(out, span)["ops"]
    for op in ops:
        op["rss_kb"] = child.rss_kb
    return ops


def layers_pass(run: Run) -> dict:
    out = os.path.join(run.dir, "layers.json")
    layers_run = run.name + "-layers"
    cmd = run.worker("layers", run=layers_run, seed=run.seed, workdir=run.dir, out=out)
    with run.span("bench.layers", layers_run) as span:
        child = run.run_child(cmd)
    if child.code != 0 or not os.path.exists(out):
        raise BenchError("the layers pass failed (exit code %d):\n%s" % (child.code, run.stderr_tail()))
    return run.adopt(out, span)


# ---------------------------------------------------------------------------
# metrics


def traced_breakdown(run: Run, ops: list) -> dict:
    """Layer self times over the traced operations, and the dominant share."""
    traced_runs = {"%s-op%d" % (run.name, op["index"]) for op in ops if op["traced"]}
    spans = [s for s in run.tracer.spans if s["run"] in traced_runs]
    layers = layer_self_times(spans)
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "bench.op")
    dominant = sum(layers.get(layer, 0.0) for layer in run.spec["dominant"])
    return {"layers": layers, "traced_wall_s": wall,
            "dominant_share": dominant / wall if wall > 0 else 0.0}


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def steal_seconds() -> float | None:
    """CPU time the hypervisor took from this machine so far (Linux only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(root: str) -> dict:
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def bench(run: Run) -> dict:
    env = environment(run.root)
    cpu0, steal0 = cpu_seconds(), steal_seconds()
    setup_times = measure_setup(run)
    min_ops = 2 if run.trace else 1
    if run.spec["kind"] == "verdict":
        ops = verdict_ops(run, min_ops)
    else:
        ops = worker_ops(run, min_ops)
    setup_times += measure_setup(run)
    setup_s = statistics.median(setup_times)
    failed = sum(1 for op in ops if op["failures"])
    attempted = len(ops)
    failures = [(op["index"], f) for op in ops for f in op["failures"]]
    detail = {"environment": env, "workload": run.workload, "seed": run.seed,
              "seconds": run.seconds, "trace": run.trace, "setup_times_s": setup_times, "ops": ops}
    if run.trace:
        layers = layers_pass(run)
        attempted += 1
        if layers["failures"]:
            failed += 1
            failures += [("layers", f) for f in layers["failures"]]
        breakdown = traced_breakdown(run, ops)
        traced = [op["seconds"] for op in ops if op["traced"]]
        plain = [op["seconds"] for op in ops if not op["traced"]]
        if not traced or not plain:
            raise BenchError("the workload did not complete a traced and an untraced operation")
        values = dict(layers["metrics"])
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        values["trace.dominant_share"] = breakdown["dominant_share"]
        values["proc.cpu_s"] = cpu_seconds() - cpu0
        metrics = with_units(values, PER_LAYER_UNITS)
        detail["layer_self_s"] = breakdown["layers"]
        print(json.dumps({"layer_self_s": breakdown["layers"],
                          "traced_wall_s": breakdown["traced_wall_s"]}))
        with open(os.path.join(run.out_dir, run.name + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(run.tracer.spans, fh)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(op["seconds"] for op in ops),
            "peak_rss_mb": max(op["rss_kb"] for op in ops) / 1024.0,
        }
        metrics = with_units(values, END_TO_END_UNITS)
    env["loadavg_end"] = list(os.getloadavg())
    steal1 = steal_seconds()
    env["cpu_steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    env["proc_cpu_s"] = cpu_seconds() - cpu0
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail.update(result, failure_messages=failures)
    with open(os.path.join(run.out_dir, run.name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for index, message in failures:
        print("failed op %s: %s" % (index, message), file=sys.stderr)
    print(json.dumps({"environment": env}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        run = Run(args.workload, args.seed, args.seconds, args.trace, os.getcwd())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    try:
        result = bench(run)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
