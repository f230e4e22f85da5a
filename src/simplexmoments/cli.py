"""Command line interface with reproducible JSON reports.

Every subcommand emits one report object::

    {"schema": ..., "command": ..., "result": ..., "manifest": ...}

The manifest records the argument vector, all random seeds consumed,
package and interpreter versions, digests of table files read or written,
the thread count, and the wall time, so a report is enough to rerun the
job: exact subcommands then reproduce byte-identical results, and Monte
Carlo subcommands reproduce identical numbers for the same seed at any
thread count.

Number policy inside ``result``: quantities known exactly are "p/q"
strings, never floats.  Handlers return exact values (``Fraction``,
``Certificate``) and one conversion, ``_jsonable``, renders them when the
report is assembled.  A float appears only inside an object that also
explains its inexactness, either a sibling "std_error" entry (statistical
estimate) or a "method": "float64" marker (closed-form evaluation in
double precision).  Wall time lives in the manifest, which is measurement
metadata rather than a result.

Exit codes: 0 success, 2 usage or domain errors, 3 capacity refusals,
4 verification failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .certificates import (
    _CANONICAL,
    _SUPPORT,
    PIVOT,
    Certificate,
    _checked_interval,
    _checked_nodes,
    _degree,
    build_certificate,
    certificate_to_json,
    verify_counterexample,
)
from .errors import CapacityError, DomainError, UsageError, VerificationError, _count
from .exact import format_rational
from .tetra import MomentTable, _digest, _normalize_case, _read_table, moment_table

__all__ = ["main", "build_parser"]

SCHEMA = "simplexmoments-report/1"
TABLES_ENV = "SIMPLEXMOMENTS_TABLES"

_TABLE_FILES = {"free": "free_moments.json", "fixed-centroid": "fixed_moments.json"}

# reproduction targets: even moments E V^(2k), k = 1..5, both vertex modes
_EXPECTED_EVEN_MOMENTS = {
    "free": [
        Fraction(9, 1600),
        Fraction(27, 196000),
        Fraction(3161, 379330560),
        Fraction(93957, 106247680000),
        Fraction(209022679, 1551386124288000),
    ],
    "fixed-centroid": [
        Fraction(7, 2400),
        Fraction(11, 529200),
        Fraction(2839, 10973491200),
        Fraction(29419, 6224027040000),
        Fraction(4134139, 36352301290905600),
    ],
}

# reproduction targets: LP objectives on 200-point grids must fall strictly
# on these sides to show degree 6 cannot reach, and degree 14 overshoots,
# the pivot 23471/500000
_LOWER_LP_CEILING = Fraction(4647, 100000)
_UPPER_LP_FLOOR = Fraction(4699, 100000)


# ---------------------------------------------------------------------------
# report assembly


class _RunContext:
    """Mutable scratch space the handlers fill while a command runs."""

    def __init__(self, argv: Sequence[str], threads: int):
        self.argv = list(argv)
        self.threads = threads
        self.seeds: List[int] = []
        # path -> digest of the bytes first read, before any checkpoint rewrite
        self.input_digests: Dict[str, str] = {}
        self.output_files: List[str] = []
        self.exit_code = 0

    def manifest(self, wall_time: float) -> dict:
        """Everything needed to rerun a report and audit what it touched;
        each file is listed once, in the order it was first touched."""
        return {
            "argv": self.argv,
            "seeds": self.seeds,
            "versions": {
                "simplexmoments": __version__,
                "python": sys.version.split()[0],
                # null unless a sampling command loaded it
                "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
            },
            "input_digests": self.input_digests,
            "output_digests": {p: _digest_file(p) for p in dict.fromkeys(self.output_files)},
            "threads": self.threads,
            "wall_time_seconds": wall_time,
        }


def _jsonable(value):
    """The report form of a handler result: exact rationals become "p/q"
    strings and certificates their frozen JSON form, recursively."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Certificate):
        return certificate_to_json(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise UsageError("not a rational number: %r" % text)


def _parse_float(text: str, option: str) -> float:
    """A rational or decimal number that float64 holds as a finite value."""
    try:
        return float(_parse_fraction(text))
    except OverflowError:
        raise UsageError("%s: %s lies outside the float64 range" % (option, text.strip()))


def _parse_list(text: str, option: str, parse) -> list:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("%s needs a comma separated list of numbers" % option)
    return [parse(p) for p in parts]


def _parse_triangle(text: str) -> TriangleSpec:
    from .chords import TriangleSpec

    if text == "T2":
        # labeled so the hypotenuse is the edge AB (side c)
        return TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(
            "--triangle must be 'T2' or three side lengths 'a,b,c', got %r" % text
        )
    return TriangleSpec.from_sides(*(_parse_float(p, "--triangle") for p in parts))


def _rotate_longest_to_c(spec: TriangleSpec) -> TriangleSpec:
    from .chords import TriangleSpec

    sides = (spec.a, spec.b, spec.c)
    longest = max(range(3), key=lambda i: sides[i])
    rotated = tuple(sides[(longest + 1 + i) % 3] for i in range(3))
    return TriangleSpec.from_sides(*rotated)


def _parse_body(text: str):
    from .geometry import ball, cube, halfball, standard_simplex, tetrahedron_T3, triangle_T2

    name, sep, dim_text = text.partition(":")
    plain = {"T2": triangle_T2, "T3": tetrahedron_T3}
    if name in plain:
        if sep:
            raise UsageError("body %r does not take a dimension" % name)
        return plain[name]()
    sized = {
        "cube": cube,
        "ball": ball,
        "halfball": halfball,
        "simplex": standard_simplex,
    }
    if name in sized:
        if not sep:
            raise UsageError(
                "body %r needs a dimension, e.g. %s:3" % (name, name)
            )
        try:
            dim = int(dim_text)
        except ValueError:
            raise UsageError("body dimension must be an integer, got %r" % dim_text)
        return sized[name](dim)
    raise UsageError(
        "unknown body %r; choose T2, T3, cube:D, ball:D, halfball:D or simplex:D"
        % text
    )


def _parse_nodes(text: str) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Node list syntax: comma separated rationals, '*2' marks a tangency
    (value and derivative) node: '0,2/19*2,4/15*2,8/17*2,47/54'."""
    singles = []
    doubles = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if raw.endswith("*2"):
            doubles.append(_parse_fraction(raw[:-2]))
        else:
            singles.append(_parse_fraction(raw))
    if not singles and not doubles:
        raise UsageError("--nodes lists at least one node")
    return tuple(singles), tuple(doubles)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


# ---------------------------------------------------------------------------
# moment table files


def _table_path(tables_dir: str, case_key: str) -> str:
    return os.path.join(tables_dir, _TABLE_FILES[case_key])


def _obtain_table(
    case: str,
    k_max: int,
    tables_dir: Optional[str],
    ctx: _RunContext,
    table_file: Optional[str] = None,
    compute: bool = True,
) -> MomentTable:
    """A validated moment table with k_max at least the requested order.

    An explicit file must already be large enough; a tables directory acts
    as a checkpoint, so existing entries are reused and new ones appended.
    Without either, the table is computed from scratch in memory.  A table
    that is too short, when it may not be computed, is a CapacityError.
    Every file is read once, by ``_read_table``, which also digests the
    bytes it parsed for the manifest.
    """
    key = _normalize_case(case)
    # refused before any table is computed, not by the first write into it
    if not table_file and tables_dir:
        ancestor = os.path.abspath(tables_dir)
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise UsageError("tables path %r: %r is not a directory" % (tables_dir, ancestor))
    path = table_file or (_table_path(tables_dir, key) if tables_dir else None)
    stored = None
    if table_file or (path and os.path.exists(path)):
        stored, digest = _read_table(path, key)
        ctx.input_digests.setdefault(path, digest)
        if stored.k_max >= k_max:
            return stored
    if table_file or not compute:
        have = "absent" if stored is None else "k_max=%d" % stored.k_max
        raise CapacityError("%s needs k_max>=%d (%s)" % (path, k_max, have))
    if tables_dir:
        ctx.output_files.append(path)
    return moment_table(key, k_max, checkpoint=path, stored=stored)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_chords(args, ctx: _RunContext) -> dict:
    from .chords import chord_moment, edgepoint_moment, vertex_moment

    spec = _parse_triangle(args.triangle)
    k = args.k
    if args.fixed is None:
        formula = "two-point"
        value = chord_moment(spec, k)
    elif args.fixed == "midpoint-hypotenuse":
        formula = "edge-pinned"
        rotated = _rotate_longest_to_c(spec)
        value = edgepoint_moment(rotated, rotated.c / 2.0, k)
    elif args.fixed.startswith("vertex:"):
        formula = "vertex-pinned"
        value = vertex_moment(spec, args.fixed.split(":", 1)[1], k)
    elif args.fixed.startswith("edge:"):
        formula = "edge-pinned"
        c1 = _parse_float(args.fixed.split(":", 1)[1], "--fixed")
        value = edgepoint_moment(spec, c1, k)
    else:
        raise UsageError(
            "--fixed must be 'midpoint-hypotenuse', 'vertex:A|B|C' or "
            "'edge:C1', got %r" % args.fixed
        )
    return {
        "triangle": args.triangle,
        "k": k,
        "fixed": args.fixed,
        "formula": formula,
        "value": value,
        "method": "float64",
    }


def _cmd_tetra_moments(args, ctx: _RunContext) -> dict:
    table = _obtain_table(args.case, args.kmax, args.tables, ctx)
    return {
        "case": table.case,
        "k_max": args.kmax,
        "moments": [
            {"k": k, "power": 2 * k, "value": mu} for k, mu in enumerate(table.upto(args.kmax)) if k
        ],
    }


_CASE_GRIDS = {
    # interval end and bound side for the two node-search programs
    "free": (Fraction(7, 8), "lower"),
    "fixed-centroid": (Fraction(3, 10), "upper"),
}


def _cmd_nodes(args, ctx: _RunContext) -> dict:
    from .lp import node_search, rationalize

    key = _normalize_case(args.case)
    interval_end, sense = _CASE_GRIDS[key]
    table = _obtain_table(key, args.degree, args.tables, ctx)
    found = node_search(table, args.degree, args.grid, interval_end, sense)
    result = {
        "case": key,
        "degree": args.degree,
        "grid": args.grid,
        "interval_end": interval_end,
        "sense": sense,
        "status": found["status"],
    }
    if found["status"] == "optimal":
        result.update(
            {
                "objective": found["objective"],
                "coefficients": found["coefficients"],
                "candidate_nodes": found["candidate_nodes"],
                "suggested_nodes": [
                    rationalize(float(t), args.rationalize_den)
                    for t in found["candidate_nodes"]
                ],
                "active_grid_indices": found["active_grid_indices"],
            }
        )
    return result


def _cmd_certify(args, ctx: _RunContext) -> dict:
    if args.side not in _CANONICAL:
        raise UsageError("--side must be 'lower' or 'upper'")
    case, singles, doubles = _CANONICAL[args.side]
    if args.case:
        case = _normalize_case(args.case)
    if args.nodes:
        singles, doubles = _parse_nodes(args.nodes)
    # B and B' belong to the moment case, whichever side is certified
    interval_b, bprime = _SUPPORT[case]
    if args.interval_b:
        interval_b = _parse_fraction(args.interval_b)
        bprime = None
    if args.bprime:
        bprime = _parse_fraction(args.bprime)
    # refuse malformed nodes or B, B' before any table is read or computed
    _checked_nodes(singles, doubles)
    _checked_interval(interval_b, bprime, case)
    degree = _degree(singles, doubles)
    table = _obtain_table(case, degree, args.tables, ctx, table_file=args.table)
    cert = build_certificate(args.side, singles, doubles, table, interval_b, bprime)
    result = certificate_to_json(cert)
    result["case"] = case
    result["degree"] = degree
    result["pivot"] = PIVOT
    if args.side == "lower":
        result["bound_above_pivot"] = cert.bound > PIVOT
    else:
        result["bound_below_pivot"] = cert.bound < PIVOT
    return result


def _cmd_verify_counterexample(args, ctx: _RunContext) -> dict:
    if not args.tables:
        raise UsageError(
            "a tables directory is required (--tables or the %s environment "
            "variable)" % TABLES_ENV
        )
    tables, short = {}, []
    for key, singles, doubles in _CANONICAL.values():
        try:
            tables[key] = _obtain_table(
                key, _degree(singles, doubles), args.tables, ctx, compute=args.compute_missing
            )
        except CapacityError as exc:
            short.append(str(exc))
    if short:
        raise CapacityError(
            "insufficient moment tables: %s; rerun with --compute-missing or "
            "build them with tetra-moments" % "; ".join(short)
        )
    report = verify_counterexample(tables["free"], tables["fixed-centroid"])
    if not report["confirmed"]:
        raise VerificationError("counterexample checks did not all pass")
    return report


def _cmd_mc(args, ctx: _RunContext) -> dict:
    from .mc import RNG_ALGORITHM, estimate_moment

    body = _parse_body(args.body)
    fixed = None
    if args.fixed:
        fixed = _parse_list(args.fixed, "--fixed", lambda p: _parse_float(p, "--fixed"))
    ctx.seeds.append(args.seed)
    est = estimate_moment(
        body,
        args.n,
        args.k,
        fixed=fixed,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
    )
    return {
        "body": args.body,
        "n": args.n,
        "k": args.k,
        "fixed": args.fixed,
        "mean": est.mean,
        "std_error": est.std_error,
        "samples": est.samples,
        "seed": est.seed,
        "rng": RNG_ALGORITHM,
    }


def _sweep_row_json(row: dict) -> dict:
    est = row["estimate"]
    out = {
        "epsilon": row["epsilon"],
        "mean": est.mean,
        "std_error": est.std_error,
        "samples": est.samples,
    }
    # abs_error, sigma and whatever diagnostics the sweep mode adds
    out.update((key, row[key]) for key in row if key not in ("epsilon", "estimate"))
    return out


def _cmd_lift_sweep(args, ctx: _RunContext) -> dict:
    from .lifting import boundary_convergence_sweep, interior_convergence_sweep
    from .mc import RNG_ALGORITHM

    body = _parse_body(args.body)
    eps_list = _parse_list(args.eps, "--eps", _parse_fraction)
    reference = _parse_float(args.reference, "--reference") if args.reference else None
    ctx.seeds.append(args.seed)
    sweep = interior_convergence_sweep if args.mode == "interior" else boundary_convergence_sweep
    outcome = sweep(
        body,
        args.n,
        args.k,
        eps_list,
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
        reference=reference,
    )
    return {
        "mode": outcome["mode"],
        "body": args.body,
        "n": args.n,
        "k": args.k,
        "rng": RNG_ALGORITHM,
        "reference": dict(outcome["reference"]),
        "rows": [_sweep_row_json(row) for row in outcome["rows"]],
        "verdict": outcome["verdict"],
    }


def _check_close(label: str, value: float, target, tolerance: float) -> dict:
    target_value = float(target)
    entry = {
        "label": label,
        "value": value,
        "target": target,
        "tolerance": tolerance,
        "method": "float64",
    }
    entry["passed"] = abs(value - target_value) <= tolerance
    return entry


def _reproduce_chords() -> dict:
    from .chords import TriangleSpec, chord_moment, edgepoint_moment

    spec = TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))
    mid = math.sqrt(2.0) / 2.0
    entries = [
        _check_close("two-point k=2", chord_moment(spec, 2), Fraction(2, 9), 1e-10),
        _check_close("two-point k=4", chord_moment(spec, 4), Fraction(1, 10), 1e-10),
        _check_close(
            "midpoint k=2", edgepoint_moment(spec, mid, 2), Fraction(1, 6), 1e-10
        ),
        _check_close(
            "midpoint k=4", edgepoint_moment(spec, mid, 4), Fraction(7, 180), 1e-10
        ),
        _check_close("two-point k=1", chord_moment(spec, 1), 0.4142, 1e-4),
        _check_close("two-point k=3", chord_moment(spec, 3), 0.1405, 1e-4),
        _check_close("midpoint k=1", edgepoint_moment(spec, mid, 1), 0.3825, 1e-4),
        _check_close("midpoint k=3", edgepoint_moment(spec, mid, 3), 0.0783, 1e-4),
    ]
    return {
        "name": "chord-closed-forms",
        "passed": all(e["passed"] for e in entries),
        "entries": entries,
    }


def _reproduce_ratio_law() -> dict:
    from .chords import TriangleSpec, chord_moment, edgepoint_moment, ratio_r

    spec = TriangleSpec.from_sides(1.0, 1.0, math.sqrt(2.0))
    mid = math.sqrt(2.0) / 2.0
    deviations = [
        abs(ratio_r(k) - edgepoint_moment(spec, mid, k) / chord_moment(spec, k))
        for k in range(1, 13)
    ]
    ratios = [ratio_r(k) for k in range(1, 51)]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    passed = max(deviations) <= 1e-10 and ratios[0] < 1.0 and decreasing
    return {
        "name": "pinning-ratio-law",
        "passed": passed,
        "max_deviation": max(deviations),
        "first_ratio_below_one": ratios[0] < 1.0,
        "strictly_decreasing_to_k50": decreasing,
        "method": "float64",
    }


def _reproduce_tables(free: MomentTable, fixed: MomentTable) -> dict:
    observed = {
        key: [table.value(k) for k in range(1, len(_EXPECTED_EVEN_MOMENTS[key]) + 1)]
        for key, table in (("free", free), ("fixed-centroid", fixed))
    }
    return {
        "name": "even-moment-tables",
        "passed": observed == _EXPECTED_EVEN_MOMENTS,
        "free": observed["free"],
        "fixed": observed["fixed-centroid"],
        "expected_free": _EXPECTED_EVEN_MOMENTS["free"],
        "expected_fixed": _EXPECTED_EVEN_MOMENTS["fixed-centroid"],
    }


def _reproduce_second_moment(free: MomentTable, fixed: MomentTable) -> dict:
    mu_free = free.value(1)
    mu_fixed = fixed.value(1)
    gap = mu_free - mu_fixed
    return {
        "name": "second-moment-comparison",
        "passed": mu_fixed < mu_free and gap == Fraction(13, 4800),
        "free": mu_free,
        "fixed": mu_fixed,
        "gap": gap,
        "headline": "%s < %s" % (mu_fixed, mu_free),
    }


def _reproduce_mc(args, ctx: _RunContext) -> dict:
    from .geometry import tetrahedron_T3
    from .mc import RNG_ALGORITHM, estimate_moment

    body = tetrahedron_T3()
    centroid = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    entries = []
    for label, fixed, target, seed in (
        ("mean-area", None, 0.0592, args.seed + 1),
        ("mean-area-pinned", centroid, 0.0466, args.seed + 2),
    ):
        ctx.seeds.append(seed)
        est = estimate_moment(
            body,
            3,
            1,
            fixed=fixed,
            samples=args.samples,
            seed=seed,
            threads=args.threads,
        )
        # allow half a unit in the last printed digit on top of 3 sigma
        entries.append(
            {
                "label": label,
                "mean": est.mean,
                "std_error": est.std_error,
                "samples": est.samples,
                "seed": seed,
                "target": target,
                "passed": abs(est.mean - target) <= 3.0 * est.std_error + 5e-5,
            }
        )
    return {
        "name": "mc-mean-area",
        "passed": all(e["passed"] for e in entries),
        "rng": RNG_ALGORITHM,
        "entries": entries,
    }


def _reproduce_node_searches(args, free: MomentTable, fixed: MomentTable) -> dict:
    from .lp import node_search

    # one degree below each canonical certificate
    low, high = (_degree(*_CANONICAL[side][1:]) - 1 for side in ("lower", "upper"))
    lower = node_search(free, low, args.grid, *_CASE_GRIDS["free"])
    upper = node_search(fixed, high, args.grid, *_CASE_GRIDS["fixed-centroid"])
    lower_ok = (
        lower["status"] == "optimal" and lower["objective"] < _LOWER_LP_CEILING
    )
    upper_ok = (
        upper["status"] == "optimal" and upper["objective"] > _UPPER_LP_FLOOR
    )
    return {
        "name": "lp-node-searches",
        "passed": lower_ok and upper_ok,
        "grid": args.grid,
        "degree_%d_lower_objective" % low: lower["objective"],
        "degree_%d_ceiling" % low: _LOWER_LP_CEILING,
        "degree_%d_below_ceiling" % low: lower_ok,
        "degree_%d_upper_objective" % high: upper["objective"],
        "degree_%d_floor" % high: _UPPER_LP_FLOOR,
        "degree_%d_above_floor" % high: upper_ok,
    }


def _reproduce_counterexample(free: MomentTable, fixed: MomentTable) -> dict:
    report = verify_counterexample(free, fixed)
    return {
        "name": "counterexample-verdict",
        "passed": report["confirmed"],
        "lower_bound": report["lower_certificate"].bound,
        "pivot": report["pivot"],
        "upper_bound": report["upper_certificate"].bound,
        "mean_separation": report["mean_separation"],
        "headline": "lower > %g > upper" % float(report["pivot"]),
    }


def _cmd_reproduce(args, ctx: _RunContext) -> dict:
    ctx.seeds.append(args.seed)
    full = args.level == "full"
    # each table once, at the largest order this level needs: the canonical
    # certificate's degree for the full level, the frozen list for the fast one
    free, fixed = (
        _obtain_table(
            case,
            _degree(singles, doubles) if full else len(_EXPECTED_EVEN_MOMENTS[case]),
            args.tables,
            ctx,
        )
        for case, singles, doubles in _CANONICAL.values()
    )
    checks = [
        _reproduce_chords(),
        _reproduce_ratio_law(),
        _reproduce_tables(free, fixed),
        _reproduce_second_moment(free, fixed),
        _reproduce_mc(args, ctx),
    ]
    if full:
        if args.grid >= 200:
            print(
                "note: the full level solves two exact rational LPs on a "
                "%d-point grid; at 200 points they take about 1 s" % args.grid,
                file=sys.stderr,
            )
        checks.append(_reproduce_node_searches(args, free, fixed))
        checks.append(_reproduce_counterexample(free, fixed))
    all_passed = all(c["passed"] for c in checks)
    if not all_passed:
        ctx.exit_code = 4
    return {
        "level": args.level,
        "seed": args.seed,
        "samples": args.samples,
        "checks": checks,
        "headlines": [c["headline"] for c in checks if "headline" in c],
        "all_passed": all_passed,
    }


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexmoments",
        description="Moments of random simplex volumes in convex bodies: "
        "exact tables, certified bounds, exact LP node search, Monte Carlo "
        "and prism-lifting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tables_default = os.environ.get(TABLES_ENV)

    p = sub.add_parser(
        "chords", help="closed-form distance moments on a triangle"
    )
    p.add_argument("--triangle", required=True, help="'T2' or side lengths 'a,b,c'")
    p.add_argument("--k", required=True, type=int, help="moment order")
    p.add_argument(
        "--fixed",
        help="pin one point: 'midpoint-hypotenuse', 'vertex:A|B|C' or 'edge:C1'",
    )
    p.set_defaults(handler=_cmd_chords)

    p = sub.add_parser(
        "tetra-moments",
        help="exact even moments E V^(2k) of random triangle area in T3",
    )
    p.add_argument("--case", required=True, help="'free' or 'fixed'")
    p.add_argument("--kmax", required=True, type=_positive_int, help="largest k (power 2k)")
    p.add_argument("--tables", default=tables_default, help="checkpoint directory")
    p.set_defaults(handler=_cmd_tetra_moments)

    p = sub.add_parser(
        "nodes", help="exact LP search for certificate interpolation nodes"
    )
    p.add_argument("--case", required=True, help="'free' or 'fixed'")
    p.add_argument("--degree", required=True, type=_positive_int, help="polynomial degree")
    p.add_argument("--grid", required=True, type=_positive_int, help="number of grid cells")
    p.add_argument("--tables", default=tables_default, help="checkpoint directory")
    p.add_argument(
        "--rationalize-den",
        type=_positive_int,
        default=64,
        help="denominator bound for suggested nodes (default 64)",
    )
    p.set_defaults(handler=_cmd_nodes)

    p = sub.add_parser(
        "certify", help="build and verify one polynomial bound certificate"
    )
    p.add_argument("--side", required=True, help="'lower' or 'upper'")
    p.add_argument("--case", help="moment table case (defaults to match the side)")
    p.add_argument(
        "--nodes",
        help="override nodes: comma separated rationals, '*2' marks tangency, "
        "e.g. '0,2/19*2,4/15*2,8/17*2,47/54'",
    )
    p.add_argument("--interval-b", help="verify on [0, B] (rational B)")
    p.add_argument("--bprime", help="rational B' >= sqrt(B) to verify through")
    p.add_argument("--table", help="explicit moment table JSON file")
    p.add_argument("--tables", default=tables_default, help="checkpoint directory")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser(
        "verify-counterexample",
        help="full exact verdict: pinning at the centroid shrinks the mean",
    )
    p.add_argument("--tables", default=tables_default, help="moment table directory")
    p.add_argument(
        "--compute-missing",
        action="store_true",
        help="build absent or short tables instead of refusing",
    )
    p.set_defaults(handler=_cmd_verify_counterexample)

    p = sub.add_parser("mc", help="Monte Carlo simplex volume moment")
    p.add_argument("--body", required=True, help="T2, T3, cube:D, ball:D, ...")
    p.add_argument("--n", required=True, type=int, help="number of vertices")
    p.add_argument("--k", required=True, type=int, help="moment order")
    p.add_argument("--fixed", help="pin one vertex at these coordinates 'x,y,...'")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser(
        "lift-sweep", help="prism lifting convergence experiment"
    )
    p.add_argument("--mode", required=True, choices=("interior", "boundary"))
    p.add_argument("--body", required=True, help="base body, e.g. T2")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--eps", required=True, help="heights, e.g. '1/2,1/8,1/32'")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--reference", help="exact limit value 'p/q' if known")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_lift_sweep)

    p = sub.add_parser(
        "reproduce",
        help="recompute the headline results and compare against the "
        "frozen reference values",
    )
    p.add_argument("level", choices=("fast", "full"))
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument(
        "--samples", type=int, default=200_000, help="Monte Carlo spot check size"
    )
    p.add_argument(
        "--grid", type=_positive_int, default=200, help="LP grid size for the full level"
    )
    p.add_argument("--tables", default=tables_default, help="checkpoint directory")
    p.add_argument("--threads", type=_positive_int, default=1)
    p.set_defaults(handler=_cmd_reproduce)

    for name, sp in sub.choices.items():
        sp.add_argument("--out", help="write the report here instead of stdout")

    return parser


def _sweep_csv(report: dict) -> str:
    import csv
    import io

    result = report["result"]
    columns = list(result["rows"][0])
    buf = io.StringIO()
    for key in ("schema", "command"):
        buf.write("# %s: %s\n" % (key, report[key]))
    buf.write(
        "# mode: %(mode)s body: %(body)s n: %(n)d k: %(k)d rng: %(rng)s\n" % result
    )
    ref = result["reference"]
    buf.write(
        "# reference: %s std_error: %s source: %s\n"
        % (ref["value"], ref["std_error"], ref["source"])
    )
    buf.write("# verdict: %s\n" % result["verdict"])
    buf.write("# manifest: %s\n" % json.dumps(report["manifest"], sort_keys=True))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in result["rows"]:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _sweep_csv(report)
    else:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    ctx = _RunContext(argv=[parser.prog] + argv, threads=getattr(args, "threads", 1))
    start = time.perf_counter()
    try:
        if args.out and os.path.isdir(args.out):
            raise UsageError("--out %s is a directory" % args.out)
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise UsageError("--out %s: its directory does not exist" % args.out)
        if hasattr(args, "samples"):
            # one sample has an infinite standard error, which strict JSON cannot carry
            _count(args.samples, "--samples", 2)
        result = args.handler(args, ctx)
    except (UsageError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapacityError as exc:
        print("capacity: %s" % exc, file=sys.stderr)
        return 3
    except VerificationError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 4
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "result": _jsonable(result),
        "manifest": ctx.manifest(time.perf_counter() - start),
    }
    _emit(report, args)
    return ctx.exit_code


if __name__ == "__main__":
    sys.exit(main())
