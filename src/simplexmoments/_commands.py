"""The subcommands other than ``verify-counterexample``.

Their handlers, the parsers of their option values, the ``reproduce``
checks with their frozen targets and the CSV form of a lift sweep.
``cli.main`` imports this module the first time it dispatches one of these
subcommands, so the verdict never loads or compiles it; ``cli._handler``
finds each handler here by the name of its subcommand.  A
handler takes the parsed arguments and the run context, whose ``table``
and ``canonical_tables`` obtain and record its moment tables, so this
module imports nothing from ``cli``.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Tuple

from .certificates import (
    _CANONICAL,
    _SUPPORT,
    PIVOT,
    _checked_interval,
    _checked_nodes,
    _degree,
    build_certificate,
    certificate_to_json,
    verify_counterexample,
)
from .errors import UsageError
from .exact import format_rational
from .tetra import MomentTable, _normalize_case

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
# argument parsing helpers


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def _parse_fraction(text: str) -> Fraction:
    """A rational or decimal number whose "p/q" form a report can print."""
    stripped = text.strip()
    limit = sys.get_int_max_str_digits()
    unprintable = UsageError("%s has more digits than the %d a report can print"
                             % (stripped, limit))
    exponent = _EXPONENT.search(stripped)
    if exponent and limit and stripped[: exponent.start()].strip("+-0._"):
        # Fraction expands 10^|E| before any digit check.  A nonzero mantissa
        # has fewer digits than the text, so past this bound p or q would
        # have more than `limit` of them; int() refuses a longer E itself.
        digits = exponent.group(1)
        if len(digits) > limit or abs(int(digits)) > limit + 2 * len(stripped):
            raise unprintable
    try:
        value = Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        raise UsageError("not a rational number: %r" % text)
    try:
        format_rational(value)
    except ValueError:
        # the interpreter refuses to render ints past its digit limit
        raise unprintable
    return value


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


def _parse_triangle(text: str):
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


def _midpoint_moment(spec, k: int) -> float:
    """The k-th moment about the midpoint of the longest side, relabeled
    as the edge AB (side c) that edgepoint_moment measures along."""
    from .chords import TriangleSpec, edgepoint_moment

    sides = (spec.a, spec.b, spec.c)
    longest = max(range(3), key=lambda i: sides[i])
    rotated = TriangleSpec.from_sides(*(sides[(longest + 1 + i) % 3] for i in range(3)))
    return edgepoint_moment(rotated, rotated.c / 2.0, k)


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
    nodes = _parse_list(text, "--nodes", str.strip)
    return (tuple(_parse_fraction(p) for p in nodes if not p.endswith("*2")),
            tuple(_parse_fraction(p[:-2]) for p in nodes if p.endswith("*2")))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_chords(args, ctx) -> dict:
    from .chords import chord_moment, edgepoint_moment, vertex_moment

    spec = _parse_triangle(args.triangle)
    k = args.k
    if args.fixed is None:
        formula = "two-point"
        value = chord_moment(spec, k)
    elif args.fixed == "midpoint-hypotenuse":
        formula = "edge-pinned"
        value = _midpoint_moment(spec, k)
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


def _cmd_tetra_moments(args, ctx) -> dict:
    table = ctx.table(args.case, args.kmax)
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


def _cmd_nodes(args, ctx) -> dict:
    from .lp import _check_grid, node_search, rationalize

    key = _normalize_case(args.case)
    interval_end, sense = _CASE_GRIDS[key]
    _check_grid(args.grid)
    table = ctx.table(key, args.degree)
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


def _cmd_certify(args, ctx) -> dict:
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
    table = ctx.table(case, degree, table_file=args.table)
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


def _cmd_mc(args, ctx) -> dict:
    from .mc import RNG_ALGORITHM, estimate_moment

    body = _parse_body(args.body)
    fixed = None
    if args.fixed:
        fixed = _parse_list(args.fixed, "--fixed", lambda p: _parse_float(p, "--fixed"))
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
        **vars(est),
        "rng": RNG_ALGORITHM,
    }


def _cmd_lift_sweep(args, ctx) -> dict:
    from .lifting import boundary_convergence_sweep, interior_convergence_sweep
    from .mc import RNG_ALGORITHM

    body = _parse_body(args.body)
    eps_list = _parse_list(args.eps, "--eps", _parse_fraction)
    reference = _parse_float(args.reference, "--reference") if args.reference else None
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
        "reference": outcome["reference"],
        "rows": outcome["rows"],
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
    from .chords import chord_moment

    spec = _parse_triangle("T2")
    entries = [
        _check_close("two-point k=2", chord_moment(spec, 2), Fraction(2, 9), 1e-10),
        _check_close("two-point k=4", chord_moment(spec, 4), Fraction(1, 10), 1e-10),
        _check_close("midpoint k=2", _midpoint_moment(spec, 2), Fraction(1, 6), 1e-10),
        _check_close("midpoint k=4", _midpoint_moment(spec, 4), Fraction(7, 180), 1e-10),
        _check_close("two-point k=1", chord_moment(spec, 1), 0.4142, 1e-4),
        _check_close("two-point k=3", chord_moment(spec, 3), 0.1405, 1e-4),
        _check_close("midpoint k=1", _midpoint_moment(spec, 1), 0.3825, 1e-4),
        _check_close("midpoint k=3", _midpoint_moment(spec, 3), 0.0783, 1e-4),
    ]
    return {
        "name": "chord-closed-forms",
        "passed": all(e["passed"] for e in entries),
        "entries": entries,
    }


def _reproduce_ratio_law() -> dict:
    from .chords import chord_moment, ratio_r

    spec = _parse_triangle("T2")
    deviations = [
        abs(ratio_r(k) - _midpoint_moment(spec, k) / chord_moment(spec, k))
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


def _reproduce_mc(args, ctx, t3) -> dict:
    from .mc import RNG_ALGORITHM, estimate_moment

    centroid = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    entries = []
    for label, fixed, target, seed in (
        ("mean-area", None, 0.0592, args.seed + 1),
        ("mean-area-pinned", centroid, 0.0466, args.seed + 2),
    ):
        ctx.seeds.append(seed)
        est = estimate_moment(
            t3,
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
                **vars(est),
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


def _cmd_reproduce(args, ctx) -> dict:
    from .geometry import tetrahedron_T3
    from .lp import _check_grid
    from .mc import _check_run

    t3 = tetrahedron_T3()
    # the spot check's run size and the LP grid are refused before any table work
    _check_run(t3, 3, 1, args.samples)
    _check_grid(args.grid)
    full = args.level == "full"
    free, fixed = ctx.canonical_tables() if full else (
        ctx.table(case, len(mus)) for case, mus in _EXPECTED_EVEN_MOMENTS.items())
    checks = [
        _reproduce_chords(),
        _reproduce_ratio_law(),
        _reproduce_tables(free, fixed),
        _reproduce_second_moment(free, fixed),
        _reproduce_mc(args, ctx, t3),
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
