"""Command line interface with reproducible JSON reports.

Every subcommand emits one report object::

    {"schema": ..., "command": ..., "result": ..., "manifest": ...}

The manifest records the argument vector, the command's seed (every Monte
Carlo stream derives from it) and the spot-check seeds ``reproduce``
derives, package and interpreter versions, digests of table files read or
written, the thread count, and the wall time, so a report is enough to
rerun the job: exact subcommands then reproduce byte-identical results,
and Monte Carlo ones identical numbers for the same seed at any thread count.

Number policy inside ``result``: quantities known exactly are "p/q"
strings, never floats.  Handlers return exact values (``Fraction``,
``Certificate``) and one conversion, ``_jsonable``, renders them when the
report is assembled.  A float appears only inside an object that also
explains its inexactness, either a sibling "std_error" entry (statistical
estimate) or a "method": "float64" marker (closed-form evaluation in
double precision).  Wall time lives in the manifest, which is measurement
metadata rather than a result.

This module holds what ``verify-counterexample`` runs: the parser, which
declares every subcommand and option, the run context, through which
every handler obtains its moment tables and records them in the manifest,
report assembly and the verdict's handler.  The other subcommands'
handlers live in ``_commands``, which imports nothing from this module and
which ``main`` imports when it dispatches one of them, so the verdict
loads only errors, exact, tetra and certificates besides this module.

Exit codes: 0 success, 2 usage or domain errors, 3 capacity refusals,
4 verification failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import __version__
from .certificates import (
    _CANONICAL,
    Certificate,
    _degree,
    certificate_to_json,
    verify_counterexample,
)
from .errors import CapacityError, DomainError, UsageError, VerificationError, _count
from .exact import format_rational
from .tetra import (
    MomentTable, _digest, _lstat, _normalize_case, _probe_file, _read_table, moment_table,
)

__all__ = ["main", "build_parser"]

SCHEMA = "simplexmoments-report/1"
TABLES_ENV = "SIMPLEXMOMENTS_TABLES"

_TABLE_FILES = {"free": "free_moments.json", "fixed-centroid": "fixed_moments.json"}


# ---------------------------------------------------------------------------
# the run context and report assembly


class _RunContext:
    """Mutable scratch space the handlers fill while a command runs, and the
    one way a handler obtains a moment table and records it."""

    def __init__(self, argv: Sequence[str], args: argparse.Namespace):
        self.argv = list(argv)
        self.threads = getattr(args, "threads", 1)
        self.tables_dir: Optional[str] = getattr(args, "tables", None)
        # the command's own seed first; reproduce appends the ones it derives
        self.seeds: List[int] = [args.seed] if hasattr(args, "seed") else []
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

    def table(self, case: str, k_max: int, table_file: Optional[str] = None,
              compute: bool = True) -> MomentTable:
        """A validated moment table with k_max at least the requested order.

        An explicit file must already be large enough; a tables directory acts
        as a checkpoint, so existing entries are reused and new ones appended.
        Without either, the table is computed from scratch in memory.  A table
        that is too short, when it may not be computed, is a CapacityError.
        Every file is read once, by ``_read_table``, which also digests the
        bytes it parsed for the manifest.
        """
        tables_dir = self.tables_dir
        key = _normalize_case(case)
        path = table_file or (os.path.join(tables_dir, _TABLE_FILES[key]) if tables_dir else None)
        stored = None
        # a tables path that cannot hold the file is refused before any table is computed
        if table_file or (path and _probe_file(path, "tables path %r" % tables_dir)):
            stored, digest = _read_table(path, key)
            self.input_digests.setdefault(path, digest)
            if stored.k_max >= k_max:
                return stored
        if table_file or not compute:
            have = "absent" if stored is None else "k_max=%d" % stored.k_max
            raise CapacityError("%s needs k_max>=%d (%s)" % (path, k_max, have))
        if tables_dir:
            self.output_files.append(path)
        return moment_table(key, k_max, checkpoint=path, stored=stored)

    def canonical_tables(self, compute: bool = True) -> List[MomentTable]:
        """The free and the pinned table, each obtained once, up to the degree
        of its canonical certificate.  Every short table is named in one
        refusal."""
        tables, short = [], []
        for case, singles, doubles in _CANONICAL.values():
            try:
                tables.append(self.table(case, _degree(singles, doubles), compute=compute))
            except CapacityError as exc:
                short.append(str(exc))
        if short:
            raise CapacityError(
                "insufficient moment tables: %s; rerun with --compute-missing or "
                "build them with tetra-moments" % "; ".join(short)
            )
        return tables


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
# argument and path checks


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
# the verdict's handler; the other handlers live in _commands


def _cmd_verify_counterexample(args, ctx: _RunContext) -> dict:
    if not args.tables:
        raise UsageError(
            "a tables directory is required (--tables or the %s environment "
            "variable)" % TABLES_ENV
        )
    free, fixed = ctx.canonical_tables(compute=args.compute_missing)
    report = verify_counterexample(free, fixed)
    if not report["confirmed"]:
        raise VerificationError("counterexample checks did not all pass")
    return report


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
    # options that several subcommands take, each declared once
    shared = {
        "--tables": dict(default=os.environ.get(TABLES_ENV), help="moment table directory"),
        "--threads": dict(type=_positive_int, default=1),
        "--body": dict(required=True, help="T2, T3, cube:D, ball:D, halfball:D or simplex:D"),
        "--n": dict(required=True, type=int, help="number of vertices"),
        "--k": dict(required=True, type=int, help="moment order"),
        "--samples": dict(required=True, type=int),
        "--out": dict(help="write the report here instead of stdout"),
    }
    sampling = ("--body", "--n", "--k", "--samples", "--threads")

    def finish(p, *takes):
        for flag in takes + ("--out",):
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser(
        "chords", help="closed-form distance moments on a triangle"
    )
    p.add_argument("--triangle", required=True, help="'T2' or side lengths 'a,b,c'")
    p.add_argument(
        "--fixed",
        help="pin one point: 'midpoint-hypotenuse', 'vertex:A|B|C' or 'edge:C1'",
    )
    finish(p, "--k")

    p = sub.add_parser(
        "tetra-moments",
        help="exact even moments E V^(2k) of random triangle area in T3",
    )
    p.add_argument("--case", required=True, help="'free' or 'fixed'")
    p.add_argument("--kmax", required=True, type=_positive_int, help="largest k (power 2k)")
    finish(p, "--tables")

    p = sub.add_parser(
        "nodes", help="exact LP search for certificate interpolation nodes"
    )
    p.add_argument("--case", required=True, help="'free' or 'fixed'")
    p.add_argument("--degree", required=True, type=_positive_int, help="polynomial degree")
    p.add_argument("--grid", required=True, type=_positive_int, help="number of grid cells")
    p.add_argument(
        "--rationalize-den",
        type=_positive_int,
        default=64,
        help="denominator bound for suggested nodes (default 64)",
    )
    finish(p, "--tables")

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
    finish(p, "--tables")

    p = sub.add_parser(
        "verify-counterexample",
        help="full exact verdict: pinning at the centroid shrinks the mean",
    )
    p.add_argument(
        "--compute-missing",
        action="store_true",
        help="build absent or short tables instead of refusing",
    )
    finish(p, "--tables")

    p = sub.add_parser("mc", help="Monte Carlo simplex volume moment")
    p.add_argument("--fixed", help="pin one vertex at these coordinates 'x,y,...'")
    p.add_argument("--seed", required=True, type=int)
    finish(p, *sampling)

    p = sub.add_parser(
        "lift-sweep", help="prism lifting convergence experiment"
    )
    p.add_argument("--mode", required=True, choices=("interior", "boundary"))
    p.add_argument("--eps", required=True, help="heights, e.g. '1/2,1/8,1/32'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", help="exact limit value 'p/q' if known")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    finish(p, *sampling)

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
    finish(p, "--tables", "--threads")

    return parser


def _handler(command: str):
    """The handler ``_cmd_<command>``, dashes as underscores.  The verdict's is
    here; the others are in ``_commands``, imported on first dispatch, so
    that building the parser loads no handler module."""
    name = "_cmd_" + command.replace("-", "_")
    if name in globals():
        return globals()[name]
    from . import _commands

    return getattr(_commands, name)


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        from ._commands import _sweep_csv

        text = _sweep_csv(report)
    else:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                "cannot write the report to %s: %s" % (args.out, exc.strerror)
            ) from None
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
    ctx = _RunContext([parser.prog] + argv, args)
    start = time.perf_counter()
    try:
        if args.out:
            # a name too long for the file system is refused here, not after the work
            _lstat(args.out, "--out %s" % args.out)
            if os.path.isdir(args.out):
                raise UsageError("--out %s is a directory" % args.out)
            if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
                raise UsageError("--out %s: its directory does not exist" % args.out)
        if hasattr(args, "samples"):
            # one sample has an infinite standard error, which strict JSON cannot carry
            _count(args.samples, "--samples", 2)
        result = _handler(args.command)(args, ctx)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "result": _jsonable(result),
            "manifest": ctx.manifest(time.perf_counter() - start),
        }
        _emit(report, args)
    except (UsageError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapacityError as exc:
        print("capacity: %s" % exc, file=sys.stderr)
        return 3
    except VerificationError as exc:
        print("verification failed: %s" % exc, file=sys.stderr)
        return 4
    return ctx.exit_code


if __name__ == "__main__":
    sys.exit(main())
