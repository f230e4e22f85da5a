"""Exact even moments of the area of a random triangle in the tetrahedron.

Two sampling modes over the standard tetrahedron (vertices 0, e1, e2, e3):
three independent uniform vertices (the "free" case) and two uniform
vertices joined to the centroid (1/3, 1/3, 1/3) (the "fixed-centroid"
case).

Four times the squared area of a triangle is the Gram determinant of two
of its edge vectors, so E V^(2k) is an exact rational for every k; the
expansion that computes it lives in the private module ``_expansion``,
which loads only when an order is computed rather than read.

Moment tables are checkpointed to JSON, so a table is computed once and
then shared and extended.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from . import _LAZY_NAMES
from .errors import CapacityError, UsageError, VerificationError, _count
from .exact import format_rational, parse_rational

__all__ = _LAZY_NAMES["tetra"]

CASE_FREE = "free"
CASE_FIXED = "fixed-centroid"

# Orders beyond these make the expansion (and, for the free case, the
# coupled triple integrals) grow combinatorially; they are deliberate
# resource guards, not mathematical limits.
FREE_KMAX_LIMIT = 9
FIXED_KMAX_LIMIT = 16


def _normalize_case(case: str) -> str:
    if case == CASE_FREE:
        return CASE_FREE
    if case in (CASE_FIXED, "fixed"):
        return CASE_FIXED
    raise UsageError(
        "case must be %r or %r, got %r" % (CASE_FREE, CASE_FIXED, case)
    )


def _even_moment(case: str, k: int) -> Fraction:
    """Exact E V^(2k) by the expansion engine, which loads here, when the
    first order is computed: reading and checking stored tables never
    compiles it."""
    from . import _expansion

    return _expansion.even_moment(case == CASE_FIXED, k)


def _check_capacity(case: str, k: int) -> None:
    cap = FREE_KMAX_LIMIT if case == CASE_FREE else FIXED_KMAX_LIMIT
    if k > cap:
        # nothing here grows with k, so a refusal of any k ends at once
        raise CapacityError(
            "even moment of order 2k=%d for case %r exceeds the capacity limit k<=%d "
            "(free k<=%d, fixed-centroid k<=%d)"
            % (2 * k, case, cap, FREE_KMAX_LIMIT, FIXED_KMAX_LIMIT)
        )


def even_moment(case: str, k: int) -> Fraction:
    """Exact E V^(2k) for the requested case.

    Orders beyond the per-case capacity guard (FREE_KMAX_LIMIT or
    FIXED_KMAX_LIMIT) raise CapacityError, naming the limits, instead of
    silently running for hours.
    """
    _count(k, "moment half-order k", 0)
    case = _normalize_case(case)
    _check_capacity(case, k)
    return _even_moment(case, k)


# ---------------------------------------------------------------------------
# moment tables with checkpointing


class MomentTable(NamedTuple):
    """Exact even-moment table: ``values[k]`` is mu_(2k) for k = 0 .. k_max."""

    case: str
    values: Tuple[Fraction, ...]

    @property
    def k_max(self) -> int:
        return len(self.values) - 1

    def upto(self, k: int) -> Tuple[Fraction, ...]:
        """mu_0 .. mu_(2k); a CapacityError when the table stops short of k."""
        _count(k, "moment half-order k", 0)
        if k > self.k_max:
            raise CapacityError("the %s moment table reaches k=%d but k=%d is needed (moments "
                                "through order %d)" % (self.case, self.k_max, k, 2 * k))
        return self.values[: k + 1]

    def value(self, k: int) -> Fraction:
        return self.upto(k)[k]

    def check(self) -> None:
        """mu_0 = 1, then positivity and strict decrease of the stored moments."""
        if not self.values or self.values[0] != 1:
            raise VerificationError("moment table must start with mu_0 = 1")
        for k in range(1, len(self.values)):
            cur = self.values[k]
            if not cur > 0:
                raise VerificationError("mu_%d is not positive" % (2 * k,))
            if not cur < self.values[k - 1]:
                raise VerificationError(
                    "mu_%d does not decrease below mu_%d" % (2 * k, 2 * (k - 1))
                )

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "entries": [
                {"k": k, "value": format_rational(v)} for k, v in enumerate(self.values)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MomentTable":
        """The table in its stored form: a malformed one, or one listing an
        order twice, is a UsageError; a gap in 0 .. k_max a VerificationError."""
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise UsageError("a moment table is an object with a list of entries")
        case = _normalize_case(data.get("case"))
        values = {}
        for item in data["entries"]:
            if not isinstance(item, dict):
                raise UsageError("a table entry is an object, got %r" % (item,))
            k = item.get("k")
            if type(k) is not int or k < 0:
                raise UsageError("order k=%r is not a nonnegative integer" % (k,))
            if k in values:
                raise UsageError("order k=%d is listed twice" % k)
            values[k] = parse_rational(item.get("value"))
        for k in range(len(values)):
            if k not in values:
                raise VerificationError("moment table is missing k=%d" % k)
        return cls(case, tuple(values[k] for k in range(len(values))))


def _digest(data: bytes) -> str:
    """The report form of a file's digest."""
    # CPython's built-in SHA-256 (_sha2 from 3.12, _sha256 before), the
    # module hashlib itself falls back to: importing hashlib loads and
    # initialises OpenSSL's libcrypto, about 3.4 MB of peak RSS and 4 ms
    # (Python 3.11, x86-64), only to hash table files of about a kilobyte
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    return "sha256:" + sha256(data).hexdigest()


def _lstat(path: str, label: str) -> Optional[os.stat_result]:
    """``os.lstat(path)``, or None when nothing is there.  Any other failure,
    such as a name too long or a loop of links, is a UsageError headed by
    ``label``, where ``os.path.exists`` would only have answered False."""
    try:
        return os.lstat(path)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as exc:
        raise UsageError("%s: %s" % (label, exc.strerror)) from None


def _probe_file(path: str, label: str) -> bool:
    """Whether a file is at ``path`` (a link to nothing is not one).  A path
    no file could be written to is a UsageError headed by ``label``: the
    nearest existing ancestor must be a directory, and each name still to be
    made one the file system takes, looked up beside that ancestor."""
    ancestor, missing = os.path.abspath(path), []
    while _lstat(ancestor, label) is None:
        ancestor, name = os.path.split(ancestor)
        missing.append(name)
    if not missing:
        return os.path.exists(path)
    if not os.path.isdir(ancestor):
        raise UsageError("%s: %r is not a directory" % (label, ancestor))
    for name in missing:
        _lstat(os.path.join(ancestor, name), label)
    return False


def _read_table(path: str, case: str) -> Tuple[MomentTable, str]:
    """The checked table stored at ``path``, which must hold ``case``, and
    the digest of the bytes it was parsed from.

    A file that cannot be read or parsed as a moment table is a UsageError,
    and one with a gap in its orders or failing ``check`` a
    VerificationError, each naming the path.
    """
    try:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            table = MomentTable.from_json(json.loads(data.decode("utf-8")))
        except (OSError, ValueError) as exc:
            raise UsageError(
                "cannot read moment table %s: %s: %s" % (path, type(exc).__name__, exc)
            ) from None
        if table.case != case:
            raise UsageError("table %s holds case %r, expected %r" % (path, table.case, case))
        table.check()
    except VerificationError as exc:
        raise VerificationError("moment table %s: %s" % (path, exc)) from None
    return table, _digest(data)


def _write_checkpoint(path: str, table: MomentTable) -> None:
    """Write the table to ``path`` through a temporary file; a write that
    fails is a UsageError naming the path."""
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(table.to_json(), fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError("cannot write moment table %s: %s" % (path, exc)) from None


def moment_table(
    case: str,
    k_max: int,
    checkpoint: Optional[str] = None,
    stored: Optional[MomentTable] = None,
) -> MomentTable:
    """Moments mu_(2k) for k = 0 .. k_max as one validated table.

    With ``checkpoint`` set, the orders already in that JSON file are
    reused, and when the table stops short of k_max the extended table is
    written back once, after the last order is computed.  A caller that has
    already read the file passes its table as ``stored``, so the file is not
    parsed twice.  A stored table holds every order up to its end, so only later ones are added.
    A checkpoint path no file could be written to is a UsageError before the
    first order is computed, not at the write.
    """
    _count(k_max, "k_max", 0)
    case = _normalize_case(case)
    exists = checkpoint and _probe_file(checkpoint, "checkpoint %s" % checkpoint)
    if stored is None and exists:
        stored, _ = _read_table(checkpoint, case)
    if stored is not None and stored.case != case:
        raise UsageError("stored table holds case %r, expected %r" % (stored.case, case))
    values = stored.values if stored else ()
    missing = range(len(values), k_max + 1)
    if missing:
        # refuse before computing anything; checkpointed orders may exceed it
        _check_capacity(case, k_max)
        values += tuple(even_moment(case, k) for k in missing)
    table = MomentTable(case, values)
    table.check()
    if missing and checkpoint:
        _write_checkpoint(checkpoint, table)
    return MomentTable(case, values[: k_max + 1])
