"""Error taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: usage/domain problems exit 2, capacity
refusals exit 3, verification failures exit 4.
"""

from . import _LAZY_NAMES

__all__ = _LAZY_NAMES["errors"]


class UsageError(ValueError):
    """Malformed request: bad arguments, malformed files, unknown names."""


class DomainError(ValueError):
    """Mathematically invalid input (degenerate triangle, point outside body, ...)."""


class CapacityError(RuntimeError):
    """Request exceeds configured resource guards; message names the limit."""


class VerificationError(RuntimeError):
    """A certificate or consistency check that was expected to hold failed."""


def _count(value, name: str, least: int = 1) -> int:
    """``value`` when it is an int, not a bool, and at least ``least``; else a UsageError."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= least:
        return value
    raise UsageError("%s must be an integer >= %d, got %r" % (name, least, value))
