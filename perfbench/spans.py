"""In-memory spans for the traced benchmark runs.

A span is a dict with ``id``, ``name``, ``parent`` (the id of the span
open when it started, or None), ``run`` (the identifier shared by every
span of one operation), ``start`` and ``end`` (``time.perf_counter``
seconds, which on Linux is CLOCK_MONOTONIC and so comparable between
processes).  Span names are ``<layer>.<call>``; a layer's self time is the
duration of its spans minus the time their child spans cover.
``another_op`` is the rule that ends every operation loop.

Nothing here imports the package under test.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


class Tracer:
    """Records spans in memory until the caller writes them out."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def patched(self, targets):
        """Record a span around every call of ``owner.attr`` while open.

        ``targets`` lists ``(owner, attr, span_name)``.  The original
        attributes are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                inner = getattr(owner, attr)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrapper(inner, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrapper(self, inner, name: str):
        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        return traced

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Append spans recorded elsewhere (another process) under ``parent``."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append(
                dict(
                    s,
                    id=s["id"] + offset,
                    parent=parent if s["parent"] is None else s["parent"] + offset,
                )
            )


class NoTracer:
    """Stands in for a Tracer in untraced operations: records nothing."""

    spans: list[dict] = []

    def span(self, name: str):
        return contextlib.nullcontext()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span id: its duration minus the durations of its children
    (parents outside ``spans`` are ignored)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer (the span name's first component)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = layer_of(s["name"])
        totals[layer] = totals.get(layer, 0.0) + own[s["id"]]
    return totals


def total(spans: list[dict], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def another_op(times: list[float], elapsed: float, window: float, min_ops: int) -> bool:
    """Whether an operation loop starts one more operation.

    It does until ``min_ops`` have run; after that only while the next one,
    at the median length so far, is expected to end less than half an
    operation past ``window``.  So a run measures about ``window`` seconds
    whether its operations take one second or fifteen.
    """
    if len(times) < min_ops:
        return True
    typical = statistics.median(times) if times else 0.0
    return elapsed + typical / 2 < window
