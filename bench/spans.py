"""Span recording around the benchmark's calls into topoglue's layers.

A span holds a name, start and end (``time.perf_counter`` seconds), the id of
its parent span and the id of the op it belongs to.  Spans stay in memory and
are written out when the run ends.  ``perf_counter`` reads the system-wide
monotonic clock on Linux, so spans a child process reports (as ``[name,
start, end]``) nest inside the parent's op span on the same time line.
"""

from __future__ import annotations

import json
from time import perf_counter


class NoTrace:
    """The untraced path: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call, parented on the span open when it started."""

    def __init__(self):
        # each span: [id, name, start, end, parent, op]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def add_child_spans(self, reported) -> None:
        """Adopt spans a child process recorded, under the currently open span."""
        parent = self._stack[-1] if self._stack else None
        for name, start, end in reported:
            self.spans.append([len(self.spans), name, start, end, parent, self.op])

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    ]
