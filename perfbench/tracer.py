"""Span recording around calls into the program's public functions.

A ``Tracer`` replaces module attributes (``dps.planner.build_visibility_graph``
and the like) with wrappers that record one span per call: (name, start,
end, parent span, op id). Spans are held in memory until the run ends; the
original attributes come back when the ``installed`` block ends. Nothing is
wrapped outside that block, so untraced passes run the program unchanged.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Optional

# A hook sees (tracer, args, kwargs, result) of a wrapped call and counts
# the work done at that boundary with tracer.add / tracer.minimum.
Hook = Callable[["Tracer", tuple, dict, object], None]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """One module attribute to wrap, the span name its calls record, and an
    optional hook that counts work at the same boundary."""

    module: object
    attr: str
    name: str
    hook: Optional[Hook] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.minima: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, self.op)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (the harness uses it for each op)."""
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, time.perf_counter())

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def minimum(self, key: str, value: float) -> None:
        if math.isfinite(value) and value < self.minima.get(key, math.inf):
            self.minima[key] = value

    def _wrap(self, fn, name: str, hook: Optional[Hook]):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, clock())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap the targets for the duration of the block, then put the
        original attributes back."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrap(original, t.name, t.hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential on one thread, so the children of a span never
    overlap and the sum of their durations is the part of the parent's
    interval they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - covered[i] for i, s in enumerate(spans)]
