"""Outside-in span tracer for the benchmark's traced run.

Spans come from wrappers that replace module-level names (and instance
methods) the runner calls through; no source file of the package changes.
A span is (name, start, end, parent). Spans are folded into per-(parent,
name) totals as they close, so memory stays flat over the millions of
spans a desk-scale run produces; the table is written out when the run
ends. Self time is a span's duration minus the time its child spans cover.
Calls are nested and single-threaded, so children never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span stack plus per-(parent, name) totals."""

    def __init__(self):
        # open spans: [name, start, time covered by closed children]
        self.stack: list[list] = []
        self.stats: dict[tuple[str | None, str], SpanStats] = {}

    def begin(self, name: str, now: float) -> None:
        self.stack.append([name, now, 0.0])

    def end(self, now: float) -> None:
        name, start, covered = self.stack.pop()
        duration = now - start
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        stats = self.stats.get((parent, name))
        if stats is None:
            stats = self.stats[(parent, name)] = SpanStats()
        stats.count += 1
        stats.total_s += duration
        stats.self_s += duration - covered

    # -- queries ------------------------------------------------------------

    def _select(self, name: str, parents=None):
        return [s for (p, n), s in self.stats.items()
                if n == name and (parents is None or p in parents)]

    def count(self, name: str, parents=None) -> int:
        return sum(s.count for s in self._select(name, parents))

    def total_s(self, name: str, parents=None) -> float:
        return sum(s.total_s for s in self._select(name, parents))

    def self_s(self, name: str, parents=None) -> float:
        return sum(s.self_s for s in self._select(name, parents))

    def write_table(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("parent,name,count,total_s,self_s\n")
            for (parent, name), s in sorted(
                    self.stats.items(), key=lambda kv: -kv[1].total_s):
                fh.write(f"{parent or ''},{name},{s.count},"
                         f"{s.total_s:.9f},{s.self_s:.9f}\n")


class Wrapped:
    """Installs span wrappers on attributes and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, name: str, inspect=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``inspect(args, result)``, when given, sees every call's positional
        arguments and result after the span closes (for the few layer
        metrics that depend on an outcome, such as void slots)."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, self._make(original, name, inspect))

    def _make(self, fn, name, inspect):
        begin, end, clock = self.tracer.begin, self.tracer.end, \
            time.perf_counter
        if inspect is not None:
            def wrapper(*args, **kwargs):
                begin(name, clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(clock())
                inspect(args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                begin(name, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(clock())
        wrapper.__wrapped__ = fn
        return wrapper

    def unwrap(self) -> bool:
        """Restore every attribute; True when each is the original again."""
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        restored = all(getattr(owner, attr) is original
                       for owner, attr, original, _ in self._saved)
        self._saved.clear()
        return restored
