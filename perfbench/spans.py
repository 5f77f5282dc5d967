"""In-memory span recorder for the traced run.

Spans are opened by the benchmark around calls into cozero's public
functions; nothing inside the package is edited.  Each span records its
name, start, end, parent and ring id, and is kept in memory until the run
ends.  A span's self time is its duration minus the time its children
cover.  The layer of a span is the part of its name before the first dot;
"trace.*" spans hold the recorder's own bookkeeping and belong to no layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

BOOKKEEPING = "trace"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    ring: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans and exact counters; inactive tracers cost one call."""

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.ring: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.ring))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter_ns()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def call(self, name: str, fn, *args, observe=None):
        """Run fn(*args) inside a span; `observe(tracer, result)` runs in a bookkeeping span."""
        if not self.active:
            return fn(*args)
        with self.span(name):
            result = fn(*args)
        if observe is not None:
            with self.span(BOOKKEEPING + ".observe"):
                observe(self, result)
        return result

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        def traced(*args):
            return self.call(name, fn, *args, observe=observe)

        return traced


NULL_TRACER = Tracer(active=False)


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span in ns: duration minus the union of its children.

    Children of one span never overlap in a single-threaded run, but the
    union is taken anyway so the arithmetic does not depend on that.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end - s.start - covered)
    return out


def self_seconds_by(spans: list[Span], key, keep=lambda span: True) -> dict[str, float]:
    """Sum self time in seconds, grouped by key(span), over spans that `keep` accepts."""
    totals: dict[str, float] = {}
    for span, ns in zip(spans, self_times(spans)):
        if keep(span):
            k = key(span)
            totals[k] = totals.get(k, 0.0) + ns / 1e9
    return totals


@contextmanager
def patched(module, replacements: dict):
    """Rebind names in a module's namespace for the duration of a block."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
