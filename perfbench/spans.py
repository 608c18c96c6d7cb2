"""Benchmark-side span recording.

A span is ``(id, parent, query id, name, start, end)`` recorded around a
call into one layer's public function. Spans stay in memory and are
written out once, when the run ends. A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple

from harness import write_json


class Span(NamedTuple):
    span_id: int
    parent: int
    query: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-aware in-memory span log (one parent stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, query: int) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, query, name, start, end))

    def self_times(self) -> Dict[int, float]:
        """span id → self time in seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                covered[span.parent] += span.duration
        return {s.span_id: s.duration - covered[s.span_id] for s in self.spans}

    def self_by_query(self) -> Dict[int, Dict[str, float]]:
        """query id → layer name → summed self seconds."""
        own = self.self_times()
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span.query][span.name] += own[span.span_id]
        return out

    def roots(self, name: str) -> Dict[int, float]:
        """query id → summed duration of root spans called ``name``."""
        out: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent == 0 and span.name == name:
                out[span.query] += span.duration
        return out

    def dump(self, path: Path) -> None:
        write_json(path, [list(span) for span in self.spans])
