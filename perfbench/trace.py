"""Benchmark-side spans around the calls into each layer.

Spans live in memory while the run measures and are written out once it
ends.  A span's layer is its name up to the first dot (``core.power`` is
in layer ``core``).  A span whose interval the program measured but the
benchmark could not observe directly (the executor's phase wall time
inside one ``power`` call) is recorded with ``derived=True``.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

LAYERS = ("reorder", "core", "parallel", "tune", "serve", "client")


@dataclass
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: Optional[int] = None
    trace_id: Optional[int] = None
    derived: bool = False
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.  Synchronous code nests spans with
    :meth:`span`; concurrent requests record theirs with :meth:`record`
    and an explicit parent and trace id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stack: List[Span] = []

    def new_trace_id(self) -> int:
        return next(self._ids)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, trace_id: Optional[int] = None,
               derived: bool = False, **attrs) -> Span:
        s = Span(name=name, start=start, end=end, id=next(self._ids),
                 parent=parent, trace_id=trace_id, derived=derived,
                 attrs=attrs)
        self.spans.append(s)
        return s

    @contextmanager
    def span(self, name: str, trace_id: Optional[int] = None,
             **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        s = Span(name=name, start=time.perf_counter(), end=0.0,
                 id=next(self._ids), parent=parent.id if parent else None,
                 trace_id=trace_id, attrs=attrs)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer not covered by a child span."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            covered = _union_length(
                [(max(c.start, s.start), min(c.end, s.end))
                 for c in children.get(s.id, [])])
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def _union_length(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
