"""In-memory spans for the traced run, Chrome trace export, self times.

A span is ``(name, layer, start, end, parent)``; the tracer keeps them in a
list and writes them out when the run ends.  Spans of one job share the
job's name in their ``job`` field.  A span's self time is its duration
minus the part its direct children cover (children never overlap: the
benchmark is single-threaded).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str = ""
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls made from the benchmark's own code."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, job: str | None = None, **args):
        parent = self._stack[-1] if self._stack else None
        record = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            start=time.perf_counter(),
            parent=parent.id if parent is not None else None,
            job=job if job is not None else (parent.job if parent else ""),
            args=dict(args),
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float, parent: Span) -> Span:
        """A child span whose interval comes from a public result's timing
        (e.g. the ILP phase inside an ``extract`` stage)."""
        record = Span(
            id=len(self.spans), name=name, layer=layer, start=start, end=end,
            parent=parent.id, job=parent.job,
        )
        self.spans.append(record)
        return record

    # ------------------------------------------------------------ analysis
    def self_times(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        return {s.id: s.duration - covered.get(s.id, 0.0) for s in self.spans}

    def total(self, name: str, self_time: bool = False) -> float:
        own = self.self_times() if self_time else None
        return sum(
            own[s.id] if own is not None else s.duration
            for s in self.spans
            if s.name == name
        )

    def layer_table(self) -> dict[str, float]:
        """Self seconds per layer."""
        own = self.self_times()
        table: dict[str, float] = {}
        for span in self.spans:
            table[span.layer] = table.get(span.layer, 0.0) + own[span.id]
        return table

    # -------------------------------------------------------------- export
    def chrome_events(self) -> list[dict]:
        """Complete ("X") trace events; timestamps in microseconds."""
        return [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": round(s.start * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "args": {"job": s.job, "id": s.id, "parent": s.parent, **s.args},
            }
            for s in self.spans
        ]


def write_chrome_trace(path, tracks: dict[str, list[dict]]) -> None:
    """One Chrome trace-event file (opens in Perfetto); one thread per track."""
    events = []
    for tid, (label, track) in enumerate(sorted(tracks.items()), start=1):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": label}}
        )
        events += [dict(event, pid=1, tid=tid) for event in track]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
