"""Spans the harness records around its own calls into the program's layers.

Spans stay in memory and are written once, at the end, as plain dicts
(for a results record) or as a Chrome trace-event file. Nothing here
reaches into the program: a span only brackets a call the harness makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any


@dataclasses.dataclass
class Span:
    """One timed interval; times are ``perf_counter`` seconds."""

    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; a span's parent is the span open around it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        record = Span(
            name,
            time.perf_counter(),
            0.0,
            self._open[-1] if self._open else None,
            attrs,
        )
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(span.seconds for span in self.spans if span.parent is None)

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dataclasses.asdict(span) for span in self.spans]

    @staticmethod
    def from_dicts(rows: Iterable[dict[str, Any]]) -> "Tracer":
        tracer = Tracer()
        tracer.spans = [Span(**row) for row in rows]
        return tracer


def chrome_events(
    spans: Iterable[Span], pid: int, tid: int = 0, origin: float = 0.0
) -> list[dict[str, Any]]:
    """Complete ("X") trace events, microseconds from ``origin``."""
    return [
        {
            "name": span.name,
            "ph": "X",
            "pid": pid,
            "tid": span.attrs.get("connection", tid),
            "ts": round((span.start - origin) * 1e6, 1),
            "dur": round(span.seconds * 1e6, 1),
            "args": span.attrs,
        }
        for span in spans
    ]


def write_chrome(path: Path, events: list[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
