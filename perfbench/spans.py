"""Span aggregation for the traced run.

Two sources feed it: the Chrome trace a program process writes under
``--trace-out``, and :class:`Recorder`, the benchmark's own spans around
the calls it makes into the program's layers in its own process.  A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from harness import BenchError


class SpanTable:
    """Finished spans (seconds), indexed by name and by parent.

    A lookup that matches no span raises :class:`BenchError`: a layer the
    benchmark measures must leave spans, and a renamed span must not read
    as a layer that did no work.
    """

    def __init__(self, spans: List[Dict[str, object]]):
        self.spans = spans
        self._children: Dict[int, List[Dict[str, object]]] = {}
        for span in spans:
            parent = span.get("parent")
            if parent is not None:
                self._children.setdefault(parent, []).append(span)

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        """Read the complete (``ph: "X"``) events of a Chrome trace."""
        events = json.loads(Path(path).read_text())["traceEvents"]
        spans = []
        for event in events:
            if event.get("ph") != "X":
                continue
            args = dict(event.get("args") or {})
            spans.append({
                "name": event["name"],
                "start": event["ts"] / 1e6,
                "duration": event["dur"] / 1e6,
                "pid": event.get("pid"),
                "id": args.pop("span_id", None),
                "parent": args.pop("parent_id", None),
                "args": args,
            })
        return cls(spans)

    def select(self, match: Callable[[str], bool],
               what: str) -> List[Dict[str, object]]:
        found = [span for span in self.spans if match(span["name"])]
        if not found:
            raise BenchError(f"the program trace has no {what} span")
        return found

    def named(self, name: str) -> List[Dict[str, object]]:
        return self.select(lambda candidate: candidate == name, name)

    def total(self, name: str) -> float:
        return sum(span["duration"] for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def arg_sum(self, name: str, key: str) -> float:
        return sum(float(span["args"].get(key, 0))
                   for span in self.named(name))

    def self_time(self, span: Dict[str, object]) -> float:
        start = span["start"]
        end = start + span["duration"]
        intervals = sorted(
            (max(start, child["start"]),
             min(end, child["start"] + child["duration"]))
            for child in self._children.get(span["id"], ()))
        return span["duration"] - covered(intervals)

    def self_total(self, match: Callable[[str], bool], what: str) -> float:
        return sum(self.self_time(span) for span in self.select(match, what))

    def coverage(self, match: Callable[[str], bool], what: str,
                 pid: Optional[int] = None) -> float:
        """Seconds of wall-clock covered by the matching spans (union)."""
        intervals = sorted(
            (span["start"], span["start"] + span["duration"])
            for span in self.select(match, what)
            if pid is None or span["pid"] == pid)
        return covered(intervals)


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of sorted ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in intervals:
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class _Timing:
    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class Recorder:
    """The benchmark's own spans, kept in memory and written at the end."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[_Timing]:
        timing = _Timing()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - start
            with self._lock:
                self._spans.append({"name": name, "start": start,
                                    "duration": timing.seconds,
                                    "args": args})

    def write_chrome_trace(self, path: Path) -> Path:
        events = [{
            "name": span["name"], "ph": "X",
            "ts": (span["start"] - self._origin) * 1e6,
            "dur": span["duration"] * 1e6,
            "pid": os.getpid(), "tid": 0, "args": span["args"],
        } for span in self._spans]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
        return path
