"""Span-based tracing with Chrome trace-event export.

:func:`get_tracer` returns the process tracer.  It is **disabled by
default** and, while disabled, ``span()`` hands back one shared null-span
singleton — no object allocation, no clock read, no lock — so hot loops
can be instrumented unconditionally.  ``--trace-out FILE`` on the CLI
enables it and dumps the finished spans as Chrome trace-event JSON
(loadable in Perfetto / ``chrome://tracing``).

Spans nest through a per-thread stack (``parent_id`` links), and
timestamps are ``time.perf_counter()`` — on Linux a system-wide monotonic
clock shared across forked worker processes, so spans recorded inside a
pool worker line up with the parent timeline once merged.  Worker-side
spans travel back through the existing task result payloads as plain
dicts (:meth:`Tracer.export_spans`) and are re-registered with
:meth:`Tracer.ingest`, which re-keys span ids into the parent's id space
while preserving parent/child links.

Nothing here feeds values into traces, fingerprints or cache keys:
tracing on vs off produces byte-identical study output.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["Span", "Tracer", "get_tracer", "set_tracer"]


class _NullSpan:
    """The shared no-op span a disabled tracer returns from ``span()``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One live span: a named, timed, attributed interval.

    Context-manager protocol: entering records the start and pushes onto
    the thread's span stack (establishing parentage); exiting pops,
    computes the duration and hands the finished span to the tracer.
    """

    __slots__ = ("name", "args", "span_id", "parent_id", "start",
                 "duration", "pid", "tid", "_tracer")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.duration = 0.0
        self.pid = 0
        self.tid = 0

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # unbalanced exit (exception skipped frames): best effort
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._tracer._record(self)
        return False

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.span_id,
            "parent_id": self.parent_id,
            "args": dict(self.args),
        }


class Tracer:
    """Collects finished spans; disabled by default (null-span fast path)."""

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._finished: List[Dict[str, object]] = []
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def span(self, name: str, **args: object):
        """A context manager timing one named interval.

        Disabled tracers return the shared :data:`NULL_SPAN` singleton —
        identity-stable, allocation-free.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, args)

    def instant(self, name: str, **args: object) -> None:
        """Record a zero-duration marker span at the current position."""
        if not self.enabled:
            return
        span = Span(self, name, args)
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
        span.pid = os.getpid()
        span.tid = threading.get_ident()
        span.start = time.perf_counter()
        span.duration = 0.0
        self._record(span)

    def timed(self, name: str, **args: object) -> "_Timed":
        """Measure a block's wall-clock *always*; record a span when on.

        ``--profile-phases`` style timings ride on this: the ``seconds``
        attribute is filled whether or not tracing is enabled, so phase
        reports and span trees are two views over the same measurement.
        """
        return _Timed(self, name, args)

    def record_span(self, name: str, start: float, duration: float,
                    args: Optional[Dict[str, object]] = None,
                    pid: Optional[int] = None, tid: Optional[int] = None,
                    parent_id: Optional[int] = None) -> None:
        """Register an externally measured interval (e.g. queue wait)."""
        if not self.enabled:
            return
        with self._lock:
            self._finished.append({
                "name": name,
                "start": start,
                "duration": duration,
                "pid": pid if pid is not None else os.getpid(),
                "tid": tid if tid is not None else threading.get_ident(),
                "id": next(self._ids),
                "parent_id": parent_id,
                "args": dict(args or {}),
            })

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span.as_dict())

    # -- merge and export --------------------------------------------------------------

    def export_spans(self) -> List[Dict[str, object]]:
        """The finished spans as plain picklable dicts (worker → parent)."""
        with self._lock:
            return [dict(span) for span in self._finished]

    def ingest(self, spans: List[Dict[str, object]]) -> None:
        """Adopt spans exported by another tracer (a pool worker).

        Span ids are re-keyed into this tracer's id space so merged spans
        from many workers can never collide; parent links that point
        outside the ingested batch are cleared.
        """
        if not self.enabled or not spans:
            return
        with self._lock:
            remap: Dict[int, int] = {}
            for span in spans:
                remap[span["id"]] = next(self._ids)
            for span in spans:
                adopted = dict(span)
                adopted["id"] = remap[adopted["id"]]
                parent = adopted.get("parent_id")
                adopted["parent_id"] = remap.get(parent)
                self._finished.append(adopted)

    def spans(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
        self._epoch = time.perf_counter()

    def chrome_trace(self) -> Dict[str, object]:
        """The Chrome trace-event JSON object (``ph: "X"`` complete events).

        Timestamps are microseconds relative to the tracer's epoch, so
        Perfetto renders the session starting near zero.
        """
        events = []
        for span in self.spans():
            events.append({
                "name": span["name"],
                "ph": "X",
                "ts": max(0.0, (span["start"] - self._epoch) * 1e6),
                "dur": span["duration"] * 1e6,
                "pid": span["pid"],
                "tid": span["tid"],
                "args": {
                    **span["args"],
                    "span_id": span["id"],
                    **({"parent_id": span["parent_id"]}
                       if span["parent_id"] is not None else {}),
                },
            })
        events.sort(key=lambda event: (event["pid"], event["tid"],
                                       event["ts"]))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace(), indent=2))
        return path


class _Timed:
    """``Tracer.timed`` context: wall-clock always, a span when enabled."""

    __slots__ = ("seconds", "_tracer", "_name", "_args", "_span", "_start")

    def __init__(self, tracer: Tracer, name: str, args: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._args = args
        self._span = None
        self.seconds = 0.0

    def __enter__(self) -> "_Timed":
        if self._tracer.enabled:
            self._span = Span(self._tracer, self._name, self._args)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is None:
            self.seconds = time.perf_counter() - self._start
        else:  # one measurement, two views: the timer reads the span's
            self._span.__exit__(exc_type, exc, tb)
            self.seconds = self._span.duration
        return False


#: The process tracer; pool workers temporarily swap in their own.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process tracer; returns the previous one.

    Pool workers install a fresh enabled tracer around each task so that
    every span recorded anywhere in the task's call tree is captured and
    shipped back with the result, then restore the original.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
