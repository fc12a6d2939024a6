"""A minimal discrete-event simulation engine.

The cloud service schedules job state transitions (validation complete, run
start, run end) as events on a single global clock.  :class:`EventQueue`
keeps them on a binary heap and pops them in ``(time, sequence)`` order, so
ties break deterministically by insertion order.

The queue keeps a live count of pending (non-cancelled) events, so
``len(queue)`` is O(1), and compacts the heap whenever cancelled entries
outnumber live ones, so cancel-heavy runs cannot grow the heap unboundedly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.exceptions import CloudError

#: Lazily bound cumulative event counter — one registry lookup ever, so
#: the per-batch ``inc`` on the hot run loop stays a single locked add.
_EVENTS_COUNTER_CACHE = None


def _events_counter():
    global _EVENTS_COUNTER_CACHE
    if _EVENTS_COUNTER_CACHE is None:
        from repro.telemetry import get_registry
        _EVENTS_COUNTER_CACHE = get_registry().counter(
            "repro_sim_events_total",
            help="Discrete events executed by the event-loop engine.")
    return _EVENTS_COUNTER_CACHE


@dataclass(order=True)
class Event:
    """A scheduled callback."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: the queue that owns this event, so cancellation can keep the queue's
    #: live-event counter exact without an O(heap) recount
    owner: Optional["EventQueue"] = field(default=None, compare=False,
                                          repr=False)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


class EventQueue:
    """Time-ordered event queue with a monotonically advancing clock."""

    def __init__(self, start_time: float = 0.0):
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._now = float(start_time)
        #: live (non-cancelled) events on the heap — maintained on
        #: schedule/cancel/pop so ``len`` never walks the heap
        self._pending = 0
        #: cancelled events still occupying heap slots
        self._cancelled = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Live scheduled events (O(1) — a counter, not a heap walk)."""
        return self._pending

    def __len__(self) -> int:
        return self._pending

    def _note_cancelled(self) -> None:
        """Event.cancel() hook: move one event from live to cancelled."""
        self._pending -= 1
        self._cancelled += 1
        # Compact once cancelled entries exceed half the heap, so
        # cancel-heavy runs cannot grow it unboundedly.
        if self._cancelled > self._pending:
            self._heap = [event for event in self._heap
                          if not event.cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def schedule(self, time: float, callback: Callable[[], None],
                 label: str = "") -> Event:
        """Schedule ``callback`` at absolute ``time`` (>= current clock)."""
        if time < self._now - 1e-9:
            raise CloudError(
                f"cannot schedule an event at {time} before the current "
                f"clock {self._now}"
            )
        event = Event(time=max(time, self._now), sequence=next(self._counter),
                      callback=callback, label=label, owner=self)
        heapq.heappush(self._heap, event)
        self._pending += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None],
                       label: str = "") -> Event:
        if delay < 0:
            raise CloudError("delay must be non-negative")
        return self.schedule(self._now + delay, callback, label)

    def _peek_live(self) -> Optional[Event]:
        """The earliest live event, skimming cancelled entries off the top."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def step(self) -> Optional[Event]:
        """Run the next pending event; returns it (or None when empty)."""
        event = self._peek_live()
        if event is None:
            return None
        heapq.heappop(self._heap)
        self._pending -= 1
        # A popped event no longer occupies a heap slot; cancelling it
        # later (harmless in itself) must not touch the counters.
        event.owner = None
        self._now = event.time
        event.callback()
        return event

    def run_until(self, time: float) -> int:
        """Run events up to and including ``time``; returns how many ran."""
        executed = 0
        while True:
            head = self._peek_live()
            if head is None or head.time > time:
                break
            self.step()
            executed += 1
        self._now = max(self._now, time)
        if executed:
            _events_counter().inc(executed)
        return executed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely; returns how many events ran."""
        executed = 0
        while self.step() is not None:
            executed += 1
            if executed > max_events:
                raise CloudError("event budget exceeded; possible scheduling loop")
        if executed:
            _events_counter().inc(executed)
        return executed
