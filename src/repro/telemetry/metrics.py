"""The process-wide metrics registry: counters, gauges, histograms.

Every layer of the reproduction keeps *some* cumulative accounting — the
trace cache counts hits, the residency governor counts spills, the worker
pool counts tasks, the job registry counts per-tenant dispatches.  Before
this module each of those was a private ``int`` attribute; now they are
instruments registered on one :class:`MetricsRegistry`, so the gateway's
``GET /metrics`` endpoint (Prometheus text exposition) and the ``repro
metrics`` CLI see a single truth across the whole process.

Design constraints, in order:

* **Deterministic outputs stay deterministic.**  Instruments never feed
  values back into traces, fingerprints or cache keys — they are pure
  observation.  Nothing here reads wall-clock time.
* **Building an object registers nothing.**  Objects made in any number
  — cache roots, result stores, residency governors — count their events
  in a :class:`Tally`: the object's own count, from zero, plus one add to
  the event's shared family counter.  The registry's instrument count
  stays flat however many objects a long-lived process builds, and the
  family value only grows, keeping the exposition monotonic.
* **Cheap.**  An increment is one lock acquisition and an integer add;
  histograms short-circuit to a shared no-op when the registry is
  disabled.  The true zero-cost-when-off path is the span tracer
  (:mod:`repro.telemetry.tracing`), which allocates nothing when
  disabled.
"""

from __future__ import annotations

import bisect
import threading
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tally",
    "get_registry",
]

#: Default histogram buckets (seconds): request/phase latencies from
#: sub-millisecond cache hits up to minute-scale suite runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Dict[str, object]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (one instance, one label set)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs,
                 lock: threading.Lock):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = lock

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount


class Tally:
    """One object's count of an event that also advances the event's
    shared family :class:`Counter` (see the module docstring)."""

    __slots__ = ("value", "_family")

    def __init__(self, family: Counter):
        self.value = 0
        self._family = family

    def inc(self) -> None:
        family = self._family
        with family._lock:
            self.value += 1
            family._value += 1


class Gauge:
    """A value that can go up and down (queue depths, active jobs)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs,
                 lock: threading.Lock):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = lock

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value


class _CallbackGauge:
    """A gauge computed on read from a weakly-referenced owner.

    Used for derived values (resident block bytes) that already exist as
    properties on live objects; the registry never keeps those objects
    alive, and a dead owner's sample silently drops out of the sum.
    """

    __slots__ = ("name", "labels", "_owner", "_read")

    def __init__(self, name: str, labels: LabelPairs, owner: object,
                 read: Callable[[object], float]):
        self.name = name
        self.labels = labels
        self._owner = weakref.ref(owner)
        self._read = read

    @property
    def value(self) -> Optional[float]:
        owner = self._owner()
        if owner is None:
            return None
        try:
            return self._read(owner)
        except Exception:
            return None


class Histogram:
    """Fixed-bucket cumulative histogram of observed values (seconds)."""

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "_lock")

    def __init__(self, name: str, labels: LabelPairs, lock: threading.Lock,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class _NullHistogram:
    """Shared do-nothing stand-in returned by a disabled registry."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_HISTOGRAM = _NullHistogram()


class _Family:
    """Every instrument registered under one metric name."""

    __slots__ = ("kind", "help", "instruments")

    def __init__(self, kind: str, help_text: str):
        self.kind = kind
        self.help = help_text
        self.instruments: Dict[LabelPairs, List[object]] = {}


class MetricsRegistry:
    """The process-wide instrument store behind ``/metrics``.

    ``counter`` / ``gauge`` / ``histogram`` return the *shared* instrument
    for a ``(name, labels)`` pair — every caller sees one cumulative
    value.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- registration ------------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {kind}")
        if help_text and not family.help:
            family.help = help_text
        return family

    def counter(self, name: str, help: str = "",  # noqa: A002
                **labels: object) -> Counter:
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._family(name, "counter", help)
            existing = family.instruments.get(pairs)
            if existing:
                return existing[0]
            instrument = Counter(name, pairs, self._lock)
            family.instruments[pairs] = [instrument]
            return instrument

    def gauge(self, name: str, help: str = "",  # noqa: A002
              **labels: object) -> Gauge:
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._family(name, "gauge", help)
            existing = family.instruments.get(pairs)
            if existing:
                return existing[0]
            instrument = Gauge(name, pairs, self._lock)
            family.instruments[pairs] = [instrument]
            return instrument

    def callback_gauge(self, name: str, owner: object,
                       read: Callable[[object], float],
                       help: str = "",  # noqa: A002
                       **labels: object) -> None:
        """Register a read-on-scrape gauge bound weakly to ``owner``."""
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._family(name, "gauge", help)
            family.instruments.setdefault(pairs, []).append(
                _CallbackGauge(name, pairs, owner, read))

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: object):
        if not self.enabled:
            return _NULL_HISTOGRAM
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._family(name, "histogram", help)
            existing = family.instruments.get(pairs)
            if existing:
                return existing[0]
            instrument = Histogram(name, pairs, self._lock, buckets)
            family.instruments[pairs] = [instrument]
            return instrument

    # -- reading -----------------------------------------------------------------------

    def value(self, name: str, **labels: object) -> float:
        """The summed current value of one ``(name, labels)`` sample."""
        pairs = _label_pairs(labels)
        with self._lock:
            family = self._families.get(name)
            instruments = list(family.instruments.get(pairs, ())) \
                if family is not None else []
        # Values are read *outside* the registry lock: callback gauges may
        # take their owner's lock, and owners increment counters while
        # holding it — reading under the registry lock would invert that
        # order and deadlock a concurrent scrape.
        total = 0
        for instrument in instruments:
            value = instrument.value
            if value is not None:
                total += value
        return total

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Every family's summed samples, JSON-ready.

        Counter/gauge families map label strings to one number; histogram
        families map them to ``{buckets, counts, sum, count}``.
        """
        from repro.telemetry.exposition import format_labels

        with self._lock:
            families = [
                (name, family.kind, family.help,
                 [(pairs, list(instruments))
                  for pairs, instruments in sorted(
                      family.instruments.items())])
                for name, family in sorted(self._families.items())
            ]
        out: Dict[str, Dict[str, object]] = {}
        for name, kind, help_text, groups in families:
            samples: Dict[str, object] = {}
            for pairs, instruments in groups:
                key = format_labels(pairs)
                if kind == "histogram":
                    samples[key] = self._sum_histograms(instruments)
                else:
                    total = 0
                    live = False
                    for instrument in instruments:
                        value = instrument.value
                        if value is not None:
                            total += value
                            live = True
                    if live:
                        samples[key] = total
            if samples:
                out[name] = {"type": kind, "help": help_text,
                             "samples": samples}
        return out

    @staticmethod
    def _sum_histograms(instruments: Iterable[object]) -> Dict[str, object]:
        buckets: Tuple[float, ...] = ()
        counts: List[int] = []
        total_sum = 0.0
        total_count = 0
        for histogram in instruments:
            if not buckets:
                buckets = histogram.buckets
                counts = [0] * (len(buckets) + 1)
            for index, count in enumerate(histogram.counts):
                counts[index] += count
            total_sum += histogram.sum
            total_count += histogram.count
        return {"buckets": list(buckets), "counts": counts,
                "sum": total_sum, "count": total_count}


#: The process-wide registry every layer instruments against.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY
