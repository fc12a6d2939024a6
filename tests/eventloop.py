"""The discrete-event reference of the cloud model.

Faithful copies of the event-loop engine that simulated the cloud before
:mod:`repro.cloud.fastsim` became its only implementation: a global
``(time, sequence)`` event heap (:class:`EventQueue`), per-machine
fair-share queues (:class:`FairShareQueue`), block-buffered scalar draws
(:class:`BufferedDraws`) and the service whose dispatch and finish handlers
move every job through its lifecycle one callback at a time
(:class:`EventLoopService`).

They exist only to prove equivalence, so they live with the tests rather
than in the package:

* ``test_fastsim_golden.py`` proves the batched engine and the sharded
  runner produce this engine's terminal job states and ``.npz`` bytes,
* ``test_service_interleaving.py`` proves
  :class:`~repro.cloud.service.QuantumCloudService` shows this engine's
  state after every operation of an interleaved session, and
* ``test_dataplane_golden.py`` simulates both data planes through it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cloud.backlog import ExternalLoadModel
from repro.cloud.execution_model import ExecutionTimeModel
from repro.cloud.fastsim import FailureModel
from repro.cloud.job import Job, JobResult
from repro.cloud.provider import DEFAULT_PROVIDERS, Provider
from repro.core.exceptions import CloudError, DeviceError
from repro.core.rng import RandomSource
from repro.core.types import JobStatus
from repro.devices.backend import Backend

# -- the event heap -------------------------------------------------------------------


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
    """Time-ordered event queue with a monotonically advancing clock.

    Ties break deterministically by insertion order.  The queue keeps a
    live count of pending (non-cancelled) events, so ``len(queue)`` is
    O(1), and compacts the heap whenever cancelled entries outnumber live
    ones.
    """

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
        return executed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely; returns how many events ran."""
        executed = 0
        while self.step() is not None:
            executed += 1
            if executed > max_events:
                raise CloudError("event budget exceeded; possible scheduling loop")
        return executed


# -- the machine queues ---------------------------------------------------------------


@dataclass(order=True)
class QueuedEntry:
    """A job waiting in a machine queue."""

    sort_key: float
    sequence: int
    job: Job = field(compare=False)


class FifoQueue:
    """Plain first-in-first-out queue."""

    def __init__(self):
        self._entries: List[QueuedEntry] = []
        self._sequence = 0

    def push(self, job: Job, now: float) -> None:
        self._entries.append(QueuedEntry(now, self._sequence, job))
        self._sequence += 1

    def pop(self, now: float) -> Job:
        if not self._entries:
            raise CloudError("queue is empty")
        entry = min(self._entries, key=lambda e: (e.sort_key, e.sequence))
        self._entries.remove(entry)
        return entry.job

    def __len__(self) -> int:
        return len(self._entries)

    def peek_jobs(self) -> List[Job]:
        return [e.job for e in sorted(self._entries,
                                      key=lambda e: (e.sort_key, e.sequence))]


class FairShareQueue:
    """Fair-share queue across providers.

    Each provider has a *share*; the scheduler tracks machine seconds
    consumed per provider and always serves the provider with the smallest
    ``consumed / share`` ratio that has a pending job (Section II-B,
    definition 5).  Within a provider, jobs run in submission order.
    """

    def __init__(self, shares: Optional[Dict[str, float]] = None,
                 default_share: float = 1.0):
        if default_share <= 0:
            raise CloudError("default_share must be positive")
        self._shares: Dict[str, float] = dict(shares or {})
        self._default_share = default_share
        self._consumed: Dict[str, float] = {}
        self._pending: Dict[str, List[QueuedEntry]] = {}
        self._sequence = 0

    def set_share(self, provider: str, share: float) -> None:
        if share <= 0:
            raise CloudError("share must be positive")
        self._shares[provider] = share

    def share_of(self, provider: str) -> float:
        return self._shares.get(provider, self._default_share)

    def push(self, job: Job, now: float) -> None:
        entry = QueuedEntry(now, self._sequence, job)
        self._sequence += 1
        self._pending.setdefault(job.provider, []).append(entry)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._pending.values())

    def pending_providers(self) -> List[str]:
        return sorted(p for p, entries in self._pending.items() if entries)

    def _priority(self, provider: str) -> float:
        return self._consumed.get(provider, 0.0) / self.share_of(provider)

    def pop(self, now: float) -> Job:
        """Pop the next job according to fair-share ordering."""
        candidates = self.pending_providers()
        if not candidates:
            raise CloudError("queue is empty")
        provider = min(candidates, key=lambda p: (self._priority(p), p))
        entries = self._pending[provider]
        entry = min(entries, key=lambda e: (e.sort_key, e.sequence))
        entries.remove(entry)
        return entry.job

    def record_usage(self, provider: str, machine_seconds: float) -> None:
        """Charge consumed machine time to a provider after a job runs."""
        if machine_seconds < 0:
            raise CloudError("machine_seconds must be non-negative")
        self._consumed[provider] = self._consumed.get(provider, 0.0) + machine_seconds

    def consumed(self, provider: str) -> float:
        return self._consumed.get(provider, 0.0)

    def peek_jobs(self) -> List[Job]:
        """All pending jobs in (approximate) service order."""
        ordered: List[Job] = []
        snapshot = {p: list(e) for p, e in self._pending.items()}
        consumed = dict(self._consumed)
        while any(snapshot.values()):
            provider = min(
                (p for p, entries in snapshot.items() if entries),
                key=lambda p: (consumed.get(p, 0.0) / self.share_of(p), p),
            )
            entries = snapshot[provider]
            entry = min(entries, key=lambda e: (e.sort_key, e.sequence))
            entries.remove(entry)
            ordered.append(entry.job)
            consumed[provider] = consumed.get(provider, 0.0) + 60.0
        return ordered


# -- block-buffered draws -------------------------------------------------------------


class BufferedDraws:
    """Block-buffered scalar draws for hot simulation loops.

    ``BufferedDraws`` pre-draws fixed-size blocks (one vectorised generator
    call per block) from two dedicated child streams — one for standard
    normals, one for uniforms — and serves them back one value at a time.
    Refills happen lazily, so the sequence of returned values is a pure
    function of the source seed and the call sequence.
    """

    def __init__(self, source: RandomSource, block_size: int = 1024):
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self._normal_generator = source.child("normal").generator
        self._uniform_generator = source.child("uniform").generator
        self._block_size = int(block_size)
        self._normals = np.empty(0)
        self._normal_next = 0
        self._uniforms = np.empty(0)
        self._uniform_next = 0

    def _next_normal(self) -> float:
        if self._normal_next >= self._normals.shape[0]:
            self._normals = self._normal_generator.standard_normal(
                self._block_size)
            self._normal_next = 0
        value = self._normals[self._normal_next]
        self._normal_next += 1
        return float(value)

    def _next_uniform(self) -> float:
        if self._uniform_next >= self._uniforms.shape[0]:
            self._uniforms = self._uniform_generator.random(self._block_size)
            self._uniform_next = 0
        value = self._uniforms[self._uniform_next]
        self._uniform_next += 1
        return float(value)

    # -- the RandomSource sampling subset the backlog model consumes ---------------

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return loc + scale * self._next_normal()

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        # numpy's Generator.lognormal(mean, sigma) is exactly
        # exp(mean + sigma * z) over the generator's normal stream, so this
        # stays bit-identical to RandomSource.lognormal given the same z.
        return math.exp(mean + sigma * self._next_normal())

    def random(self) -> float:
        return self._next_uniform()

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self._next_uniform()


# -- the service ----------------------------------------------------------------------


@dataclass
class _MachineState:
    """Mutable per-machine simulation state."""

    backend: Backend
    queue: FairShareQueue
    load_model: ExternalLoadModel
    rng: RandomSource
    #: block-buffered draws feeding the backlog sampling: the lognormal
    #: factors and idle checks
    backlog_draws: BufferedDraws = None  # type: ignore[assignment]
    #: block-buffered draws feeding the dispatch path (failure coin-flips,
    #: cancel delays, execution jitter, error fractions)
    dispatch_draws: BufferedDraws = None  # type: ignore[assignment]
    busy_until: float = 0.0
    jobs_completed: int = 0
    busy_seconds: float = 0.0


class EventLoopService:
    """Discrete-event simulation of a quantum cloud over a machine fleet."""

    def __init__(
        self,
        fleet: Dict[str, Backend],
        providers: Optional[Dict[str, Provider]] = None,
        execution_model: Optional[ExecutionTimeModel] = None,
        failure_model: Optional[FailureModel] = None,
        seed: int = 0,
        start_time: float = 0.0,
    ):
        if not fleet:
            raise CloudError("the fleet must contain at least one machine")
        self.fleet = dict(fleet)
        self.providers = dict(providers or DEFAULT_PROVIDERS)
        self.execution_model = execution_model or ExecutionTimeModel()
        self.failure_model = failure_model or FailureModel()
        self._rng = RandomSource(seed, name="cloud_service")
        self.events = EventQueue(start_time)
        self._machines: Dict[str, _MachineState] = {}
        for name, backend in self.fleet.items():
            shares = {p.name: p.fair_share for p in self.providers.values()}
            # Every machine draws from its own spawned stream, keyed only by
            # (service seed, machine name), so per-machine dynamics are
            # independent of the rest of the fleet.
            machine_rng = self._rng.spawn(name)
            self._machines[name] = _MachineState(
                backend=backend,
                queue=FairShareQueue(shares=shares),
                load_model=ExternalLoadModel(
                    backend=backend,
                    seed=RandomSource(seed, "load").child(name).seed or 0,
                ),
                rng=machine_rng,
                backlog_draws=BufferedDraws(machine_rng.child("backlog")),
                dispatch_draws=BufferedDraws(machine_rng.child("dispatch")),
            )
        self._completed: List[Job] = []

    # -- public API -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.events.now

    @property
    def completed_jobs(self) -> List[Job]:
        return list(self._completed)

    def machine_state(self, backend_name: str) -> _MachineState:
        try:
            return self._machines[backend_name]
        except KeyError:
            raise CloudError(f"unknown backend {backend_name!r}") from None

    def provider_for(self, name: str) -> Provider:
        try:
            return self.providers[name]
        except KeyError:
            raise CloudError(f"unknown provider {name!r}") from None

    def submit(self, job: Job) -> Job:
        """Submit a job; its lifecycle is simulated via scheduled events."""
        state = self.machine_state(job.backend_name)
        provider = self.provider_for(job.provider)
        if not state.backend.is_public and not provider.can_use_privileged:
            raise CloudError(
                f"provider {provider.name!r} cannot access privileged machine "
                f"{state.backend.name!r}"
            )
        try:
            state.backend.validate_job_shape(job.batch_size, job.shots)
        except DeviceError as exc:
            raise CloudError(str(exc)) from exc
        if job.submit_time < self.now - 1e-9:
            raise CloudError(
                f"job submitted at {job.submit_time} which is in the past "
                f"(clock is at {self.now})"
            )
        self.events.run_until(job.submit_time)
        job.mark_queued(job.submit_time)
        job.pending_ahead = (
            state.load_model.sample_pending_jobs(job.submit_time,
                                                 state.backlog_draws)
            + len(state.queue)
        )
        state.queue.push(job, job.submit_time)
        self.events.schedule(
            job.submit_time,
            lambda name=job.backend_name: self._try_dispatch(name),
            label=f"dispatch:{job.backend_name}",
        )
        return job

    def run_until(self, time: float) -> int:
        """Advance the simulation clock, executing pending events."""
        return self.events.run_until(time)

    def drain(self) -> List[Job]:
        """Run every remaining event and return all completed jobs."""
        self.events.run_all()
        return self.completed_jobs

    def pending_jobs_estimate(self, backend_name: str, timestamp: float) -> float:
        """Expected pending-job count on a machine at ``timestamp`` (Fig. 9)."""
        state = self.machine_state(backend_name)
        return state.load_model.mean_pending_jobs(timestamp) + len(state.queue)

    def utilization_of(self, backend_name: str, horizon: Optional[float] = None) -> float:
        """Fraction of wall-clock time the machine spent running studied jobs."""
        state = self.machine_state(backend_name)
        horizon = horizon if horizon is not None else max(self.now, 1e-9)
        if horizon <= 0:
            return 0.0
        return min(1.0, state.busy_seconds / horizon)

    def result_for(self, job: Job) -> JobResult:
        """Build the client-visible result object for a completed job."""
        if not job.status.is_terminal:
            raise CloudError("job has not finished")
        return JobResult(
            job_id=job.job_id,
            backend_name=job.backend_name,
            status=job.status,
            per_circuit_counts=[],
            queue_seconds=job.queue_seconds or 0.0,
            run_seconds=job.run_seconds or 0.0,
        )

    # -- internal event handlers -------------------------------------------------------

    def _try_dispatch(self, backend_name: str) -> None:
        state = self._machines[backend_name]
        now = self.events.now
        if len(state.queue) == 0:
            return
        if state.busy_until > now + 1e-9:
            # Machine still busy with an earlier studied job; a dispatch event
            # is already scheduled at its completion.
            return
        job = state.queue.pop(now)
        provider = self.provider_for(job.provider)
        backlog = state.load_model.sample_backlog_seconds(
            now, access=provider.access, rng=state.backlog_draws
        )
        start_time = max(now, state.busy_until) + backlog

        # Decide the terminal status up front.
        draw = state.dispatch_draws.random()
        if draw < self.failure_model.cancel_probability:
            # Cancelled while waiting: it never runs on the machine.
            cancel_delay = min(backlog,
                               state.dispatch_draws.uniform(30.0, 3600.0))
            self.events.schedule(
                now + cancel_delay,
                lambda j=job: self._finish_cancelled(j),
                label=f"cancel:{job.job_id}",
            )
            self.events.schedule(
                now + cancel_delay,
                lambda name=backend_name: self._try_dispatch(name),
                label=f"dispatch:{backend_name}",
            )
            return

        run_seconds = self.execution_model.simulate_seconds(
            job, state.backend, rng=state.dispatch_draws
        )
        is_error = draw < (self.failure_model.cancel_probability
                           + self.failure_model.error_probability)
        if is_error:
            # Errors abort partway through the run.
            run_seconds *= state.dispatch_draws.uniform(0.1, 0.9)

        end_time = start_time + run_seconds
        state.busy_until = end_time
        self.events.schedule(
            start_time, lambda j=job, t=start_time: j.mark_running(t),
            label=f"start:{job.job_id}",
        )
        final_status = JobStatus.ERROR if is_error else JobStatus.DONE
        self.events.schedule(
            end_time,
            lambda j=job, s=final_status, name=backend_name:
                self._finish_running(j, s, name),
            label=f"finish:{job.job_id}",
        )

    def _finish_running(self, job: Job, status: JobStatus, backend_name: str) -> None:
        now = self.events.now
        job.mark_finished(now, status)
        state = self._machines[backend_name]
        state.jobs_completed += 1
        if job.run_seconds:
            state.busy_seconds += job.run_seconds
            state.queue.record_usage(job.provider, job.run_seconds)
        self._completed.append(job)
        self.events.schedule(
            now, lambda name=backend_name: self._try_dispatch(name),
            label=f"dispatch:{backend_name}",
        )

    def _finish_cancelled(self, job: Job) -> None:
        job.mark_finished(self.events.now, JobStatus.CANCELLED)
        self._completed.append(job)
