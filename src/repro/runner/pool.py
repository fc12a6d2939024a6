"""The shared worker pool behind suite-level scheduling.

:class:`SharedWorkerPool` is the persistent pool/session object the study
runner, the scenario engine and the study-service gateway schedule onto.
Instead of spinning a fresh ``multiprocessing`` pool up (and tearing it
down) per study — which is what the pre-suite runner did and what made a
ten-scenario catalog pay ten pool start-ups with every small scenario
serialised behind the previous one — a single pool outlives any number of
studies and executes their synthesis shards and machine-group simulations
as one interleaved work queue.

Determinism is preserved by construction:

* every task is a pure function of ``(config, shard)`` or
  ``(config, group, jobs)`` — job randomness is keyed by global job index
  and simulation randomness by machine, so *which* worker runs a task (and
  in what order) cannot change its result;
* per-worker state (the fleet and the job synthesizer of one study) is keyed
  by the study's config fingerprint, so tasks of different scenarios never
  share mutable state even when they interleave on one worker;
* state generations are keyed by an *epoch* that the suite scheduler opens
  per run and releases when the run finishes.  Workers evict the state of
  epochs below the oldest epoch still active at submit time, so re-running
  a study on a long-lived pool starts from freshly built fleets exactly
  like a transient per-study pool would — while *concurrent* runs (several
  gateway jobs multiplexed onto one pool) cannot evict each other.

Submissions accept an optional completion ``callback`` so the suite
scheduler can react to a shard landing (e.g. queue a study's simulations
the moment its last synthesis shard completes) instead of waiting on
handles in submission order.  Callbacks run on the pool's result-handler
thread (or inline with ``workers == 1``) and must never raise.

With ``workers == 1`` the pool degrades to inline execution in the calling
process — no subprocesses, same bytes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cloud.fastsim import simulate_fleet
from repro.cloud.job import Job
from repro.core.exceptions import WorkloadError
from repro.runner.sharding import MachineGroup, ShardSpec, TranspileShard
from repro.telemetry import Tracer, get_registry, get_tracer, set_tracer
from repro.transpiler.cache import DEFAULT_RANK_SEED, TranspileSummary
from repro.workloads.generator import (
    JobSynthesizer,
    TraceGeneratorConfig,
    record_for,
)
from repro.workloads.trace import ShardColumns
from repro.workloads.transpile_classes import (
    ClassRankTable,
    compute_class_summary,
)


def default_workers() -> int:
    """Worker-count default: every core, capped to keep small hosts usable."""
    return max(1, min(os.cpu_count() or 1, 16))


# -- worker-side state ---------------------------------------------------------------

#: Per-process study state, keyed by ``(epoch, config fingerprint)``.  A
#: worker builds the fleet (and, lazily, the synthesizer) of a study the
#: first time it receives one of its tasks and reuses it for every later
#: task of the same study in the same epoch.
_STATE: Dict[Tuple[int, str], Dict[str, object]] = {}

#: Guards ``_STATE`` — inline (workers == 1) tasks run on the submitting
#: thread, and a long-lived service multiplexes several suite runs onto one
#: pool from concurrent threads.  Forked workers are single-threaded, so
#: the lock is uncontended there.
_STATE_LOCK = threading.Lock()

#: Process-wide epoch source.  Epochs must be unique across *every* pool
#: instance of the process, not per instance: inline (workers == 1) tasks
#: run in the calling process, and forked workers inherit the parent's
#: ``_STATE``, so a per-instance counter restarting at 1 would let a later
#: run silently reuse — and never evict — a previous run's fleets.
_EPOCHS = itertools.count(1)

#: Epochs of runs currently in flight (opened by :meth:`next_epoch`,
#: dropped by :meth:`release_epoch`).  The oldest active epoch is the
#: eviction floor shipped with every task: workers drop the state of any
#: epoch below it, which keeps sequential runs evicting exactly like
#: before while concurrent runs on one pool keep each other's state alive.
_ACTIVE_EPOCHS: Set[int] = set()
_EPOCH_LOCK = threading.Lock()

#: Last issued epoch, used as the floor when no run is active.
_LAST_EPOCH = 0


def _state_for(epoch: int, floor: int, key: str,
               config: TraceGeneratorConfig) -> Dict[str, object]:
    with _STATE_LOCK:
        state = _STATE.get((epoch, key))
        if state is None:
            # Evict generations below the floor: every epoch that was
            # already released when this task was submitted.  Fleets
            # mutated by a finished run's simulations must never leak into
            # a later one; epochs still active (a concurrent run on the
            # same pool) stay cached.
            for stale in [k for k in _STATE if k[0] < floor]:
                del _STATE[stale]
            state = {"fleet": config.build_fleet(), "synthesizer": None}
            _STATE[(epoch, key)] = state
    return state


def _synthesise_task(payload: Tuple[int, int, str, TraceGeneratorConfig,
                                    ShardSpec, Optional[ClassRankTable]]
                     ) -> List[Job]:
    epoch, floor, key, config, shard, rank_table = payload
    state = _state_for(epoch, floor, key, config)
    synthesizer = state["synthesizer"]
    if synthesizer is None:
        # The rank table is a pure function of the study config, so caching
        # the synthesizer built from the first shard's copy is safe: every
        # shard of the study ships an equal table.
        synthesizer = JobSynthesizer(config, state["fleet"],
                                     rank_table=rank_table)
        state["synthesizer"] = synthesizer
    with get_tracer().span("synthesis.shard", study=key,
                           job_shard=shard.shard_id,
                           submissions=len(shard.submissions)):
        jobs = synthesizer.synthesise_many(shard.submissions)
    return [job for job in jobs if job is not None]


def _transpile_task(payload: Tuple[int, int, str, TraceGeneratorConfig,
                                   TranspileShard]) -> List[TranspileSummary]:
    epoch, floor, key, config, shard = payload
    state = _state_for(epoch, floor, key, config)
    fleet = state["fleet"]
    level = config.scenario.ranking_level
    tracer = get_tracer()
    summaries: List[TranspileSummary] = []
    with tracer.span("transpile.shard", study=key,
                     transpile_shard=shard.shard_id, pairs=len(shard.pairs)):
        for family, width, machine in shard.pairs:
            with tracer.span("transpile.class", study=key, family=family,
                             width=width, machine=machine, level=level):
                started = time.perf_counter()
                summary = compute_class_summary(
                    family, width, fleet[machine], level,
                    seed=DEFAULT_RANK_SEED)
            # Replay the per-pass wall-clock as child spans.  The recorded
            # timings are summary telemetry, not span timestamps, so lay
            # them end to end from the class start; the small gap to the
            # parent's end is the non-pass overhead (layout, ESP).
            cursor = started
            for pass_name, seconds in summary.pass_timings:
                tracer.record_span(
                    f"transpile.pass.{pass_name}", start=cursor,
                    duration=seconds,
                    args={"family": family, "width": width,
                          "machine": machine})
                cursor += seconds
            summaries.append(summary)
    return summaries


def _simulate_task(payload: Tuple[int, int, str, TraceGeneratorConfig,
                                  MachineGroup, Sequence[Job]]
                   ) -> ShardColumns:
    epoch, floor, key, config, group, jobs = payload
    state = _state_for(epoch, floor, key, config)
    fleet = state["fleet"]
    sub_fleet = {name: fleet[name] for name in group.machines}
    with get_tracer().span("simulation.group", study=key,
                           machines=len(group.machines), jobs=len(jobs)):
        ordered = simulate_fleet(
            sub_fleet, jobs, seed=config.seed,
            failure_model=config.build_failure_model())
    # Columnarise where the rows were produced: the parent merges typed
    # arrays (vocabulary union + lexsort), never a JobRecord round-trip.
    return ShardColumns.from_records(
        [record_for(job, fleet) for job in ordered])


class _ImmediateResult:
    """Inline stand-in for ``AsyncResult`` when the pool has one worker."""

    __slots__ = ("_value", "_error")

    def __init__(self, value, error=None):
        self._value = value
        self._error = error

    def get(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value


class _TracedValue:
    """A task result plus the spans its worker recorded while computing it.

    Only used while the parent's tracer is enabled: the worker runs the
    task under a fresh process-local tracer and ships the finished spans
    home inside the existing result payload.
    """

    __slots__ = ("value", "spans")

    def __init__(self, value, spans):
        self.value = value
        self.spans = spans


def _traced_task(bundle):
    """Run a pool task under a worker-local tracer; return value + spans."""
    task, payload, kind, key = bundle
    worker_tracer = Tracer(enabled=True)
    previous = set_tracer(worker_tracer)
    try:
        with worker_tracer.span(f"pool.{kind}", study=key,
                                worker=os.getpid()):
            value = task(payload)
    finally:
        set_tracer(previous)
    return _TracedValue(value, worker_tracer.export_spans())


class _TracedHandle:
    """Wraps an ``AsyncResult`` holding a :class:`_TracedValue`: ``get()``
    unwraps the value and merges the worker spans (exactly once)."""

    __slots__ = ("_handle", "_merge")

    def __init__(self, handle, merge):
        self._handle = handle
        self._merge = merge

    def get(self, timeout=None):
        return self._merge(self._handle.get(timeout))


class SharedWorkerPool:
    """A reusable pool of study workers, shared across studies and suites.

    The pool is lazy (processes start on the first parallel submission) and
    long-lived: hand one instance to several :class:`StudyRunner`s,
    scenario-engine runs or gateway jobs — even from concurrent threads —
    and they all schedule onto the same workers.  Use it as a context
    manager — on a clean exit outstanding work is drained and the workers
    released; on an exception they are terminated so a failed task can
    never hang the caller on join.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = max(1, int(workers if workers is not None
                                  else default_workers()))
        self._pool = None
        self._closed = False
        self._pool_lock = threading.Lock()

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    def next_epoch(self) -> int:
        """Open a fresh worker-state generation (one per suite/study run).

        Epochs are unique process-wide and stay *active* — immune to
        worker-side eviction — until :meth:`release_epoch` drops them, so
        several runs multiplexed onto one pool keep their cached fleets
        alive side by side.  Always release in a ``finally``.
        """
        global _LAST_EPOCH
        with _EPOCH_LOCK:
            epoch = next(_EPOCHS)
            _ACTIVE_EPOCHS.add(epoch)
            _LAST_EPOCH = epoch
        return epoch

    def release_epoch(self, epoch: int) -> None:
        """Close a generation opened by :meth:`next_epoch`.

        Its worker-side state becomes evictable as soon as any later task
        observes a floor above it.
        """
        with _EPOCH_LOCK:
            _ACTIVE_EPOCHS.discard(epoch)

    @staticmethod
    def _epoch_floor() -> int:
        """The eviction floor to ship with a task submitted now.

        The oldest active epoch when runs are in flight; otherwise one past
        the last issued epoch, so a fully idle pool evicts everything on
        the next run's first task.
        """
        with _EPOCH_LOCK:
            if _ACTIVE_EPOCHS:
                return min(_ACTIVE_EPOCHS)
            return _LAST_EPOCH + 1

    def _ensure_pool(self):
        if self._closed:
            raise WorkloadError("this worker pool has been shut down")
        with self._pool_lock:
            if self._pool is None:
                context = multiprocessing.get_context(
                    "fork" if "fork" in multiprocessing.get_all_start_methods()
                    else "spawn"
                )
                self._pool = context.Pool(processes=self.workers)
            return self._pool

    def _submit(self, task, payload,
                callback: Optional[Callable[[object], None]] = None,
                kind: str = "task", key: Optional[str] = None):
        registry = get_registry()
        registry.counter(
            "repro_pool_tasks_total", kind=kind,
            help="Tasks submitted to the shared worker pool.").inc()
        depth = registry.gauge(
            "repro_pool_queue_depth",
            help="Pool tasks submitted but not yet completed.")
        completed = registry.counter(
            "repro_pool_tasks_completed_total", kind=kind,
            help="Pool tasks that completed successfully.")
        failed = registry.counter(
            "repro_pool_task_failures_total", kind=kind,
            help="Pool tasks that raised in a worker.")
        depth.inc()
        tracer = get_tracer()

        if not self.is_parallel:
            if self._closed:
                depth.dec()
                raise WorkloadError("this worker pool has been shut down")
            try:
                with tracer.span(f"pool.{kind}", study=key,
                                 worker=os.getpid()):
                    value = task(payload)
            except Exception as exc:
                depth.dec()
                failed.inc()
                # Match apply_async semantics: errors surface on .get(),
                # and the completion callback is not invoked.
                return _ImmediateResult(None, error=exc)
            depth.dec()
            completed.inc()
            if callback is not None:
                callback(value)
            return _ImmediateResult(value)

        merge = None
        if tracer.enabled:
            # Ship the task through the worker-tracer wrapper; the worker
            # returns (value, spans) and the first unwrap — the completion
            # callback below, which multiprocessing runs before .get()
            # returns — merges the spans into the parent tracer along with
            # a synthesised queue-wait span.
            queued_at = time.perf_counter()
            task, payload = _traced_task, (task, payload, kind, key)
            merge_lock = threading.Lock()
            state = {"merged": False}

            def merge(result):
                if not isinstance(result, _TracedValue):
                    return result
                with merge_lock:
                    first = not state["merged"]
                    state["merged"] = True
                if first and result.spans:
                    task_start = min(span["start"]
                                     for span in result.spans)
                    if task_start > queued_at:
                        tracer.record_span(
                            "pool.queued", start=queued_at,
                            duration=task_start - queued_at,
                            args={"kind": kind, "study": key})
                    tracer.ingest(result.spans)
                return result.value

        def _on_done(result):
            depth.dec()
            completed.inc()
            try:
                value = merge(result) if merge is not None else result
            except Exception:
                value = result.value if isinstance(result, _TracedValue) \
                    else result
            if callback is not None:
                callback(value)

        def _on_error(exc):
            depth.dec()
            failed.inc()

        handle = self._ensure_pool().apply_async(
            task, (payload,), callback=_on_done, error_callback=_on_error)
        if merge is not None:
            return _TracedHandle(handle, merge)
        return handle

    def submit_synthesis(self, epoch: int, key: str,
                         config: TraceGeneratorConfig, shard: ShardSpec,
                         callback: Optional[Callable[[object], None]] = None,
                         rank_table: Optional[ClassRankTable] = None):
        """Queue one synthesis shard; returns a handle with ``.get()``.

        ``callback`` (if given) receives the shard's job list when it
        completes — on the pool's result-handler thread, or synchronously
        for an inline pool.  It is not invoked when the task raises; the
        error surfaces on ``.get()``.

        ``rank_table`` ships a rank-mode study's precomputed class
        summaries to the worker; pass the same table with every shard of
        the study.
        """
        return self._submit(
            _synthesise_task,
            (epoch, self._epoch_floor(), key, config, shard, rank_table),
            callback=callback, kind="synthesis", key=key)

    def submit_transpile(self, epoch: int, key: str,
                         config: TraceGeneratorConfig, shard: TranspileShard,
                         callback: Optional[Callable[[object], None]] = None):
        """Queue one transpile shard; returns a handle with ``.get()``.

        The worker transpiles each (family, width, machine) class
        representative of the shard at the study's ranking level and
        returns the ordered :class:`~repro.transpiler.cache.
        TranspileSummary` list.  Each summary is a pure function of its
        pair, so results are identical for any sharding.
        """
        return self._submit(
            _transpile_task,
            (epoch, self._epoch_floor(), key, config, shard),
            callback=callback, kind="transpile", key=key)

    def submit_simulation(self, epoch: int, key: str,
                          config: TraceGeneratorConfig, group: MachineGroup,
                          jobs: Sequence[Job],
                          callback: Optional[Callable[[object], None]] = None):
        """Queue one machine-group simulation; returns a ``.get()`` handle.

        The worker replays the group's machines through
        :func:`repro.cloud.fastsim.simulate_fleet` and returns the rows as
        :class:`~repro.workloads.trace.ShardColumns`.
        """
        return self._submit(
            _simulate_task,
            (epoch, self._epoch_floor(), key, config, group, jobs),
            callback=callback, kind="simulation", key=key)

    def close(self) -> None:
        """Drain outstanding work and release the workers (clean path)."""
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Kill the workers immediately (failure path: a task raised).

        ``close()`` would wait for every queued task to finish — after an
        exception that can hang the caller behind work whose results nobody
        will collect, so error paths must terminate instead.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()
        return False
