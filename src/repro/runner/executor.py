"""The parallel sharded study runner and the suite scheduler.

:func:`run_study` turns one
:class:`~repro.workloads.generator.TraceGeneratorConfig` into a merged
:class:`~repro.workloads.trace.TraceDataset` using a pool of worker
processes, in two embarrassingly parallel stages:

1. **Synthesis** — the submission plan is dealt round-robin across shards
   and each worker synthesises its shard's jobs.  Job randomness is keyed by
   global job index, so the synthesised jobs are identical for any shard or
   worker count.
2. **Simulation** — machines are packed into balanced groups and each worker
   replays its sub-fleet through the batched engine
   (:func:`~repro.cloud.fastsim.simulate_fleet`).  Every machine draws from
   its own spawned streams, so the merged per-machine dynamics equal a
   single whole-fleet simulation exactly.

:func:`run_suite` runs *many* studies on one
:class:`~repro.runner.pool.SharedWorkerPool`.  Each study is a sequence of
stages — plan, transpile (rank mode only), synthesis, simulation, merge —
and one fan-out/fan-in helper runs every pool stage: it queues the stage's
tasks, collects their results in item order, and when the last one lands
clocks the stage and starts the next.  No study waits behind another
study's synthesis in list order, and the pool is never idle behind a
phase barrier.  That one clock reading per stage is the study's phase
timing and, when tracing, its ``study.<phase>`` span.  Per-study worker
state is keyed by config fingerprint (see :mod:`repro.runner.pool`), which
keeps each study a pure function of its config: same seed in,
byte-identical trace out, no matter how the work was partitioned, which
studies ran alongside, or in what order shards landed.

Progress is observable as ``on_event``, a structured :class:`SuiteEvent`
stream (shards completed / total, wall-clock ETA, per-study completions)
that the CLI prints and the study-service gateway forwards to its NDJSON
job streams.  Events may fire on the pool's result-handler thread;
handlers must be quick, thread-safe and must never raise.

Simulation workers return their rows already columnar
(:class:`~repro.workloads.trace.ShardColumns`), and the merge is pure
array work — vocabulary union, code remap and one stable lexsort by
``(submit_time, job_id)`` — so shard results never round-trip through
row objects.  Results are memoised on disk through
:class:`~repro.runner.cache.TraceCache`; under an active memory budget the
merged dataset is chunked into governed column blocks (see
:mod:`repro.workloads.blocks`) that spill past the budget.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.job import Job
from repro.core.exceptions import WorkloadError
from repro.runner.cache import TraceCache, config_fingerprint
from repro.runner.pool import SharedWorkerPool, default_workers
from repro.runner.sharding import (
    MachineGroup,
    ShardSpec,
    plan_machine_groups,
    plan_shards,
    plan_transpile_shards,
)
from repro.telemetry import get_registry, get_tracer
from repro.transpiler.cache import (
    DEFAULT_RANK_SEED,
    TranspileCache,
    TranspileSummary,
    backend_fingerprint,
    transpile_cache_key,
)
from repro.workloads.circuit_metrics import class_fingerprint
from repro.workloads.generator import (
    TraceGeneratorConfig,
    plan_submissions,
    plan_transpile_classes,
)
from repro.workloads.transpile_classes import ClassRankTable, TranspilePair
from repro.workloads.trace import (
    TRACE_SCHEMA_VERSION,
    ShardColumns,
    TraceDataset,
    merge_shard_columns,
)

__all__ = [
    "EventCallback",
    "StudyResult",
    "SuiteCancelled",
    "SuiteEvent",
    "default_workers",
    "run_study",
    "run_suite",
]

#: A study's phases in stage order; ``StudyResult.timings`` adds "total".
PHASES = ("plan", "transpile", "synthesis", "simulation", "merge")


class SuiteCancelled(WorkloadError):
    """Raised by :func:`run_suite` when its ``should_stop`` hook fires."""


@dataclass(frozen=True)
class SuiteEvent:
    """One structured progress event of a :func:`run_suite` call.

    ``completed`` / ``total`` count pool tasks (synthesis shards plus
    simulation groups) across the whole suite; ``total`` grows as each
    study's simulation groups are planned, so early ETAs are lower bounds.
    ``key`` is the study fingerprint the event belongs to (None for
    suite-wide events).
    """

    kind: str                      # queued | cache-hit | shard-done |
    #                              # transpile-queued | rank-table |
    #                              # sims-queued | study-done | suite-done
    key: Optional[str] = None
    phase: Optional[str] = None    # transpile | synthesis | simulation
    completed: int = 0
    total: int = 0
    elapsed_seconds: float = 0.0
    eta_seconds: Optional[float] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "completed": self.completed,
            "total": self.total,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }
        if self.key is not None:
            payload["study"] = self.key
        if self.phase is not None:
            payload["phase"] = self.phase
        if self.eta_seconds is not None:
            payload["eta_seconds"] = round(self.eta_seconds, 3)
        if self.detail:
            payload.update(self.detail)
        return payload


EventCallback = Callable[[SuiteEvent], None]


class _SuiteTracker:
    """Thread-safe shard accounting + event emission for one suite run."""

    def __init__(self, on_event: Optional[EventCallback]):
        self._on_event = on_event
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.completed = 0
        self.total = 0
        self.closed = False

    def add_tasks(self, count: int) -> None:
        with self._lock:
            self.total += count

    def close(self) -> None:
        """Silence late events (tasks abandoned after cancel/failure)."""
        with self._lock:
            self.closed = True

    def emit(self, kind: str, key: Optional[str] = None,
             phase: Optional[str] = None, task_done: bool = False,
             **detail: object) -> None:
        with self._lock:
            if self.closed:
                return
            if task_done:
                self.completed += 1
            completed, total = self.completed, self.total
        if self._on_event is None:
            return
        elapsed = time.perf_counter() - self._started
        eta = None
        if 0 < completed <= total:
            eta = elapsed / completed * (total - completed)
        event = SuiteEvent(
            kind=kind, key=key, phase=phase, completed=completed,
            total=total, elapsed_seconds=elapsed, eta_seconds=eta,
            detail=dict(detail))
        try:
            self._on_event(event)
        except Exception:
            # Event handlers run on the pool's result-handler thread;
            # a raising handler must never take the scheduler down.
            pass


@dataclass
class StudyResult:
    """The handle every study execution returns: a dataset reference, its
    content fingerprint, and how it was produced.

    :func:`run_study`, :func:`run_suite` and each scenario of
    :func:`~repro.scenarios.engine.run_scenarios` all surface this one
    shape — consumers hold the handle (``trace`` / ``fingerprint`` /
    ``metadata``) instead of bare datasets and loose keys.
    """

    trace: TraceDataset
    config: TraceGeneratorConfig
    workers: int
    num_shards: int
    cache_key: str
    cache_hit: bool = False
    cache_path: Optional[Path] = None
    timings: Dict[str, float] = field(default_factory=dict)
    shard_sizes: List[int] = field(default_factory=list)
    group_sizes: List[int] = field(default_factory=list)
    #: rank-mode amortisation accounting — ``probes`` (per-job rankings a
    #: naive implementation would each transpile for), ``pairs`` (classes
    #: actually transpiled), ``warm``/``cold`` (served from the transpile
    #: cache vs computed this run).  Empty for trace-level-policy studies.
    transpile: Dict[str, int] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """The study's config fingerprint — also its trace-cache key."""
        return self.cache_key

    @property
    def metadata(self) -> Dict[str, object]:
        """Provenance: the trace's metadata plus how this run produced it."""
        payload = {
            **dict(self.trace.metadata),
            "fingerprint": self.fingerprint,
            "workers": self.workers,
            "shards": self.num_shards,
            "cache_hit": self.cache_hit,
            "phase_seconds": {name: round(value, 6)
                              for name, value in sorted(self.timings.items())},
        }
        if self.transpile:
            payload["transpile"] = dict(self.transpile)
        return payload

    @property
    def total_seconds(self) -> float:
        return self.timings.get("total", 0.0)

    def summary(self) -> Dict[str, object]:
        return {
            "jobs": len(self.trace),
            "fingerprint": self.fingerprint,
            "workers": self.workers,
            "shards": self.num_shards,
            "cache_hit": self.cache_hit,
            **{f"{name}_seconds": round(value, 3)
               for name, value in sorted(self.timings.items())},
        }


@dataclass
class _Study:
    """One cache-missed study moving through its stages."""

    key: str
    config: TraceGeneratorConfig
    started: float
    #: where the running stage's interval starts: the end of the stage
    #: before it (plan starts once the cache lookup missed)
    lap: float = field(default_factory=time.perf_counter)
    timings: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    shards: List[ShardSpec] = field(default_factory=list)
    groups: List[MachineGroup] = field(default_factory=list)
    transpile: Dict[str, int] = field(default_factory=dict)
    columns: List[ShardColumns] = field(default_factory=list)
    error: Optional[BaseException] = None
    #: set when the simulation stage completes or the study fails
    done: threading.Event = field(default_factory=threading.Event)

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error
        self.done.set()


def _probe_transpile_cache(
        pairs: Sequence[TranspilePair],
        fleet: Dict[str, object],
        config: TraceGeneratorConfig,
        transpile_cache: Optional[TranspileCache],
) -> Tuple[List[TranspileSummary], List[TranspilePair]]:
    """Split a rank study's pairs into (warm summaries, cold pairs).

    Probing happens in the parent so cold work — not the whole pair list —
    is what gets sharded across the pool; the cache's own hit/miss
    counters account the probes.
    """
    if transpile_cache is None:
        return [], list(pairs)
    level = config.scenario.ranking_level
    machine_fps: Dict[str, str] = {}
    warm: List[TranspileSummary] = []
    cold: List[TranspilePair] = []
    for family, width, machine in pairs:
        machine_fp = machine_fps.get(machine)
        if machine_fp is None:
            machine_fp = backend_fingerprint(fleet[machine])
            machine_fps[machine] = machine_fp
        key = transpile_cache_key(class_fingerprint(family, width),
                                  machine_fp, level, DEFAULT_RANK_SEED)
        summary = transpile_cache.get(key)
        if summary is None:
            cold.append((family, width, machine))
        else:
            warm.append(summary)
    return warm, cold


class _Pipeline:
    """The stages of one :func:`run_suite` call on its pool.

    Each cache-missed study runs plan → transpile (rank mode only) →
    synthesis → simulation on :meth:`_fan_out`, each stage started by the
    completion of the one before — on the calling thread, the pool's
    result-handler thread, or inline for a one-worker pool — and then
    merges on the calling thread in :meth:`collect`.
    """

    def __init__(self, pool: SharedWorkerPool, tracker: _SuiteTracker,
                 shards_per_study: int,
                 transpile_cache: Optional[TranspileCache]):
        self.pool = pool
        self.epoch = pool.next_epoch()
        self.tracker = tracker
        self.tracer = get_tracer()
        self.shards_per_study = shards_per_study
        self.transpile_cache = transpile_cache

    def _clock(self, study: _Study, phase: str, **args: object) -> None:
        """End ``phase`` now: the one measurement of its interval becomes
        the study's timing and, when tracing, its ``study.<phase>`` span.

        The spans go on a track of the study's own (``tid``), so that the
        stages of studies in flight together never overlap on one
        thread's track.
        """
        now = time.perf_counter()
        study.timings[phase] = now - study.lap
        self.tracer.record_span(f"study.{phase}", start=study.lap,
                                duration=now - study.lap,
                                args={"study": study.key, **args},
                                tid=id(study))
        study.lap = now

    def _fan_out(self, study: _Study, phase: str, submit: Callable,
                 items: Sequence[Tuple], then: Callable[[List], None],
                 counted: Optional[str] = None) -> None:
        """Run one stage: a pool task per item, results in item order.

        ``submit`` is the pool's ``submit_<phase>`` and each item holds the
        task's arguments after the study's epoch, key and config.  When
        the last task lands (at once for no items) the stage is clocked
        and ``then(results)`` starts the next one.  A task error fails the
        study with that exception; an error in ``then`` fails it with a
        :class:`WorkloadError` that names the study.  ``counted`` names
        the size a ``shard-done`` event reports for a task's result.
        """
        results: List[object] = [None] * len(items)
        remaining = [len(items)]
        lock = threading.Lock()

        def complete() -> None:
            try:
                self._clock(study, phase, tasks=len(results))
                then(results)
            except Exception as exc:
                error = WorkloadError(
                    f"scheduling study {study.key} failed: {exc}")
                error.__cause__ = exc
                study.fail(error)

        def landed(index: int, value) -> None:
            results[index] = value
            with lock:
                remaining[0] -= 1
                last = remaining[0] == 0
            self.tracker.emit(
                "shard-done", key=study.key, phase=phase, task_done=True,
                **({counted: len(value)} if counted else {}))
            # A failed study or a finished suite chains no more work.
            if last and study.error is None and not self.tracker.closed:
                complete()

        if not items:
            complete()
        for index, args in enumerate(items):
            submit(self.epoch, study.key, study.config, *args,
                   on_done=functools.partial(landed, index),
                   on_error=study.fail)

    def start(self, key: str, config: TraceGeneratorConfig,
              started: float) -> _Study:
        """Plan a study on the calling thread and start its first stage."""
        study = _Study(key, config, started)
        submissions = plan_submissions(config)
        study.shards = plan_shards(config, submissions,
                                   self.shards_per_study)
        self._clock(study, "plan")
        if (config.scenario is not None
                and config.scenario.ranking_objective is not None):
            self._transpile(study)
        else:
            self._synthesise(study, None)
        return study

    def _transpile(self, study: _Study) -> None:
        """Rank mode: serve warm class pairs from the transpile cache and
        shard the cold ones across the pool."""
        with self.tracer.span("study.transpile-plan", study=study.key):
            fleet = study.config.build_fleet()
            pairs, class_stats = plan_transpile_classes(study.config, fleet)
            warm, cold = _probe_transpile_cache(
                pairs, fleet, study.config, self.transpile_cache)
        study.transpile = {**class_stats, "warm": len(warm),
                           "cold": len(cold)}
        shards = plan_transpile_shards(cold, self.shards_per_study)
        if shards:
            self.tracker.add_tasks(len(shards))
            self.tracker.emit("transpile-queued", key=study.key,
                              phase="transpile", shards=len(shards),
                              pairs=len(cold), cached=len(warm))
        self._fan_out(
            study, "transpile", self.pool.submit_transpile,
            [(shard,) for shard in shards],
            lambda computed: self._synthesise(
                study, self._rank_table(study, warm, computed)),
            counted="pairs")

    def _rank_table(self, study: _Study, warm: List[TranspileSummary],
                    shard_summaries: List[List[TranspileSummary]]
                    ) -> ClassRankTable:
        """Cache the computed class summaries and merge them with the warm
        ones.  The table is sorted by (family, width, machine), so it is
        identical for any shard count, completion order or warm/cold
        split — which is what keeps cached and uncached rankings
        byte-equal."""
        computed = [summary for summaries in shard_summaries
                    for summary in summaries]
        if self.transpile_cache is not None:
            for summary in computed:
                self.transpile_cache.put(
                    transpile_cache_key(summary.class_fingerprint,
                                        summary.backend_fingerprint,
                                        summary.level, summary.seed),
                    summary)
        # Metrics are recorded parent-side: worker-registry increments die
        # with the worker, but the summaries carry the pass timings home.
        registry = get_registry()
        registry.counter(
            "repro_transpile_classes_total", outcome="computed",
            help="Equivalence-class transpiles of rank-mode studies, by "
                 "whether the summary was computed or served from the "
                 "transpile cache.").inc(len(computed))
        registry.counter(
            "repro_transpile_classes_total",
            outcome="cache-hit").inc(len(warm))
        for summary in computed:
            for pass_name, seconds in summary.pass_timings:
                registry.histogram(
                    "repro_transpile_pass_seconds",
                    help="Wall-clock seconds per transpiler pass across "
                         "rank-mode class transpiles.",
                    **{"pass": pass_name}).observe(seconds)
        summaries = sorted(computed + warm,
                           key=lambda s: (s.family, s.width, s.machine))
        self.tracker.emit("rank-table", key=study.key, phase="transpile",
                          entries=len(summaries), computed=len(computed),
                          cached=len(warm))
        scenario = study.config.scenario
        return ClassRankTable(objective=scenario.ranking_objective,
                              level=scenario.ranking_level,
                              summaries=summaries)

    def _synthesise(self, study: _Study,
                    rank_table: Optional[ClassRankTable]) -> None:
        self.tracker.add_tasks(len(study.shards))
        self.tracker.emit("queued", key=study.key, shards=len(study.shards),
                          submissions=sum(map(len, study.shards)))
        self._fan_out(
            study, "synthesis", self.pool.submit_synthesis,
            [(shard, rank_table) for shard in study.shards],
            lambda shard_jobs: self._simulate(study, shard_jobs),
            counted="jobs")

    def _simulate(self, study: _Study,
                  shard_jobs: List[List[Job]]) -> None:
        """Group the jobs by machine and simulate each machine group.

        The jobs are taken in *shard order*, so the grouping — and every
        simulation input — is independent of shard completion order.
        """
        jobs_by_machine: Dict[str, List[Job]] = {}
        for jobs in shard_jobs:
            for job in jobs:
                jobs_by_machine.setdefault(job.backend_name, []).append(job)
        study.groups = plan_machine_groups(
            {name: len(jobs) for name, jobs in jobs_by_machine.items()},
            self.pool.workers)
        self.tracker.add_tasks(len(study.groups))
        self.tracker.emit("sims-queued", key=study.key, phase="simulation",
                          jobs=sum(map(len, shard_jobs)),
                          groups=len(study.groups))

        def simulated(columns: List[ShardColumns]) -> None:
            study.columns = columns
            study.done.set()

        self._fan_out(
            study, "simulation", self.pool.submit_simulation,
            [(group, [job for name in group.machines
                      for job in jobs_by_machine[name]])
             for group in study.groups],
            simulated)

    def collect(self, study: _Study,
                cache: Optional[TraceCache]) -> StudyResult:
        """Wait for a study's stages, then merge it on the calling thread."""
        study.done.wait()
        if study.error is not None:
            raise study.error
        with self.tracer.timed("study.merge", study=study.key) as timer:
            total_rows = sum(part.rows for part in study.columns)
            trace = merge_shard_columns(study.columns, metadata={
                "seed": study.config.seed,
                "total_jobs": total_rows,
                "months": study.config.months,
                "trace_schema": TRACE_SCHEMA_VERSION,
            })
            cache_path = (cache.put(study.key, trace)
                          if cache is not None else None)
        study.timings["merge"] = timer.seconds
        for phase, seconds in study.timings.items():
            get_registry().counter(
                "repro_runner_phase_seconds_total", phase=phase,
                help="Cumulative wall-clock seconds spent per study "
                     "phase across every run_suite call.").inc(seconds)
        result = StudyResult(
            trace=trace,
            config=study.config,
            workers=self.pool.workers,
            num_shards=self.shards_per_study,
            cache_key=study.key,
            cache_path=cache_path,
            timings={**study.timings,
                     "total": time.perf_counter() - study.started},
            shard_sizes=[len(shard) for shard in study.shards],
            group_sizes=[group.expected_jobs for group in study.groups],
            transpile=dict(study.transpile),
        )
        self.tracker.emit("study-done", key=study.key, jobs=total_rows,
                          seconds=round(result.total_seconds, 3))
        return result


def run_suite(
    studies: Sequence[Tuple[str, TraceGeneratorConfig]],
    pool: Optional[SharedWorkerPool] = None,
    *,
    num_shards: Optional[int] = None,
    cache: Optional[Union[TraceCache, str, Path]] = None,
    on_event: Optional[EventCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Dict[str, StudyResult]:
    """Run many distinct studies as one interleaved queue on a shared pool.

    ``studies`` is an ordered sequence of ``(fingerprint, config)`` pairs
    with distinct fingerprints (deduplicate identical expansions first —
    :func:`~repro.scenarios.engine.run_scenarios` does).  Cache hits are
    served immediately; every miss is planned and its first stage queued
    up front, and each later stage is queued the moment the one before it
    completes, so the pool is never idle behind a per-study phase barrier
    or the submission order of the suite.  Returns a dict keyed by
    fingerprint, in ``studies`` order.

    Each study's ``timings`` hold one interval per stage (plan, transpile,
    synthesis, simulation, merge): a pool stage runs from the end of the
    stage before it to its last task landing, for any worker count.

    ``on_event`` receives structured :class:`SuiteEvent`s (shards
    completed / total with a wall-clock ETA, per-study completions) —
    possibly from the pool's result-handler thread.  ``should_stop`` is
    polled between studies; when it returns True the run raises
    :class:`SuiteCancelled` (outstanding pool tasks finish in the
    background and are discarded — the shared pool itself is untouched).
    A failed study ends the run the same way, with its error, and no
    study is started after it.

    With ``pool=None`` a transient pool of :func:`default_workers` workers
    is created for the call (terminated, not joined, if a task fails).
    ``num_shards`` (default: the pool width) is the task count of each
    study's synthesis stage.

    Rank-mode studies (``scenario.ranking_objective`` set) run an extra
    **transpile** stage first: the study's cold equivalence-class pairs
    are sharded across ``num_shards`` pool tasks too, warm pairs come from
    the :class:`~repro.transpiler.cache.TranspileCache` over the trace
    cache's own :class:`~repro.core.cacheroot.CacheRoot`, and the merged
    :class:`~repro.workloads.transpile_classes.ClassRankTable` ships with
    every synthesis shard.  Sharding and caching here are runtime knobs —
    the trace is byte-identical with any shard count, cold or warm.
    """
    keys = [key for key, _ in studies]
    if len(set(keys)) != len(keys):
        raise WorkloadError(
            "run_suite requires distinct study fingerprints; deduplicate "
            "identical configs before scheduling them")
    if cache is not None and not isinstance(cache, TraceCache):
        cache = TraceCache(cache)
    if pool is None:
        with SharedWorkerPool(default_workers()) as transient:
            return run_suite(
                studies, transient, num_shards=num_shards, cache=cache,
                on_event=on_event, should_stop=should_stop)

    studies_counter = get_registry().counter(
        "repro_runner_studies_total", outcome="simulated",
        help="Studies executed by run_suite, by outcome.")
    cache_hit_counter = get_registry().counter(
        "repro_runner_studies_total", outcome="cache-hit")
    tracker = _SuiteTracker(on_event)
    pipeline = _Pipeline(
        pool, tracker,
        shards_per_study=max(1, int(num_shards if num_shards is not None
                                    else pool.workers)),
        transpile_cache=(TranspileCache(cache.cache_root)
                         if cache is not None else None))
    tracer = pipeline.tracer
    results: Dict[str, StudyResult] = {}
    pending: List[_Study] = []

    def _check_stop():
        if should_stop is not None and should_stop():
            raise SuiteCancelled("suite run cancelled")
        for study in pending:
            if study.error is not None:
                raise study.error

    try:
        for key, config in studies:
            _check_stop()
            started = time.perf_counter()
            cached = cache.get(key) if cache is not None else None
            if cached is None:
                studies_counter.inc()
                pending.append(pipeline.start(key, config, started))
                continue
            tracker.emit("cache-hit", key=key, jobs=len(cached))
            cache_hit_counter.inc()
            # A cache hit still reports every phase — at zero cost — so
            # suite-level --profile-phases output stays uniform; the
            # zero-duration spans mark the skipped work in the trace view.
            now = time.perf_counter()
            tracer.instant("study.cache-hit", study=key, jobs=len(cached))
            for phase in PHASES:
                tracer.record_span(
                    f"study.{phase}", start=now, duration=0.0,
                    args={"study": key, "cache_hit": True})
            results[key] = StudyResult(
                trace=cached,
                config=config,
                workers=pool.workers,
                num_shards=pipeline.shards_per_study,
                cache_key=key,
                cache_hit=True,
                cache_path=cache.existing_path_for(key),
                timings={**dict.fromkeys(PHASES, 0.0),
                         "total": time.perf_counter() - started},
            )

        for study in pending:
            _check_stop()
            results[study.key] = pipeline.collect(study, cache)

        tracker.emit("suite-done", studies=len(studies),
                     cache_hits=sum(1 for r in results.values()
                                    if r.cache_hit))
        return {key: results[key] for key, _ in studies}
    finally:
        # Abandoned tasks (cancel / worker failure) may still complete on
        # the shared pool; silence their late events, chain no more
        # stages, and let the epoch's worker state become evictable.
        tracker.close()
        pool.release_epoch(pipeline.epoch)


def run_study(
    total_jobs: int = 6000,
    months: Optional[int] = None,
    seed: int = 7,
    *,
    config: Optional[TraceGeneratorConfig] = None,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    cache_dir: Optional[Union[TraceCache, str, Path]] = None,
    pool: Optional[SharedWorkerPool] = None,
    on_event: Optional[EventCallback] = None,
) -> StudyResult:
    """Run one study config through :func:`run_suite`.

    Either pass an explicit ``config`` or the common scalar knobs
    (``total_jobs`` / ``months`` / ``seed``).  Pass ``pool`` to schedule
    onto a long-lived :class:`~repro.runner.pool.SharedWorkerPool`;
    without one, a transient pool of ``workers`` processes runs the study
    and is terminated — not joined — if a task fails.  ``num_shards``
    defaults to the pool width.  ``cache_dir`` is a directory or a
    :class:`~repro.runner.cache.TraceCache`; without one nothing is
    cached.
    """
    if config is None:
        kwargs: Dict[str, object] = {"total_jobs": total_jobs, "seed": seed}
        if months is not None:
            kwargs["months"] = months
        config = TraceGeneratorConfig(**kwargs)
    key = config_fingerprint(config)
    with (nullcontext(pool) if pool is not None
          else SharedWorkerPool(workers)) as active:
        return run_suite([(key, config)], active, num_shards=num_shards,
                         cache=cache_dir, on_event=on_event)[key]
