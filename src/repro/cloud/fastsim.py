"""The simulation engine: vectorised epochs, byte-identical traces.

This module is the only implementation of the cloud model (Section II-B):
per-machine fair-share queues behind an external backlog, the
execution-time model, and DONE / ERROR / CANCELLED outcomes.  Each machine
is a resumable replay (:func:`_replay`).  The study runner sends it a
machine's whole job block at once through :func:`simulate_fleet`, and
:class:`~repro.cloud.service.QuantumCloudService` sends it one submission
or one clock step at a time.  The replay runs without per-event machinery:

* **Pre-drawn RNG blocks.**  Every stochastic draw on the simulation path —
  backlog lognormal factors and idle coin-flips, failure coin-flips, cancel
  delays, execution jitter, error fractions — comes from four child streams
  of the machine's stream (``machine_rng.child("backlog"/"dispatch").child(
  "normal"/"uniform")``).  numpy generators produce the same underlying
  value sequence for any request chunking, so the replay can draw its own
  blocks of any ``block_size`` and still see bit-identical values.
* **Vectorised duration epochs.**  The deterministic part of every job's
  run time — the cumulative per-circuit overhead and shot-time sums of
  :class:`~repro.cloud.execution_model.ExecutionTimeModel` — is computed
  for a send's whole job block in one padded-matrix ``np.cumsum`` pass
  (sequential per row, hence bit-identical to the scalar loop), instead of
  one NumPy round-trip per dispatched job.  The dispatch then only applies
  the jitter factor to the pre-summed totals.
* **An inlined replay loop.**  Per-machine dynamics are independent of the
  rest of the fleet (each machine draws from its own spawned streams), so
  each machine is replayed on its own tiny ``(time, seq, kind, job)``
  tuple heap — no global store, no Event objects, no closures — with the
  backlog-model arithmetic and the fair-share pop inlined as straight-line
  scalar math (the exact operation sequence of the model methods; see the
  invariant notes in :func:`_replay`).

Its contract is *byte-identical traces*.  The discrete-event loop this
engine replaced stays beside the tests (``tests/eventloop.py``) as the
golden reference: ``tests/test_fastsim_golden.py`` proves that a study
simulated here has that engine's ``.npz`` bytes for every scenario
perturbation and any worker/shard count, and
``tests/test_service_interleaving.py`` that the service shows that
engine's state after every operation of an interleaved session.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, Generator, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.backlog import ExternalLoadModel
from repro.cloud.execution_model import ExecutionTimeModel
from repro.cloud.job import CircuitBatch, Job
from repro.cloud.provider import DEFAULT_PROVIDERS, Provider
from repro.core.exceptions import CloudError, DeviceError
from repro.telemetry import get_registry, get_tracer
from repro.core.rng import RandomSource
from repro.core.types import AccessLevel, JobStatus
from repro.core.units import DAY_SECONDS, MINUTE_SECONDS
from repro.devices.backend import Backend

__all__ = ["FailureModel", "expected_totals", "simulate_fleet",
           "simulate_machine"]

#: Event kinds of the per-machine replay heap.  Tuples compare as
#: ``(time, seq, ...)`` and ``seq`` is unique, so kinds never compare —
#: they exist purely to dispatch the handler.  Start and cancel events
#: reach the heap only when they fall after the send's ``until`` (rule 2
#: of :func:`_replay`); otherwise they are applied at dispatch time.
_DISPATCH = 0
_START = 1
_CANCEL = 2
_FINISH_DONE = 3
_FINISH_ERROR = 4


@dataclass(frozen=True)
class FailureModel:
    """Probabilities of the non-DONE terminal statuses (Fig. 2b)."""

    error_probability: float = 0.035
    cancel_probability: float = 0.018

    def __post_init__(self):
        total = self.error_probability + self.cancel_probability
        if not 0 <= total < 1:
            raise CloudError("failure probabilities must sum to less than 1")


#: Job blocks shorter than this take the per-job path of
#: :func:`expected_totals`: a block's padded matrices cost more than they
#: save below about 16 jobs, and an interactive submission is a block of one.
_MATRIX_MIN_JOBS = 16


def expected_totals(jobs: Sequence[Job], backend: Backend,
                    model: ExecutionTimeModel) -> np.ndarray:
    """Deterministic run-time totals for a machine's whole job block.

    One padded-matrix pass over every :class:`CircuitBatch` job of a block
    of at least :data:`_MATRIX_MIN_JOBS` replaces the per-job
    ``expected_breakdown`` calls of the scalar path.  Each row's
    ``np.cumsum`` reproduces the sequential left-to-right addition of the
    scalar path bit for bit (trailing zero padding is exact: ``s + 0.0 ==
    s`` for the non-negative terms), and the final ``(base +
    circuit_overhead) + shot_time`` keeps the association order of
    :class:`ExecutionTimeBreakdown.total`.
    """
    totals = np.empty(len(jobs), dtype=np.float64)
    base = backend.base_overhead_seconds
    per_circuit = backend.per_circuit_overhead_seconds
    per_shot = backend.per_shot_seconds
    rows: List[int] = []
    matrix = len(jobs) >= _MATRIX_MIN_JOBS
    for index, job in enumerate(jobs):
        if matrix and isinstance(job.circuits, CircuitBatch):
            rows.append(index)
        else:
            # Spec-list jobs (rare outside the synthesiser) and short
            # blocks keep the scalar reference path.
            totals[index] = model.expected_breakdown(job, backend).total
    if not rows:
        return totals
    rows_arr = np.asarray(rows)
    batches = [jobs[i].circuits for i in rows]
    sizes = np.array([batch.batch_size for batch in batches])
    base_w = np.array([float(b.base[0]) for b in batches])
    base_d = np.array([float(b.base[1]) for b in batches])
    # Python-float power and product per job, exactly like the scalar
    # ``job.shots ** alpha`` path (np.power may differ in the last ulp).
    shot_scale = np.array([(jobs[i].shots ** model.shots_exponent) * per_shot
                           for i in rows])
    # A batch is one base metric row repeated batch_size times with the
    # first num_variants rows overridden, so within a row every term past
    # the variants is the *same* float.  The per-circuit terms are
    # therefore computed on small vectors first — one base term per job,
    # one term per variant circuit — and only then broadcast into the
    # padded matrices.  Every op keeps the reference's IEEE sequence
    # (multiplications reordered only across exact commutations).
    base_overhead_term = base_w * 0.004
    base_overhead_term += 1.0
    base_overhead_term *= per_circuit
    base_shot_term = base_d / model.depth_reference
    base_shot_term *= 0.3
    base_shot_term += 1.0
    base_shot_term *= shot_scale
    # Batch sizes range from one circuit to several hundred, so padding
    # every row to the global maximum would multiply the element count
    # severalfold.  Rows are processed in size-sorted chunks instead, each
    # padded only to its own maximum, with a chunk boundary wherever the
    # size grows past 1.5x the chunk's smallest (padding stays bounded on
    # long-tailed mixes) and a row cap that bounds the buffers.
    order = np.argsort(sizes, kind="stable")
    sizes_sorted = sizes[order].tolist()
    row_cap = 512
    starts = [0]
    threshold = sizes_sorted[0] * 3 // 2 + 8
    start = 0
    for i in range(1, len(sizes_sorted)):
        if sizes_sorted[i] > threshold or i - start >= row_cap:
            starts.append(i)
            start = i
            threshold = sizes_sorted[i] * 3 // 2 + 8
    starts.append(len(sizes_sorted))
    # The variant terms are computed once on the flat concatenation (in
    # sorted-row order) and sliced per chunk.
    ordered_variants = [batches[i].variants for i in order]
    counts_all = np.array([v.shape[0] for v in ordered_variants])
    flat = np.concatenate(ordered_variants)
    bounds = np.concatenate(([0], np.cumsum(counts_all)))
    variant_scale = np.repeat(shot_scale[order], counts_all)
    flat_overhead = flat[:, 0] * 0.004
    flat_overhead += 1.0
    flat_overhead *= per_circuit
    flat_shot = flat[:, 1] / model.depth_reference
    flat_shot *= 0.3
    flat_shot += 1.0
    flat_shot *= variant_scale
    # One buffer per matrix, allocated for the widest chunk and sliced —
    # the loop itself allocates nothing matrix-sized.
    max_width = sizes_sorted[-1]
    max_rows = max(hi - lo for lo, hi in zip(starts, starts[1:]))
    valid_buf = np.empty((max_rows, max_width), dtype=bool)
    width_buf = np.empty((max_rows, max_width))
    depth_buf = np.empty((max_rows, max_width))
    for lo, hi in zip(starts, starts[1:]):
        pick = order[lo:hi]
        rows_n = hi - lo
        sub_sizes = sizes[pick]
        width = sizes_sorted[hi - 1]
        counts = counts_all[lo:hi]
        row_idx = np.repeat(np.arange(rows_n), counts)
        ends = np.cumsum(counts)
        col_idx = np.arange(int(ends[-1])) - np.repeat(ends - counts, counts)
        # ``valid * term`` builds each padded matrix in one pass straight
        # into the reused buffer: ``True * t == t`` and ``False * t ==
        # +0.0`` exactly (the terms are positive finite floats), and the
        # trailing zero padding is exact under the row cumsum
        # (``s + 0.0 == s``).  A fancy-indexed scatter then overrides the
        # variant cells and the in-place row cumsum reproduces the
        # sequential left-to-right addition bit for bit.
        valid = valid_buf[:rows_n, :width]
        np.greater.outer(sub_sizes, np.arange(width), out=valid)
        widths = width_buf[:rows_n, :width]
        np.multiply(valid, base_overhead_term[pick][:, None], out=widths)
        widths[row_idx, col_idx] = flat_overhead[bounds[lo]:bounds[hi]]
        np.cumsum(widths, axis=1, out=widths)
        depths = depth_buf[:rows_n, :width]
        np.multiply(valid, base_shot_term[pick][:, None], out=depths)
        depths[row_idx, col_idx] = flat_shot[bounds[lo]:bounds[hi]]
        np.cumsum(depths, axis=1, out=depths)
        totals[rows_arr[pick]] = (base + widths[:, -1]) + depths[:, -1]
    return totals


def _validate(job: Job, backend: Backend, providers: Dict[str, Provider],
              start_time: float) -> None:
    """The submission checks of a job for ``backend`` at clock ``start_time``."""
    provider = providers.get(job.provider)
    if provider is None:
        raise CloudError(f"unknown provider {job.provider!r}")
    if not backend.is_public and not provider.can_use_privileged:
        raise CloudError(
            f"provider {provider.name!r} cannot access privileged machine "
            f"{backend.name!r}"
        )
    try:
        backend.validate_job_shape(job.batch_size, job.shots)
    except DeviceError as exc:
        raise CloudError(str(exc)) from exc
    if job.submit_time < start_time:
        raise CloudError(
            f"job submitted at {job.submit_time} which is in the past "
            f"(clock is at {start_time})"
        )


def _validate_all(jobs: Sequence[Job], backend: Backend,
                  providers: Dict[str, Provider], start_time: float) -> None:
    """Screen every submission check in bulk; raise like the first submit.

    The happy path is a handful of vectorised comparisons; only when a
    check fails does the per-job reference path rerun to raise the exact
    error the first failing ``QuantumCloudService.submit`` would raise
    (``jobs`` is in submission order, so the first offender here is the
    first offender there).
    """
    privileged_blocked = not backend.is_public and any(
        not p.can_use_privileged for p in providers.values())
    seen = set()
    for job in jobs:
        name = job.provider
        if name not in seen:
            if name not in providers or (
                    privileged_blocked
                    and not providers[name].can_use_privileged):
                break
            seen.add(name)
    else:
        batch_sizes = np.array([len(job.circuits) for job in jobs])
        shots = np.array([job.shots for job in jobs])
        shape_ok = (
            bool(batch_sizes.size == 0)
            or (int(batch_sizes.min()) >= 1
                and int(batch_sizes.max()) <= backend.max_batch_size
                and int(shots.min()) >= 1
                and int(shots.max()) <= backend.max_shots)
        )
        # jobs are sorted by submit time, so only the head can be early.
        if shape_ok and (not jobs or jobs[0].submit_time >= start_time):
            return
    for job in jobs:
        _validate(job, backend, providers, start_time)


def _machine_streams(seed: int, names: Iterable[str]
                     ) -> Dict[str, Tuple[RandomSource, int]]:
    """``(machine_rng, load_seed)`` of each machine of a fleet simulated
    with ``seed``.

    Every machine draws from its own spawned stream, keyed only by (fleet
    seed, machine name), so per-machine dynamics are independent of the
    rest of the fleet and a sub-fleet simulation reproduces the whole-fleet
    one machine for machine.
    """
    service_rng = RandomSource(seed, name="cloud_service")
    load_rng = RandomSource(seed, "load")
    return {name: (service_rng.spawn(name), load_rng.child(name).seed or 0)
            for name in names}


def _replay(
    backend: Backend,
    machine_rng: RandomSource,
    load_seed: int,
    providers: Dict[str, Provider],
    execution_model: ExecutionTimeModel,
    failure_model: FailureModel,
    block_size: int = 1024,
) -> Generator[Tuple[int, float], Tuple[Sequence[Job], float], None]:
    """The resumable replay of one machine; prime it with ``next``.

    ``send((jobs, until))`` queues ``jobs`` in order, each after every
    event at or before its submission time, then runs the events at or
    before ``until``, and yields the machine's queue length (jobs queued
    and not yet dispatched) and the time of its next event (``inf`` when
    none is pending).  A send of no jobs with ``until`` before that time
    changes nothing, so a caller may skip it.  ``jobs`` must be sorted by
    ``(submit_time, job_id)`` — the submission order — and be validated,
    and none may precede a time the replay has already run to.  Three
    rules make a replay stopped at a clock show exactly the state of the
    event loop stopped there:

    1. The last submission of a send puts its dispatch on the heap instead
       of running it inline, as the event loop's ``submit`` schedules it:
       a query right after a submission counts the job as queued.
    2. A dispatch whose start or cancel falls after ``until`` pushes a
       start or cancel event instead of writing the job's fields.
    3. A send that carries a service submission passes ``until = -inf``,
       so it runs no event after that submission.

    A send with ``until = inf`` pays for none of them but one heap push.

    The loop body inlines the scalar arithmetic of
    :meth:`ExternalLoadModel.sample_pending_jobs` /
    :meth:`~ExternalLoadModel.sample_backlog_seconds`, the jitter factor
    of :meth:`ExecutionTimeModel.simulate_seconds` and the fair-share pop.
    Bit-exactness rests on three invariants, each exercised by the golden
    tests:

    * every inlined expression keeps the reference operation sequence
      (same ``math`` calls, same left-to-right association, precomputed
      constants only where the reference computes the same constant);
    * numpy generators are chunking-invariant, so drawing local blocks of
      any size yields the values one scalar draw at a time would;
    * fair-share entries of one provider are pushed in nondecreasing
      submission order, so the reference ``min`` over a provider's entries
      is its head and a deque ``popleft`` pops the identical job.
    """
    # -- per-machine constants (identical values to the reference models) --
    load = ExternalLoadModel(backend=backend, seed=load_seed)
    base_pending = load._base_pending
    pending_sigma = load.backlog_sigma * 0.6
    backlog_sigma = load.backlog_sigma
    pending_comp = load._pending_compensation
    backlog_comp = load._backlog_compensation
    idle_p = load._idle_p
    mean_job_seconds = load.mean_external_job_seconds
    discount = load.privileged_discount
    # A submission sees the discounted backlog when it is privileged or the
    # machine is not public — resolved per provider up front.
    discounted_of = {
        name: provider.access is AccessLevel.PRIVILEGED or not backend.is_public
        for name, provider in providers.items()
    }
    two_pi = 2.0 * math.pi
    week_seconds = 7 * DAY_SECONDS
    doubling = 420 * DAY_SECONDS
    idle_span = MINUTE_SECONDS - 0.0
    cancel_span = 3600.0 - 30.0
    error_span = 0.9 - 0.1
    sin = math.sin
    exp = math.exp

    jitter_sigma = execution_model.jitter_sigma
    cancel_p = failure_model.cancel_probability
    failure_p = cancel_p + failure_model.error_probability

    # -- fair-share queue state (push order == sorted order per provider) --
    # One flat row per provider, in the reference's sorted scan order, so
    # the per-dispatch fair-share scan touches no dicts: [name, deque of
    # (job, run-time total), share, consumed_seconds, discounted].
    provider_rows = [
        [name, deque(), providers[name].fair_share, 0.0, discounted_of[name]]
        for name in sorted(providers)
    ]
    row_of = {row[0]: row for row in provider_rows}
    queue_size = 0

    # -- local draw blocks (chunking-invariant: the scalar draws' values) --
    backlog_source = machine_rng.child("backlog")
    dispatch_source = machine_rng.child("dispatch")
    bn_gen = backlog_source.child("normal").generator
    bu_gen = backlog_source.child("uniform").generator
    dn_gen = dispatch_source.child("normal").generator
    du_gen = dispatch_source.child("uniform").generator
    bn: List[float] = []
    bu: List[float] = []
    dn: List[float] = []
    du: List[float] = []
    bn_i = bu_i = dn_i = du_i = 0

    queued = JobStatus.QUEUED
    running = JobStatus.RUNNING
    cancelled = JobStatus.CANCELLED
    done = JobStatus.DONE
    error = JobStatus.ERROR

    heap: List[tuple] = []
    seq = 0
    busy_until = 0.0
    mean_jobs = 0.0
    mean_jobs_at = None  # timestamp the cached mean_jobs was computed at

    while True:
        jobs, until = yield queue_size, heap[0][0] if heap else math.inf
        submit_index = 0
        total_jobs = len(jobs)
        if total_jobs:
            totals = expected_totals(jobs, backend, execution_model).tolist()
            next_submit = jobs[0].submit_time
        else:
            next_submit = until
        while True:
            if heap and heap[0][0] <= next_submit:
                # ``run_until(t)`` executes events with time <= t before
                # the submission at t, ties included — mirrored by the <=.
                now, _, kind, job = heappop(heap)
                if kind >= _FINISH_DONE:
                    job.status = done if kind == _FINISH_DONE else error
                    job.end_time = now
                    run_seconds = now - job.start_time
                    if run_seconds:
                        row_of[job.provider][3] += run_seconds
                    # The chained dispatch at ``now`` would be the very
                    # next pop (heap entries are >= now) unless another
                    # event shares its timestamp with a smaller sequence
                    # number, so the common case falls through to the
                    # dispatch code below and only the tie goes through
                    # the heap.
                    if heap and heap[0][0] <= now:
                        heappush(heap, (now, seq, _DISPATCH, None))
                        seq += 1
                        continue
                elif kind == _START:
                    job.status = running
                    job.start_time = now
                    continue
                elif kind == _CANCEL:
                    # The reference schedules the cancel and its chained
                    # dispatch back to back, so no event runs between them.
                    job.status = cancelled
                    job.end_time = now
            elif submit_index < total_jobs:
                job = jobs[submit_index]
                total = totals[submit_index]
                submit_index += 1
                next_submit = jobs[submit_index].submit_time \
                    if submit_index < total_jobs else until
                now = job.submit_time
                job.status = queued
                job.queue_enter_time = now
                # sample_pending_jobs(now, rng=backlog_draws):
                day_phase = two_pi * ((now % DAY_SECONDS) / DAY_SECONDS)
                week_phase = two_pi * ((now % week_seconds) / week_seconds)
                daily = 1.0 + 0.35 * sin(day_phase - 0.8)
                weekly = 1.0 + 0.15 * sin(week_phase)
                diurnal = daily * weekly
                if diurnal < 0.25:
                    diurnal = 0.25
                growth = 2.0 ** ((now if now > 0.0 else 0.0) / doubling)
                mean_jobs = base_pending * diurnal * growth
                if mean_jobs < 0.2:
                    mean_jobs = 0.2
                mean_jobs_at = now
                if bn_i == len(bn):
                    bn = bn_gen.standard_normal(block_size).tolist()
                    bn_i = 0
                sampled = mean_jobs * exp(0.0 + pending_sigma * bn[bn_i]) \
                    * pending_comp
                bn_i += 1
                job.pending_ahead = max(0, int(round(sampled))) + queue_size
                row_of[job.provider][1].append((job, total))
                queue_size += 1
                if submit_index == total_jobs:
                    # Rule 1: the dispatch waits on the heap for the clock.
                    heappush(heap, (now, seq, _DISPATCH, None))
                    seq += 1
                    continue
                # Otherwise the dispatch scheduled at the submission time
                # would be the heap minimum (the submit branch only runs
                # when every heap entry is strictly later), so it is the
                # next pop and runs inline by falling through.
            else:
                break
            # ---- dispatch at time ``now`` (popped, post-finish or
            # post-submit)
            if queue_size == 0:
                continue
            if busy_until > now + 1e-9:
                # Machine still busy; a dispatch is already scheduled
                # at its completion.
                continue
            best_row = None
            best_priority = 0.0
            for row in provider_rows:
                if row[1]:
                    priority = row[3] / row[2]
                    if best_row is None or priority < best_priority:
                        best_row = row
                        best_priority = priority
            job, run_seconds = best_row[1].popleft()
            queue_size -= 1
            # sample_backlog_seconds(now, access, rng=backlog_draws).
            # Conditionals replace the reference's max() calls: the
            # quantities are positive and finite, so the clamped
            # values are identical.  ``mean_jobs`` is a pure function of
            # ``now``, so the value the submit branch just computed is
            # reused when the dispatch runs at the same timestamp.
            if mean_jobs_at != now:
                day_phase = two_pi * ((now % DAY_SECONDS) / DAY_SECONDS)
                week_phase = two_pi * ((now % week_seconds) / week_seconds)
                daily = 1.0 + 0.35 * sin(day_phase - 0.8)
                weekly = 1.0 + 0.15 * sin(week_phase)
                diurnal = daily * weekly
                if diurnal < 0.25:
                    diurnal = 0.25
                growth = 2.0 ** ((now if now > 0.0 else 0.0) / doubling)
                mean_jobs = base_pending * diurnal * growth
                if mean_jobs < 0.2:
                    mean_jobs = 0.2
                mean_jobs_at = now
            if bn_i == len(bn):
                bn = bn_gen.standard_normal(block_size).tolist()
                bn_i = 0
            backlog = (mean_jobs * mean_job_seconds) \
                * exp(0.0 + backlog_sigma * bn[bn_i]) * backlog_comp
            bn_i += 1
            if best_row[4]:
                backlog *= discount
            if bu_i == len(bu):
                bu = bu_gen.random(block_size).tolist()
                bu_i = 0
            idle_draw = bu[bu_i]
            bu_i += 1
            if idle_draw < idle_p:
                if bu_i == len(bu):
                    bu = bu_gen.random(block_size).tolist()
                    bu_i = 0
                backlog = 0.0 + idle_span * bu[bu_i]
                bu_i += 1
            if backlog < 0.0:
                backlog = 0.0
            run_start = (now if now >= busy_until else busy_until) \
                + backlog
            # The terminal-status coin of the dispatch stream:
            if du_i == len(du):
                du = du_gen.random(block_size).tolist()
                du_i = 0
            draw = du[du_i]
            du_i += 1
            if draw < cancel_p:
                if du_i == len(du):
                    du = du_gen.random(block_size).tolist()
                    du_i = 0
                delay = 30.0 + cancel_span * du[du_i]
                du_i += 1
                cancel_at = now + min(backlog, delay)
                if cancel_at > until:
                    heappush(heap, (cancel_at, seq, _CANCEL, job))
                else:
                    # No event between now and cancel_at can observe the
                    # job (it left the queue), so the cancel is applied
                    # here and only the chained dispatch is scheduled.
                    job.status = cancelled
                    job.end_time = cancel_at
                    heappush(heap, (cancel_at, seq, _DISPATCH, None))
                seq += 1
                continue
            if jitter_sigma:
                if dn_i == len(dn):
                    dn = dn_gen.standard_normal(block_size).tolist()
                    dn_i = 0
                run_seconds *= exp(0.0 + jitter_sigma * dn[dn_i])
                dn_i += 1
            is_error = draw < failure_p
            if is_error:
                if du_i == len(du):
                    du = du_gen.random(block_size).tolist()
                    du_i = 0
                run_seconds *= 0.1 + error_span * du[du_i]
                du_i += 1
            run_end = run_start + run_seconds
            busy_until = run_end
            if run_start > until:
                heappush(heap, (run_start, seq, _START, job))
                seq += 1
            else:
                # The start only records fields nothing reads until the
                # finish handler, so it is applied here instead of
                # through the heap (the finish overwrites the status).
                job.status = running
                job.start_time = run_start
            heappush(heap, (run_end, seq,
                            _FINISH_ERROR if is_error else _FINISH_DONE,
                            job))
            seq += 1


def simulate_machine(
    backend: Backend,
    jobs: Sequence[Job],
    machine_rng: RandomSource,
    load_seed: int,
    *,
    providers: Optional[Dict[str, Provider]] = None,
    execution_model: Optional[ExecutionTimeModel] = None,
    failure_model: Optional[FailureModel] = None,
    start_time: float = 0.0,
    block_size: int = 1024,
) -> None:
    """Simulate one machine over pre-sorted ``jobs`` in place.

    ``jobs`` must be sorted by ``(submit_time, job_id)`` — the submission
    order of :class:`~repro.cloud.service.QuantumCloudService` — and none
    may precede ``start_time``.  They are validated in bulk and replayed
    in one send with ``until = inf`` (see :func:`_replay`), so every job
    ends in the terminal state (status, start/end times, pending_ahead)
    that submitting each in turn and draining would give it.
    """
    providers = dict(providers or DEFAULT_PROVIDERS)
    _validate_all(jobs, backend, providers, start_time)
    replay = _replay(backend, machine_rng, load_seed, providers,
                     execution_model or ExecutionTimeModel(),
                     failure_model or FailureModel(), block_size)
    next(replay)
    replay.send((jobs, math.inf))


def simulate_fleet(
    fleet: Dict[str, Backend],
    jobs: Sequence[Job],
    *,
    seed: int = 0,
    providers: Optional[Dict[str, Provider]] = None,
    execution_model: Optional[ExecutionTimeModel] = None,
    failure_model: Optional[FailureModel] = None,
    start_time: float = 0.0,
    block_size: int = 1024,
) -> List[Job]:
    """Simulate ``jobs`` over ``fleet`` machine by machine, in place.

    The batched counterpart of building a
    :class:`~repro.cloud.service.QuantumCloudService`, submitting every job
    in ``(submit_time, job_id)`` order and draining it: machines are
    seeded from the same spawned streams (:func:`_machine_streams`), so
    the terminal job states are identical byte for byte.  Returns the jobs
    in submission order.
    """
    if not fleet:
        raise CloudError("the fleet must contain at least one machine")
    providers = dict(providers or DEFAULT_PROVIDERS)
    execution_model = execution_model or ExecutionTimeModel()
    failure_model = failure_model or FailureModel()
    ordered = sorted(jobs, key=attrgetter("submit_time", "job_id"))
    by_machine: Dict[str, List[Job]] = {}
    for job in ordered:
        if job.backend_name not in fleet:
            raise CloudError(f"unknown backend {job.backend_name!r}")
        by_machine.setdefault(job.backend_name, []).append(job)
    streams = _machine_streams(seed, by_machine)
    tracer = get_tracer()
    for name, machine_jobs in by_machine.items():
        machine_rng, load_seed = streams[name]
        with tracer.span("sim.machine", machine=name,
                         jobs=len(machine_jobs), engine="batched"):
            simulate_machine(
                fleet[name],
                machine_jobs,
                machine_rng=machine_rng,
                load_seed=load_seed,
                providers=providers,
                execution_model=execution_model,
                failure_model=failure_model,
                start_time=start_time,
                block_size=block_size,
            )
    get_registry().counter(
        "repro_sim_jobs_total", engine="batched",
        help="Jobs simulated to a terminal state, by engine.").inc(
        len(ordered))
    return ordered
