"""The cloud service façade: submission, queueing, execution, completion.

:class:`QuantumCloudService` is the simulated counterpart of the IBM Quantum
cloud.  Clients (the examples, the schedulers) submit
:class:`~repro.cloud.job.Job` objects; the service queues them per
machine under fair-share ordering, delays them behind the machine's external
backlog, runs them through the execution-time model, and finishes them with
a DONE / ERROR / CANCELLED status.  Completed jobs retain all the timestamps
the analysis layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cloud.backlog import ExternalLoadModel
from repro.cloud.calibration_cycle import CalibrationCrossoverDetector
from repro.cloud.events import EventQueue
from repro.cloud.execution_model import ExecutionTimeModel
from repro.cloud.job import Job, JobResult
from repro.cloud.provider import DEFAULT_PROVIDERS, Provider
from repro.cloud.queues import FairShareQueue
from repro.core.exceptions import CloudError, DeviceError
from repro.core.rng import BufferedDraws, RandomSource
from repro.core.types import JobStatus
from repro.devices.backend import Backend
from repro.telemetry import get_registry, get_tracer


@dataclass
class _MachineState:
    """Mutable per-machine simulation state."""

    backend: Backend
    queue: FairShareQueue
    load_model: ExternalLoadModel
    rng: RandomSource
    #: block-buffered draws feeding the backlog sampling (the hot path of the
    #: event loop): the lognormal factors and idle checks are pre-drawn in
    #: vectorised blocks per machine instead of one scalar call per event.
    backlog_draws: BufferedDraws = None  # type: ignore[assignment]
    #: block-buffered draws feeding the dispatch path (failure coin-flips,
    #: cancel delays, execution jitter, error fractions) — every stochastic
    #: draw on the simulation path comes from a pre-drawn block stream, so
    #: the batched engine (:mod:`repro.cloud.fastsim`) can consume the very
    #: same values in the very same order.
    dispatch_draws: BufferedDraws = None  # type: ignore[assignment]
    busy_until: float = 0.0
    jobs_completed: int = 0
    busy_seconds: float = 0.0


@dataclass(frozen=True)
class FailureModel:
    """Probabilities of the non-DONE terminal statuses (Fig. 2b)."""

    error_probability: float = 0.035
    cancel_probability: float = 0.018

    def __post_init__(self):
        total = self.error_probability + self.cancel_probability
        if not 0 <= total < 1:
            raise CloudError("failure probabilities must sum to less than 1")


class QuantumCloudService:
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
            # (service seed, machine name).  Per-machine dynamics are then
            # independent of the rest of the fleet, so a simulation sharded
            # across sub-fleet services reproduces the single-service run
            # machine for machine.
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
        self.crossover_detector = CalibrationCrossoverDetector(self.fleet)

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
        completed_before = len(self._completed)
        with get_tracer().span("sim.drain", machines=len(self._machines),
                               engine="event"):
            self.events.run_all()
        get_registry().counter(
            "repro_sim_jobs_total", engine="event",
            help="Jobs simulated to a terminal state, by engine.").inc(
            len(self._completed) - completed_before)
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
