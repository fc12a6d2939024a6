"""The cloud service façade: submission, queueing, execution, completion.

:class:`QuantumCloudService` is the simulated counterpart of the IBM Quantum
cloud.  Clients (the examples, the dashboard) submit
:class:`~repro.cloud.job.Job` objects one at a time; the service queues them
per machine under fair-share ordering, delays them behind the machine's
external backlog, runs them through the execution-time model, and finishes
them with a DONE / ERROR / CANCELLED status.  Completed jobs retain all the
timestamps the analysis layer needs.

The service runs on the study runner's engine: each machine is a resumable
replay of :mod:`repro.cloud.fastsim`, seeded as
:func:`~repro.cloud.fastsim.simulate_fleet` seeds it, and advanced to the
clock by every operation.  Submitting jobs in ``(submit_time, job_id)``
order and draining therefore ends in ``simulate_fleet``'s job states, and
between operations every job, the clock and the queries show the state of
the discrete-event reference kept beside the tests.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional

from repro.cloud.backlog import ExternalLoadModel
from repro.cloud.execution_model import ExecutionTimeModel
from repro.cloud.fastsim import (
    FailureModel,
    _machine_streams,
    _replay,
    _validate,
)
from repro.cloud.job import Job, JobResult
from repro.cloud.provider import DEFAULT_PROVIDERS, Provider
from repro.core.exceptions import CloudError
from repro.devices.backend import Backend

__all__ = ["FailureModel", "QuantumCloudService"]


class QuantumCloudService:
    """An interactive quantum cloud over a machine fleet."""

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
        self._now = float(start_time)
        self._replays = {}
        self._load_models: Dict[str, ExternalLoadModel] = {}
        for name, (machine_rng, load_seed) in _machine_streams(
                seed, self.fleet).items():
            backend = self.fleet[name]
            replay = _replay(backend, machine_rng, load_seed, self.providers,
                             self.execution_model, self.failure_model)
            next(replay)
            self._replays[name] = replay
            self._load_models[name] = ExternalLoadModel(backend=backend,
                                                        seed=load_seed)
        #: each machine's queue length, as its replay last yielded it
        self._queued = dict.fromkeys(self.fleet, 0)
        #: every accepted job, by id, in submission order
        self._jobs: Dict[str, Job] = {}

    # -- public API -----------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def completed_jobs(self) -> List[Job]:
        """Terminal jobs by end time, ties in submission order."""
        return sorted((job for job in self._jobs.values()
                       if job.status.is_terminal),
                      key=attrgetter("end_time"))

    def provider_for(self, name: str) -> Provider:
        try:
            return self.providers[name]
        except KeyError:
            raise CloudError(f"unknown provider {name!r}") from None

    def submit(self, job: Job) -> Job:
        """Queue ``job`` at its submit time, which must not precede the clock."""
        name = self._machine(job.backend_name)
        if job.job_id in self._jobs:
            raise CloudError(f"job {job.job_id!r} was already submitted")
        _validate(job, self.fleet[name], self.providers, self._now)
        # Every other machine runs its events up to the submission; the
        # job's own machine runs them before queueing it and none after.
        self._advance(job.submit_time, skip=name)
        self._queued[name] = self._replays[name].send(([job], -math.inf))
        self._jobs[job.job_id] = job
        self._now = job.submit_time
        return job

    def run_until(self, time: float) -> None:
        """Advance the clock to ``time``, running every event up to it."""
        self._advance(time)
        self._now = max(self._now, time)

    def drain(self) -> List[Job]:
        """Run every remaining event and return all completed jobs."""
        self._advance(math.inf)
        self._now = max([self._now, *(job.end_time
                                      for job in self._jobs.values())])
        return self.completed_jobs

    def pending_jobs_estimate(self, backend_name: str, timestamp: float) -> float:
        """Expected pending-job count on a machine at ``timestamp`` (Fig. 9)."""
        name = self._machine(backend_name)
        return (self._load_models[name].mean_pending_jobs(timestamp)
                + self._queued[name])

    def utilization_of(self, backend_name: str, horizon: Optional[float] = None) -> float:
        """Fraction of wall-clock time the machine spent running studied jobs."""
        name = self._machine(backend_name)
        horizon = horizon if horizon is not None else max(self._now, 1e-9)
        if horizon <= 0:
            return 0.0
        busy_seconds = 0.0
        for job in self.completed_jobs:
            if job.backend_name == name and job.run_seconds:
                busy_seconds += job.run_seconds
        return min(1.0, busy_seconds / horizon)

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

    # -- internals --------------------------------------------------------------------

    def _machine(self, backend_name: str) -> str:
        if backend_name not in self._replays:
            raise CloudError(f"unknown backend {backend_name!r}")
        return backend_name

    def _advance(self, until: float, skip: Optional[str] = None) -> None:
        """Run every machine but ``skip`` to ``until``."""
        for name, replay in self._replays.items():
            if name != skip:
                self._queued[name] = replay.send(((), until))
