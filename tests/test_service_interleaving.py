"""The interactive service equals the event-loop reference, operation by
operation.

:class:`~repro.cloud.service.QuantumCloudService` runs on the batched
replay of :mod:`repro.cloud.fastsim`; ``eventloop.py`` beside these tests
keeps the discrete-event engine it replaced.  A drawn session of
submissions, clock steps, drains and queries runs against both, and after
every operation they must agree on every job's state, the clock, each
query's answer, the drained list and every rejection message.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cloud.fastsim import FailureModel
from repro.cloud.job import CircuitBatch, CircuitSpec, Job
from repro.cloud.service import QuantumCloudService
from repro.core.exceptions import CloudError
from repro.core.types import JobStatus
from repro.devices import build_fleet
from eventloop import EventLoopService

SEED = 5

#: A privileged machine, the hosted simulator and a public machine; a
#: two-machine fleet takes the first two.
MACHINES = ("ibmq_casablanca", "ibmq_qasm_simulator", "ibmq_athens")
FLEETS = {size: build_fleet(list(MACHINES[:size]), seed=3)
          for size in (2, 3)}
FAILURE_MODELS = (None, FailureModel(0.0, 0.0), FailureModel(0.3, 0.3))

#: Job fields that define a job's state.
FIELDS = ("job_id", "status", "queue_enter_time", "start_time", "end_time",
          "pending_ahead")

#: ``run_until`` targets taken from a drained probe of the reference.
EVENT_KINDS = ("start", "end", "cancel")

_gaps = st.one_of(st.just(0.0), st.floats(1e-9, 1.0), st.floats(10.0, 3e5))
_machine = st.integers(0, len(MACHINES) - 1)
#: Mostly valid submissions; an unknown provider, an open provider on the
#: privileged machine and a 901-circuit batch are rejected.
_submit = st.tuples(
    st.just("submit"), _machine,
    st.sampled_from(["academic-hub"] * 3 + ["open"] * 2 + ["stranger"]),
    _gaps, st.sampled_from([1, 7, 7, 60, 60, 200, 901]),
    st.sampled_from([1, 1024, 8192]), st.booleans())
#: Each kind of operation, and how often a session draws it.
_STEPS = {
    "submit": _submit,
    "event": st.tuples(st.just("run_until"), st.sampled_from(EVENT_KINDS),
                       st.integers(0, 50)),
    "later": st.tuples(st.just("run_until"), st.just("later"), _gaps),
    "earlier": st.tuples(st.just("run_until"), st.just("earlier"),
                         st.floats(1e-6, 1e4)),
    "drain": st.tuples(st.just("drain")),
    "pending": st.tuples(st.just("pending"), _machine, st.floats(0.0, 1e5)),
    "utilization": st.tuples(st.just("utilization"), _machine,
                             st.one_of(st.none(), st.floats(0.0, 1e6))),
}
_WEIGHTS = {"submit": 6, "event": 3, "later": 2, "earlier": 1, "drain": 1,
            "pending": 2, "utilization": 1}
_operations = st.lists(
    st.sampled_from([kind for kind, weight in _WEIGHTS.items()
                     for _ in range(weight)]).flatmap(_STEPS.__getitem__),
    min_size=20, max_size=60)


def _job(job_id, machine, provider, submit_time, batch, shots, batched):
    """A fresh job; each side gets its own copy."""
    if batched:
        variants = np.array([[2, 6 + i, 10 + i, 3, 2]
                             for i in range(min(batch, 3))])
        circuits = CircuitBatch("c_2_", "c", batch, (2, 6, 10, 3, 2),
                                variants)
    else:
        circuits = [CircuitSpec(name="c", width=2, depth=6, num_gates=10,
                                cx_count=3, cx_depth=2)] * batch
    return Job(provider=provider, backend_name=machine, circuits=circuits,
               shots=shots, submit_time=submit_time, job_id=job_id)


class _Session:
    """One session played on the service and on the reference at once."""

    def __init__(self, size, failure_model):
        self.fleet = FLEETS[size]
        self.names = list(self.fleet)
        self.failure_model = failure_model
        self.service = self._build(QuantumCloudService)
        self.reference = self._build(EventLoopService)
        self.jobs = {self.service: [], self.reference: []}
        #: the state-changing operations so far, replayable on a probe
        self.history = []

    def _build(self, engine):
        return engine(self.fleet, seed=SEED,
                      failure_model=self.failure_model)

    def _both(self, operation):
        return [operation(side) for side in (self.service, self.reference)]

    def apply(self, operation, index):
        kind = operation[0]
        clock = self.reference.now
        if kind == "submit":
            _, machine, provider, gap, batch, shots, batched = operation
            spec = (f"job-{index:03d}", self.names[machine % len(self.names)],
                    provider, clock + gap, batch, shots, batched)
            outcomes = self._both(lambda side: self._submit(side, spec))
            assert outcomes[0] == outcomes[1]
        elif kind == "run_until":
            target = self._target(operation[1], operation[2], clock)
            self._both(lambda side: side.run_until(target))
            self.history.append(("run_until", target))
        elif kind == "drain":
            drained = self._both(lambda side: [job.job_id
                                               for job in side.drain()])
            assert drained[0] == drained[1]
            self.history.append(("drain",))
        elif kind == "pending":
            name = self.names[operation[1] % len(self.names)]
            estimates = self._both(lambda side: side.pending_jobs_estimate(
                name, clock + operation[2]))
            assert estimates[0] == estimates[1]
        else:
            name = self.names[operation[1] % len(self.names)]
            shares = self._both(lambda side: side.utilization_of(
                name, operation[2]))
            assert shares[0] == shares[1]
        self.check()

    def _submit(self, side, spec):
        """``None`` if ``side`` accepts the job, else its rejection."""
        job = _job(*spec)
        try:
            side.submit(job)
        except CloudError as exc:
            return str(exc)
        self.jobs[side].append(job)
        if side is self.reference:
            self.history.append(("submit", spec))
        return None

    def _target(self, kind, value, clock):
        if kind == "later":
            return clock + value
        if kind == "earlier":
            return clock - value
        times = self._future_event_times(kind, clock)
        return times[value % len(times)] if times else clock + 1.0

    def _future_event_times(self, kind, clock):
        """Start, end or cancel times the reference reaches after ``clock``
        if nothing more is submitted: replay the session on a fresh
        reference and drain it."""
        probe = self._build(EventLoopService)
        jobs = []
        for step in self.history:
            if step[0] == "submit":
                jobs.append(probe.submit(_job(*step[1])))
            elif step[0] == "run_until":
                probe.run_until(step[1])
            else:
                probe.drain()
        probe.drain()
        if kind == "start":
            times = [job.start_time for job in jobs
                     if job.start_time is not None]
        else:
            times = [job.end_time for job in jobs
                     if (job.status is JobStatus.CANCELLED)
                     == (kind == "cancel")]
        return sorted(time for time in times if time >= clock)

    def check(self):
        assert self.service.now == self.reference.now
        states = self._both(lambda side: [
            tuple(getattr(job, field) for field in FIELDS)
            for job in self.jobs[side]])
        assert states[0] == states[1]


@given(size=st.sampled_from([2, 3]),
       failure=st.sampled_from(range(len(FAILURE_MODELS))),
       operations=_operations)
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# A pending query right after a submission to an idle machine counts the
# job as queued: its dispatch waits for the next clock step.
@example(size=2, failure=0, operations=[
    ("submit", 1, "open", 5.0, 7, 1024, False), ("pending", 1, 0.0),
    ("run_until", "later", 0.0), ("pending", 1, 0.0)])
# Two providers submit to one machine at one instant.
@example(size=2, failure=0, operations=[
    ("submit", 1, "academic-hub", 10.0, 7, 1024, True),
    ("submit", 1, "open", 0.0, 60, 1024, False),
    ("submit", 1, "academic-hub", 0.0, 7, 1024, False),
    ("submit", 0, "open", 0.0, 7, 1024, False),
    ("pending", 1, 0.0), ("drain",)])
# The clock lands exactly on a start, an end and a cancel time.
@example(size=3, failure=2, operations=[
    *[("submit", machine, "academic-hub", 60.0, 7, 1024, False)
      for machine in (0, 1, 2, 0, 1, 2, 0, 1, 2)],
    ("run_until", "start", 0), ("pending", 0, 0.0),
    ("run_until", "end", 0), ("utilization", 1, None),
    ("run_until", "cancel", 0), ("pending", 2, 0.0), ("drain",)])
# A clock step earlier than the clock changes nothing.
@example(size=2, failure=0, operations=[
    ("submit", 1, "open", 100.0, 7, 1024, False),
    ("run_until", "earlier", 50.0), ("pending", 1, 0.0),
    ("submit", 1, "open", 0.0, 7, 1024, False)])
def test_service_equals_the_event_loop_after_every_operation(
        size, failure, operations):
    session = _Session(size, FAILURE_MODELS[failure])
    for index, operation in enumerate(operations):
        session.apply(operation, index)


def _service():
    return QuantumCloudService(build_fleet(["ibmq_athens"], seed=2), seed=2)


def test_a_submission_before_the_clock_is_rejected():
    """The clock is a strict bound: the reference allowed 1e-9 s of slack,
    which put the late job ahead of an earlier job of its provider."""
    service = _service()
    service.run_until(100.0)
    early = _job("job-early", "ibmq_athens", "open", 100.0 - 5e-10, 1, 1024,
                 False)
    with pytest.raises(CloudError, match="in the past"):
        service.submit(early)
    assert service.drain() == []


def test_a_job_cannot_be_submitted_twice():
    service = _service()
    job = _job("job-once", "ibmq_athens", "open", 10.0, 1, 1024, False)
    service.submit(job)
    with pytest.raises(CloudError, match="already submitted"):
        service.submit(job)
    assert [done.job_id for done in service.drain()] == ["job-once"]
