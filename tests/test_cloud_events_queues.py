"""Tests for the discrete-event engine and the machine queues."""

import pytest

from repro.cloud.job import CircuitSpec, Job
from repro.core.exceptions import CloudError
from eventloop import EventQueue, FairShareQueue, FifoQueue


def _job(provider: str, submit_time: float = 0.0, batch: int = 1) -> Job:
    spec = CircuitSpec(name="c", width=2, depth=4, num_gates=6, cx_count=2,
                       cx_depth=2)
    return Job(provider=provider, backend_name="ibmq_athens",
               circuits=[spec] * batch, shots=1024, submit_time=submit_time)


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5.0, lambda: order.append("late"))
        queue.schedule(1.0, lambda: order.append("early"))
        queue.run_all()
        assert order == ["early", "late"]
        assert queue.now == 5.0

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: order.append("first"))
        queue.schedule(1.0, lambda: order.append("second"))
        queue.run_all()
        assert order == ["first", "second"]

    def test_run_until_stops_at_boundary(self):
        queue = EventQueue()
        order = []
        queue.schedule(1.0, lambda: order.append(1))
        queue.schedule(3.0, lambda: order.append(3))
        executed = queue.run_until(2.0)
        assert executed == 1
        assert order == [1]
        assert queue.now == 2.0

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        order = []
        event = queue.schedule(1.0, lambda: order.append("cancelled"))
        queue.schedule(2.0, lambda: order.append("kept"))
        event.cancel()
        queue.run_all()
        assert order == ["kept"]

    def test_scheduling_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.run_all()
        with pytest.raises(CloudError):
            queue.schedule(0.5, lambda: None)

    def test_events_scheduled_during_execution(self):
        queue = EventQueue()
        order = []

        def chain():
            order.append("a")
            queue.schedule_after(1.0, lambda: order.append("b"))

        queue.schedule(1.0, chain)
        queue.run_all()
        assert order == ["a", "b"]
        assert queue.now == 2.0

    def test_pending_counter_tracks_lifecycle(self):
        """``pending`` is a live counter: schedule/cancel/pop keep it exact
        without ever walking the store."""
        queue = EventQueue()
        events = [queue.schedule(float(i + 1), lambda: None)
                  for i in range(5)]
        assert queue.pending == 5
        assert len(queue) == 5
        events[2].cancel()
        assert queue.pending == 4
        # Cancelling twice is a no-op, not a double decrement.
        events[2].cancel()
        assert queue.pending == 4
        queue.step()
        assert queue.pending == 3
        queue.run_all()
        assert queue.pending == 0

    def test_cancel_after_pop_leaves_counters_alone(self):
        """A popped event no longer occupies a store slot, so a late
        cancel must not corrupt the live/cancelled counters."""
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.step()
        assert queue.pending == 1
        first.cancel()
        assert queue.pending == 1
        assert queue.run_all() == 1
        assert queue.pending == 0

    def test_compaction_keeps_cancel_heavy_store_bounded(self):
        """Cancelled entries are compacted away once they outnumber live
        ones."""
        queue = EventQueue()
        survivors = []
        for i in range(1000):
            event = queue.schedule(float(i + 1), lambda i=i: survivors
                                   .append(i))
            if i % 10 != 0:
                event.cancel()
        # 900 of 1000 were cancelled; compaction must have dropped (most
        # of) them from the heap rather than leaving them as tombstones.
        assert queue.pending == 100
        assert len(queue._heap) < 250
        queue.run_all()
        assert survivors == [i for i in range(1000) if i % 10 == 0]


class TestFifoQueue:
    def test_pop_order(self):
        queue = FifoQueue()
        first = _job("open", 0.0)
        second = _job("open", 1.0)
        queue.push(first, 0.0)
        queue.push(second, 1.0)
        assert queue.pop(2.0) is first
        assert queue.pop(2.0) is second

    def test_pop_empty_raises(self):
        with pytest.raises(CloudError):
            FifoQueue().pop(0.0)


class TestFairShareQueue:
    def test_round_robin_between_equal_shares(self):
        queue = FairShareQueue()
        a1, a2 = _job("alice", 0.0), _job("alice", 1.0)
        b1 = _job("bob", 2.0)
        for job in (a1, a2, b1):
            queue.push(job, job.submit_time)
        first = queue.pop(3.0)
        queue.record_usage(first.provider, 100.0)
        second = queue.pop(3.0)
        # After alice consumed time, bob must be served next (or vice versa).
        assert {first.provider, second.provider} == {"alice", "bob"}

    def test_provider_with_larger_share_served_more(self):
        queue = FairShareQueue(shares={"big": 4.0, "small": 1.0})
        for index in range(8):
            queue.push(_job("big", index), index)
            queue.push(_job("small", index), index)
        served = []
        for _ in range(10):
            job = queue.pop(100.0)
            served.append(job.provider)
            queue.record_usage(job.provider, 60.0)
        assert served.count("big") > served.count("small")

    def test_completion_order_not_submission_order(self):
        """The paper's observation: fair share interleaves providers."""
        queue = FairShareQueue()
        early_jobs = [_job("heavy", t) for t in range(3)]
        late_job = _job("light", 10.0)
        for job in early_jobs:
            queue.push(job, job.submit_time)
        queue.record_usage("heavy", 1000.0)   # heavy already consumed a lot
        queue.push(late_job, 10.0)
        assert queue.pop(11.0).provider == "light"

    def test_within_provider_fifo(self):
        queue = FairShareQueue()
        first = _job("alice", 0.0)
        second = _job("alice", 1.0)
        queue.push(second, 1.0)
        queue.push(first, 0.0)
        assert queue.pop(2.0) is first

    def test_usage_must_be_non_negative(self):
        queue = FairShareQueue()
        with pytest.raises(CloudError):
            queue.record_usage("alice", -1.0)

    def test_peek_jobs_lists_everything(self):
        queue = FairShareQueue()
        jobs = [_job("a", 0.0), _job("b", 1.0), _job("a", 2.0)]
        for job in jobs:
            queue.push(job, job.submit_time)
        assert len(queue.peek_jobs()) == 3
        assert len(queue) == 3

    def test_invalid_share_rejected(self):
        with pytest.raises(CloudError):
            FairShareQueue(default_share=0.0)
        queue = FairShareQueue()
        with pytest.raises(CloudError):
            queue.set_share("x", -1.0)
