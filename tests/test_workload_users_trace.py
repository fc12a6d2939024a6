"""Tests for user behaviour models and the trace dataset container."""


import pytest

from repro.core.exceptions import WorkloadError
from repro.core.rng import RandomSource
from repro.core.units import DAY_SECONDS, HOUR_SECONDS
from repro.devices import fleet_in_study
from repro.workloads.trace import JobRecord, TraceDataset
from repro.workloads.users import (
    MachineSelectionPolicy,
    UserProfile,
    default_user_population,
    pick_user,
)


def _record(machine="ibmq_athens", qubits=5, status="DONE", batch=10, shots=1024,
            queue=600.0, run=120.0, width=3, month=2, job_id="job-x",
            pending=5, crossed=False) -> JobRecord:
    return JobRecord(
        job_id=job_id, provider="open", access="public", machine=machine,
        machine_qubits=qubits, month_index=month, batch_size=batch, shots=shots,
        circuit_family="qft", circuit_width=width, circuit_depth=20,
        circuit_gates=40, circuit_cx=12, circuit_cx_depth=8, memory_slots=width,
        submit_time=1000.0, start_time=1000.0 + queue,
        end_time=1000.0 + queue + run, status=status, queue_seconds=queue,
        run_seconds=run, compile_seconds=0.5, pending_ahead=pending,
        crossed_calibration=crossed,
    )


class TestUserProfiles:
    def test_smallest_fit_policy(self, fleet):
        profile = UserProfile("u", MachineSelectionPolicy.SMALLEST_FIT)
        eligible = [fleet["ibmq_athens"], fleet["ibmq_manhattan"]]
        chosen = profile.select_machine(eligible, RandomSource(1))
        assert chosen.name == "ibmq_athens"

    def test_best_fidelity_policy_picks_lowest_error(self, fleet):
        profile = UserProfile("u", MachineSelectionPolicy.BEST_FIDELITY)
        eligible = [fleet["ibmqx2"], fleet["ibmq_santiago"]]
        chosen = profile.select_machine(eligible, RandomSource(1), timestamp=0.0)
        errors = {
            b.name: b.calibration_at(0.0, apply_drift=False).average_cx_error()
            for b in eligible
        }
        assert errors[chosen.name] == min(errors.values())

    def test_balanced_policy_matches_snapshot_ranking(self):
        """BALANCED ranks by the per-epoch scalar; without the simulator
        (always the lowest error) its choice must be the one full
        snapshots of a second fleet give."""
        fleet = fleet_in_study(seed=7)
        reference = fleet_in_study(seed=7)
        profile = UserProfile("u", MachineSelectionPolicy.BALANCED)
        eligible = [b for b in fleet.values() if not b.is_simulator]
        waits = {b.name: float(i % 4 + 1) for i, b in enumerate(eligible)}
        for day in (0, 90, 400, 800):
            timestamp = day * DAY_SECONDS + 3 * HOUR_SECONDS
            chosen = profile.select_machine(eligible, RandomSource(1),
                                            timestamp=timestamp,
                                            pending_estimate=waits)
            errors = {name: reference[name].calibration_at(
                timestamp, apply_drift=False).average_cx_error()
                for name in waits}
            max_error, max_wait = max(errors.values()), max(waits.values())
            expected = min(waits, key=lambda n: (
                0.6 * errors[n] / max_error + 0.4 * waits[n] / max_wait, n))
            assert chosen.name == expected, day

    def test_least_queue_policy_uses_estimates(self, fleet):
        profile = UserProfile("u", MachineSelectionPolicy.LEAST_QUEUE)
        eligible = [fleet["ibmq_athens"], fleet["ibmq_rome"]]
        chosen = profile.select_machine(
            eligible, RandomSource(1),
            pending_estimate={"ibmq_athens": 500.0, "ibmq_rome": 2.0})
        assert chosen.name == "ibmq_rome"

    def test_popularity_policy_prefers_high_demand(self, fleet):
        profile = UserProfile("u", MachineSelectionPolicy.POPULARITY)
        eligible = [fleet["ibmq_athens"], fleet["ibmq_rome"]]
        rng = RandomSource(2)
        picks = [profile.select_machine(eligible, rng).name for _ in range(300)]
        assert picks.count("ibmq_athens") > picks.count("ibmq_rome")

    def test_empty_eligible_list_rejected(self):
        profile = UserProfile("u", MachineSelectionPolicy.RANDOM)
        with pytest.raises(WorkloadError):
            profile.select_machine([], RandomSource(1))

    def test_population_weights(self):
        population = default_user_population()
        rng = RandomSource(3)
        picks = [pick_user(population, rng).name for _ in range(500)]
        # The crowd-follower class dominates the population by weight.
        assert picks.count("crowd-follower") > picks.count("explorer")

    def test_invalid_profile_rejected(self):
        with pytest.raises(WorkloadError):
            UserProfile("bad", MachineSelectionPolicy.RANDOM, weight=0)


class TestJobRecord:
    def test_derived_metrics(self):
        record = _record(batch=20, shots=1000, queue=1200.0, run=300.0, width=4,
                         qubits=16)
        assert record.total_trials == 20000
        assert record.utilization == pytest.approx(0.25)
        assert record.queue_minutes == pytest.approx(20.0)
        assert record.queue_to_run_ratio == pytest.approx(4.0)
        assert record.per_circuit_queue_seconds == pytest.approx(60.0)

    def test_missing_run_time_yields_none(self):
        record = _record()
        record = JobRecord(**{**record.as_dict(), "run_seconds": None,
                              "start_time": None, "end_time": None,
                              "queue_seconds": None})
        assert record.run_minutes is None
        assert record.queue_to_run_ratio is None


class TestTraceDataset:
    def test_filters_and_groups(self):
        records = [
            _record(job_id="a", machine="ibmq_athens", status="DONE"),
            _record(job_id="b", machine="ibmq_rome", status="ERROR"),
            _record(job_id="c", machine="ibmq_athens", status="DONE", month=5),
        ]
        trace = TraceDataset.from_records(records)
        assert len(trace) == 3
        assert trace.machines() == ["ibmq_athens", "ibmq_rome"]
        assert len(trace.successful()) == 2
        assert len(trace.for_machine("ibmq_rome")) == 1
        assert set(trace.group_by_month()) == {2, 5}

    def test_column_access(self):
        trace = TraceDataset.from_records([_record(job_id="a"), _record(job_id="b", batch=50)])
        batches = trace.numeric_column("batch_size")
        assert list(batches) == [10.0, 50.0]
        with pytest.raises(WorkloadError):
            trace.column("not_a_column")

    def test_summary_counts(self):
        trace = TraceDataset.from_records([_record(batch=10, shots=100),
                              _record(batch=5, shots=200)])
        summary = trace.summary()
        assert summary["jobs"] == 2
        assert summary["circuits"] == 15
        assert summary["trials"] == 10 * 100 + 5 * 200

    def test_json_round_trip(self, tmp_path):
        trace = TraceDataset.from_records([_record(job_id="a"), _record(job_id="b")],
                             metadata={"seed": 1})
        path = tmp_path / "trace.json"
        trace.to_json(path)
        restored = TraceDataset.from_json(path)
        assert len(restored) == 2
        assert restored.metadata["seed"] == 1
        assert restored[0].as_dict() == trace[0].as_dict()

    def test_csv_round_trip(self, tmp_path):
        trace = TraceDataset.from_records([_record(job_id="a", crossed=True), _record(job_id="b")])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        restored = TraceDataset.from_csv(path)
        assert len(restored) == 2
        assert restored[0].crossed_calibration is True
        assert restored[0].batch_size == trace[0].batch_size
        assert restored[0].queue_seconds == pytest.approx(trace[0].queue_seconds)

    def test_csv_round_trip_preserves_none(self, tmp_path):
        record = JobRecord(**{**_record(job_id="x").as_dict(),
                              "run_seconds": None, "end_time": None})
        path = tmp_path / "trace.csv"
        TraceDataset.from_records([record]).to_csv(path)
        restored = TraceDataset.from_csv(path)
        assert restored[0].run_seconds is None
