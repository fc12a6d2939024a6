"""Unit tests for the columnar TraceDataset primitives.

Focus: typed column access (including optional-valued columns with NaN
sentinels), vectorised filter/group-by, categorical vocabularies, the lazy
JobRecord row view, and the npz persistence layer.
"""

import numpy as np
import pytest

from repro.core.exceptions import WorkloadError
from repro.workloads.trace import JobRecord, TraceDataset


def _record(job_id="job-x", machine="ibmq_athens", qubits=5, status="DONE",
            batch=10, shots=1024, queue=600.0, run=120.0, width=3, month=2,
            pending=5, crossed=False) -> JobRecord:
    start = None if queue is None else 1000.0 + queue
    end = None if queue is None or run is None else start + run
    return JobRecord(
        job_id=job_id, provider="open", access="public", machine=machine,
        machine_qubits=qubits, month_index=month, batch_size=batch,
        shots=shots, circuit_family="qft", circuit_width=width,
        circuit_depth=20, circuit_gates=40, circuit_cx=12, circuit_cx_depth=8,
        memory_slots=width, submit_time=1000.0, start_time=start,
        end_time=end, status=status, queue_seconds=queue, run_seconds=run,
        compile_seconds=0.5, pending_ahead=pending,
        crossed_calibration=crossed,
    )


@pytest.fixture
def mixed_trace():
    """Four rows mixing machines, statuses and missing optionals."""
    return TraceDataset.from_records([
        _record(job_id="a", machine="ibmq_athens", queue=60.0, run=30.0),
        _record(job_id="b", machine="ibmq_rome", status="ERROR",
                queue=120.0, run=0.0),
        _record(job_id="c", machine="ibmq_athens", status="CANCELLED",
                queue=None, run=None),
        _record(job_id="d", machine="ibmq_rome", queue=240.0, run=60.0,
                month=4),
    ], metadata={"seed": 9})


class TestTypedColumns:
    def test_values_dtypes(self, mixed_trace):
        assert mixed_trace.values("batch_size").dtype == np.int64
        assert mixed_trace.values("submit_time").dtype == np.float64
        assert mixed_trace.values("crossed_calibration").dtype == np.bool_
        machines = mixed_trace.values("machine")
        assert machines.dtype.kind == "U"
        assert machines.tolist() == ["ibmq_athens", "ibmq_rome",
                                     "ibmq_athens", "ibmq_rome"]

    def test_optional_column_uses_nan_sentinel(self, mixed_trace):
        queue = mixed_trace.values("queue_seconds")
        assert queue.dtype == np.float64
        assert np.isnan(queue[2])
        assert queue[0] == 60.0

    def test_column_list_restores_none(self, mixed_trace):
        assert mixed_trace.column("queue_seconds") == [60.0, 120.0, None,
                                                       240.0]
        assert mixed_trace.column("run_minutes") == [0.5, 0.0, None, 1.0]
        assert all(isinstance(v, int)
                   for v in mixed_trace.column("batch_size"))

    def test_numeric_column_drops_missing(self, mixed_trace):
        queue = mixed_trace.numeric_column("queue_seconds")
        assert queue.tolist() == [60.0, 120.0, 240.0]
        kept = mixed_trace.numeric_column("queue_seconds", drop_none=False)
        assert kept.size == 4 and np.isnan(kept[2])

    def test_derived_ratio_column_handles_invalid_rows(self, mixed_trace):
        ratios = mixed_trace.values("queue_to_run_ratio")
        # row b ran for 0 seconds, row c never ran: both undefined.
        assert ratios[0] == pytest.approx(2.0)
        assert np.isnan(ratios[1]) and np.isnan(ratios[2])
        assert ratios[3] == pytest.approx(4.0)

    def test_unknown_column_rejected(self, mixed_trace):
        with pytest.raises(WorkloadError):
            mixed_trace.values("not_a_column")
        with pytest.raises(WorkloadError):
            mixed_trace.column("not_a_column")


class TestSelection:
    def test_where_mask(self, mixed_trace):
        subset = mixed_trace.where(mixed_trace.values("batch_size") >= 10)
        assert len(subset) == 4
        subset = mixed_trace.where(
            ~np.isnan(mixed_trace.values("run_seconds")))
        assert [r.job_id for r in subset] == ["a", "b", "d"]
        assert subset.metadata == {"seed": 9}

    def test_where_rejects_bad_mask(self, mixed_trace):
        with pytest.raises(WorkloadError):
            mixed_trace.where(np.asarray([True, False]))

    def test_take_preserves_order(self, mixed_trace):
        subset = mixed_trace.take([3, 0])
        assert [r.job_id for r in subset] == ["d", "a"]

    @pytest.mark.parametrize("indices", [[4], [-5], [1, 4], [4, 1]])
    def test_take_rejects_out_of_range_indices(self, mixed_trace, indices):
        with pytest.raises(IndexError):
            mixed_trace.take(indices)

    def test_take_accepts_negative_indices(self, mixed_trace):
        subset = mixed_trace.take([-4, -1])
        assert [r.job_id for r in subset] == ["a", "d"]

    def test_mask_equal_on_categorical(self, mixed_trace):
        mask = mixed_trace.mask_equal("machine", "ibmq_rome")
        assert mask.tolist() == [False, True, False, True]
        assert not mixed_trace.mask_equal("machine", "missing").any()

    def test_completed_requires_positive_run(self, mixed_trace):
        completed = mixed_trace.completed()
        assert [r.job_id for r in completed] == ["a", "d"]

    def test_filter_predicate_compatibility(self, mixed_trace):
        subset = mixed_trace.filter(lambda r: r.machine == "ibmq_athens")
        assert [r.job_id for r in subset] == ["a", "c"]


class TestGroupsAndCounts:
    def test_group_by_machine_sorted_keys(self, mixed_trace):
        groups = mixed_trace.group_by_machine()
        assert list(groups) == ["ibmq_athens", "ibmq_rome"]
        assert [r.job_id for r in groups["ibmq_rome"]] == ["b", "d"]

    def test_group_by_month_integer_keys(self, mixed_trace):
        groups = mixed_trace.group_by_month()
        assert list(groups) == [2, 4]
        assert all(isinstance(key, int) for key in groups)

    def test_subset_vocabulary_reports_present_values_only(self, mixed_trace):
        athens = mixed_trace.for_machine("ibmq_athens")
        assert athens.machines() == ["ibmq_athens"]
        assert set(athens.status_counts()) == {"DONE", "CANCELLED"}

    def test_value_counts(self, mixed_trace):
        assert mixed_trace.value_counts("machine") == {
            "ibmq_athens": 2, "ibmq_rome": 2}
        assert mixed_trace.status_counts() == {
            "DONE": 2, "ERROR": 1, "CANCELLED": 1}


class TestRowView:
    def test_indexing_and_slicing(self, mixed_trace):
        assert mixed_trace[0].job_id == "a"
        assert mixed_trace[-1].job_id == "d"
        assert [r.job_id for r in mixed_trace[1:3]] == ["b", "c"]
        with pytest.raises(IndexError):
            mixed_trace[4]

    def test_row_view_restores_python_types(self, mixed_trace):
        record = mixed_trace[2]
        assert record.queue_seconds is None
        assert record.run_seconds is None
        assert isinstance(record.batch_size, int)
        assert isinstance(record.crossed_calibration, bool)
        assert isinstance(record.machine, str)

    def test_append_and_extend(self, mixed_trace):
        mixed_trace.append(_record(job_id="e", machine="ibmq_lima",
                                   status="DONE"))
        assert len(mixed_trace) == 5
        assert mixed_trace[-1].machine == "ibmq_lima"
        assert "ibmq_lima" in mixed_trace.machines()
        # pre-existing rows keep their values after the vocabulary grows
        assert mixed_trace[0].machine == "ibmq_athens"

    def test_empty_dataset(self):
        empty = TraceDataset()
        assert len(empty) == 0
        assert empty.machines() == []
        assert empty.records == []
        assert empty.summary()["jobs"] == 0


class TestNpzPersistence:
    def test_npz_round_trip_with_missing_values(self, mixed_trace, tmp_path):
        path = tmp_path / "trace.npz"
        mixed_trace.to_npz(path)
        restored = TraceDataset.from_npz(path)
        assert restored.records == mixed_trace.records
        assert restored.metadata == {"seed": 9}
        assert restored[2].queue_seconds is None

    def test_save_load_dispatch_by_suffix(self, mixed_trace, tmp_path):
        for name in ("trace.npz", "trace.json", "trace.csv"):
            path = tmp_path / name
            mixed_trace.save(path)
            restored = TraceDataset.load(path)
            assert restored.records == mixed_trace.records

    def test_schema_mismatch_rejected(self, mixed_trace, tmp_path):
        import json
        import zipfile

        path = tmp_path / "trace.npz"
        mixed_trace.to_npz(path)
        # Corrupt the schema header and ensure the loader refuses it.
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["__meta__"] = np.asarray(
            [json.dumps({"schema": 999, "metadata": {}})])
        with zipfile.ZipFile(path, "w") as archive:
            for name, array in arrays.items():
                import io
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array, allow_pickle=False)
                archive.writestr(name + ".npy", buffer.getvalue())
        with pytest.raises(ValueError):
            TraceDataset.from_npz(path)
