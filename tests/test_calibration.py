"""Tests for repro.devices.calibration."""

import pytest

from repro.core.exceptions import DeviceError
from repro.core.rng import RandomSource
from repro.core.units import DAY_SECONDS, HOUR_SECONDS
from repro.devices import fleet_in_study
from repro.devices.calibration import (
    CalibrationModel,
    CalibrationProfile,
    DriftModel,
    GateCalibration,
    QubitCalibration,
)
from repro.devices.topology import falcon_topology, line_topology


@pytest.fixture
def model():
    return CalibrationModel(
        machine="testq", coupling_map=falcon_topology(7), seed=5
    )


class TestDataClasses:
    def test_qubit_calibration_validation(self):
        with pytest.raises(DeviceError):
            QubitCalibration(t1_us=-1, t2_us=50, readout_error=0.01,
                             single_qubit_error=0.001)
        with pytest.raises(DeviceError):
            QubitCalibration(t1_us=50, t2_us=50, readout_error=1.5,
                             single_qubit_error=0.001)

    def test_gate_calibration_validation(self):
        with pytest.raises(DeviceError):
            GateCalibration(error=1.2, duration_ns=300)
        with pytest.raises(DeviceError):
            GateCalibration(error=0.01, duration_ns=0)


class TestCalibrationModel:
    def test_snapshot_is_deterministic_per_epoch(self, model):
        a = model.snapshot_for_epoch(3)
        b = model.snapshot_for_epoch(3)
        assert a.qubits[0].t1_us == b.qubits[0].t1_us
        assert a.average_cx_error() == b.average_cx_error()

    def test_snapshots_differ_across_epochs(self, model):
        a = model.snapshot_for_epoch(0)
        b = model.snapshot_for_epoch(1)
        assert a.average_cx_error() != pytest.approx(b.average_cx_error())

    def test_snapshot_covers_every_qubit_and_edge(self, model):
        snapshot = model.snapshot_for_epoch(0)
        assert snapshot.num_qubits == 7
        for a, b in model.coupling_map.edges:
            assert snapshot.has_gate(a, b)
            assert snapshot.has_gate(b, a)  # undirected lookup

    def test_missing_gate_raises(self, model):
        snapshot = model.snapshot_for_epoch(0)
        with pytest.raises(DeviceError):
            snapshot.gate(0, 6)  # not an edge of the 7q falcon

    def test_spatial_variation_matches_paper_range(self):
        """Section IV-B: CX error CoV around 75 %, coherence CoV 30-40 %."""
        model = CalibrationModel("big", falcon_topology(27), seed=1)
        snapshot = model.snapshot_for_epoch(0)
        assert 0.3 <= snapshot.cx_error_cov() <= 1.3

    def test_epoch_arithmetic(self, model):
        start = model.epoch_start(2)
        assert model.epoch_for_time(start + 10) == 2
        assert model.epoch_for_time(start - 10) == 1

    def test_crossover_detection(self, model):
        compile_time = model.epoch_start(1) + 2 * HOUR_SECONDS
        same_epoch_run = compile_time + HOUR_SECONDS
        next_epoch_run = compile_time + DAY_SECONDS
        assert not model.crosses_calibration(compile_time, same_epoch_run)
        assert model.crosses_calibration(compile_time, next_epoch_run)

    def test_day_to_day_variation_is_substantial(self):
        """The paper reports >2x day-to-day variation in error averages."""
        model = CalibrationModel("var", line_topology(5), seed=9)
        averages = [model.snapshot_for_epoch(e).average_cx_error()
                    for e in range(30)]
        assert max(averages) / min(averages) > 1.5

    def test_best_qubits_sorted_by_quality(self, model):
        snapshot = model.snapshot_for_epoch(0)
        best = snapshot.best_qubits(3)
        assert len(best) == 3
        scores = [
            snapshot.qubit(q).single_qubit_error + snapshot.qubit(q).readout_error
            for q in range(snapshot.num_qubits)
        ]
        assert scores[best[0]] == min(scores)

    def test_invalid_period_rejected(self):
        with pytest.raises(DeviceError):
            CalibrationModel("bad", line_topology(2), calibration_period=0)


#: Epochs spread over the 28-month study window (one epoch per day).
STUDY_EPOCHS = (0, 1, 2, 45, 137, 300, 455, 611, 777, 851)


class TestAverageCxError:
    """The per-epoch scalar equals the snapshot's average exactly."""

    def test_equals_snapshot_average_on_every_study_machine(self):
        # Scalar first on one fresh fleet, snapshot first on another, so
        # neither comparison can lean on the other path's memo.
        scalar_first = fleet_in_study(seed=7)
        snapshot_first = fleet_in_study(seed=7)
        assert {"ibmq_armonk", "ibmq_qasm_simulator"} <= set(scalar_first)
        for name in scalar_first:
            a = scalar_first[name].calibration_model
            b = snapshot_first[name].calibration_model
            for epoch in STUDY_EPOCHS:
                scalar = a.average_cx_error(epoch)
                average = b.snapshot_for_epoch(epoch).average_cx_error()
                assert scalar == average, (name, epoch)
                assert a.snapshot_for_epoch(epoch).average_cx_error() == scalar
                assert b.average_cx_error(epoch) == average

    def test_machine_without_edges_reads_zero(self):
        armonk = fleet_in_study(seed=7)["ibmq_armonk"]
        assert armonk.coupling_map.num_edges == 0
        assert armonk.calibration_model.average_cx_error(3) == 0.0

    def test_zero_error_predicate_matches_the_scalar(self):
        fleet = fleet_in_study(seed=7)
        assert len(fleet) == 28
        zero = {name for name, backend in fleet.items()
                if backend.calibration_model.cx_error_is_zero}
        assert zero == {"ibmq_armonk"}
        flat = CalibrationModel(
            machine="flat", coupling_map=falcon_topology(7),
            profile=CalibrationProfile(median_cx_error=0.0), seed=5)
        assert flat.coupling_map.edges and flat.cx_error_is_zero
        models = [b.calibration_model for b in fleet.values()] + [flat]
        for model in models:
            for epoch in STUDY_EPOCHS:
                assert model.cx_error_is_zero == (
                    model.average_cx_error(epoch) == 0.0), (model.machine,
                                                            epoch)

    @pytest.mark.parametrize("median", [-1e-3, float("nan")])
    def test_median_cx_error_must_be_non_negative(self, median):
        with pytest.raises(DeviceError):
            CalibrationProfile(median_cx_error=median)

    def test_memoised_per_epoch(self, model, monkeypatch):
        first = model.average_cx_error(4)
        monkeypatch.setattr(RandomSource, "child", lambda *args: pytest.fail(
            "a memoised epoch derived a stream again"))
        assert model.average_cx_error(4) == first

    def test_backend_reads_the_epoch_of_a_timestamp(self):
        fleet = fleet_in_study(seed=7)
        for backend in (fleet["ibmq_casablanca"], fleet["ibmq_manhattan"]):
            model = backend.calibration_model
            for epoch in (0, 300):
                start = model.epoch_start(epoch)
                for timestamp in (start, start + 20 * HOUR_SECONDS):
                    assert backend.average_cx_error_at(timestamp) == \
                        backend.calibration_at(
                            timestamp, apply_drift=False).average_cx_error()

    def test_snapshot_unchanged_by_the_scalar(self, model):
        reference = CalibrationModel(
            machine="testq", coupling_map=falcon_topology(7), seed=5)
        model.average_cx_error(2)
        assert model.snapshot_for_epoch(2) == reference.snapshot_for_epoch(2)


class TestDriftModel:
    def test_errors_grow_with_time(self, model):
        fresh = model.snapshot_for_epoch(0)
        drift = DriftModel(error_growth_per_hour=0.05)
        later = drift.apply(fresh, fresh.timestamp + 10 * HOUR_SECONDS)
        assert later.average_cx_error() > fresh.average_cx_error()
        assert later.average_t1_us() < fresh.average_t1_us()

    def test_no_drift_at_calibration_instant(self, model):
        fresh = model.snapshot_for_epoch(0)
        same = DriftModel().apply(fresh, fresh.timestamp)
        assert same.average_cx_error() == pytest.approx(fresh.average_cx_error())

    def test_errors_bounded(self, model):
        fresh = model.snapshot_for_epoch(0)
        drift = DriftModel(error_growth_per_hour=10.0)
        later = drift.apply(fresh, fresh.timestamp + 100 * HOUR_SECONDS)
        assert all(g.error <= 0.75 for g in later.gates.values())
        assert all(q.readout_error <= 0.5 for q in later.qubits)

    def test_negative_rate_rejected(self):
        with pytest.raises(DeviceError):
            DriftModel(error_growth_per_hour=-0.1)

    def test_snapshot_at_applies_drift(self, model):
        epoch_start = model.epoch_start(0)
        fresh = model.snapshot_at(epoch_start, apply_drift=True)
        stale = model.snapshot_at(epoch_start + 20 * HOUR_SECONDS, apply_drift=True)
        assert stale.average_cx_error() >= fresh.average_cx_error()
