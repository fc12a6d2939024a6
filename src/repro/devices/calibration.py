"""Calibration data and the spatial/temporal variation model.

The paper (Section IV-B, citing Tannu & Qureshi's 52-day study of a 20-qubit
IBM machine) characterises NISQ devices by:

* spatial variation: coefficient of variation (CoV) of 30-40 % on T1/T2
  coherence times and ~75 % on two-qubit error rates across a machine;
* temporal variation: day-to-day error-rate averages that can differ by more
  than 2x, driven by the daily recalibration plus drift between calibrations.

:class:`CalibrationModel` generates per-epoch :class:`CalibrationSnapshot`
objects with exactly those variation levels; :class:`DriftModel` degrades a
snapshot continuously between calibrations.  The fidelity estimator, the
noise-adaptive layout pass and the calibration-crossover analysis all consume
these snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.exceptions import DeviceError
from repro.core.rng import RandomSource
from repro.core.units import DAY_SECONDS, HOUR_SECONDS
from repro.devices.topology import CouplingMap, Edge


@dataclass(frozen=True)
class QubitCalibration:
    """Calibrated properties of a single physical qubit."""

    t1_us: float
    t2_us: float
    readout_error: float
    single_qubit_error: float
    frequency_ghz: float = 5.0

    def __post_init__(self):
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise DeviceError("coherence times must be positive")
        if not 0 <= self.readout_error < 1:
            raise DeviceError("readout error must be in [0, 1)")
        if not 0 <= self.single_qubit_error < 1:
            raise DeviceError("single-qubit error must be in [0, 1)")


@dataclass(frozen=True)
class GateCalibration:
    """Calibrated properties of a two-qubit gate on a coupling edge."""

    error: float
    duration_ns: float

    def __post_init__(self):
        if not 0 <= self.error < 1:
            raise DeviceError("gate error must be in [0, 1)")
        if self.duration_ns <= 0:
            raise DeviceError("gate duration must be positive")


@dataclass
class CalibrationSnapshot:
    """Full calibration state of a machine at a point in time."""

    machine: str
    epoch: int
    timestamp: float
    qubits: List[QubitCalibration]
    gates: Dict[Tuple[int, int], GateCalibration]

    def qubit(self, index: int) -> QubitCalibration:
        if not 0 <= index < len(self.qubits):
            raise DeviceError(f"qubit {index} out of range")
        return self.qubits[index]

    def gate(self, qubit_a: int, qubit_b: int) -> GateCalibration:
        key = (min(qubit_a, qubit_b), max(qubit_a, qubit_b))
        try:
            return self.gates[key]
        except KeyError:
            raise DeviceError(
                f"no calibrated two-qubit gate between {qubit_a} and {qubit_b}"
            ) from None

    def has_gate(self, qubit_a: int, qubit_b: int) -> bool:
        key = (min(qubit_a, qubit_b), max(qubit_a, qubit_b))
        return key in self.gates

    # -- aggregate statistics ------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def average_cx_error(self) -> float:
        if not self.gates:
            return 0.0
        return sum(g.error for g in self.gates.values()) / len(self.gates)

    def average_readout_error(self) -> float:
        return sum(q.readout_error for q in self.qubits) / len(self.qubits)

    def average_t1_us(self) -> float:
        return sum(q.t1_us for q in self.qubits) / len(self.qubits)

    def average_t2_us(self) -> float:
        return sum(q.t2_us for q in self.qubits) / len(self.qubits)

    def cx_error_cov(self) -> float:
        """Coefficient of variation of two-qubit errors (spatial variation)."""
        errors = [g.error for g in self.gates.values()]
        if len(errors) < 2:
            return 0.0
        mean = sum(errors) / len(errors)
        if mean == 0:
            return 0.0
        variance = sum((e - mean) ** 2 for e in errors) / len(errors)
        return math.sqrt(variance) / mean

    def best_qubits(self, count: int) -> List[int]:
        """Indices of the ``count`` qubits with the lowest combined error."""
        scored = sorted(
            range(self.num_qubits),
            key=lambda q: (
                self.qubits[q].single_qubit_error + self.qubits[q].readout_error
            ),
        )
        return scored[:count]


class DriftModel:
    """Continuous degradation of calibration between recalibrations.

    Error rates inflate multiplicatively with the hours elapsed since the
    epoch's calibration; coherence times shrink correspondingly.  The default
    rates produce the "up to ~2x day-to-day variation" the paper reports when
    combined with fresh-calibration randomness.
    """

    def __init__(self, error_growth_per_hour: float = 0.012,
                 coherence_decay_per_hour: float = 0.006):
        if error_growth_per_hour < 0 or coherence_decay_per_hour < 0:
            raise DeviceError("drift rates must be non-negative")
        self.error_growth_per_hour = error_growth_per_hour
        self.coherence_decay_per_hour = coherence_decay_per_hour

    def apply(self, snapshot: CalibrationSnapshot,
              at_time: float) -> CalibrationSnapshot:
        """Return a drifted copy of ``snapshot`` as of ``at_time``."""
        elapsed_hours = max(0.0, (at_time - snapshot.timestamp) / HOUR_SECONDS)
        if elapsed_hours == 0:
            return snapshot
        error_factor = 1.0 + self.error_growth_per_hour * elapsed_hours
        coherence_factor = 1.0 / (1.0 + self.coherence_decay_per_hour * elapsed_hours)
        qubits = [
            QubitCalibration(
                t1_us=q.t1_us * coherence_factor,
                t2_us=q.t2_us * coherence_factor,
                readout_error=min(0.5, q.readout_error * error_factor),
                single_qubit_error=min(0.5, q.single_qubit_error * error_factor),
                frequency_ghz=q.frequency_ghz,
            )
            for q in snapshot.qubits
        ]
        gates = {
            edge: GateCalibration(
                error=min(0.75, g.error * error_factor),
                duration_ns=g.duration_ns,
            )
            for edge, g in snapshot.gates.items()
        }
        return CalibrationSnapshot(
            machine=snapshot.machine,
            epoch=snapshot.epoch,
            timestamp=snapshot.timestamp,
            qubits=qubits,
            gates=gates,
        )


@dataclass
class CalibrationProfile:
    """Machine-level average error characteristics around which qubits vary."""

    median_cx_error: float = 1.2e-2
    median_sx_error: float = 3.5e-4
    median_readout_error: float = 2.5e-2
    median_t1_us: float = 90.0
    median_t2_us: float = 75.0
    cx_duration_ns: float = 380.0
    #: spatial coefficient of variation targets (paper Section IV-B)
    cx_error_cov: float = 0.75
    coherence_cov: float = 0.35
    readout_cov: float = 0.45
    #: day-to-day multiplicative jitter on the machine-wide averages
    daily_jitter_sigma: float = 0.28


class CalibrationModel:
    """Generates daily calibration snapshots for one machine.

    Machines are calibrated once per day (the paper estimates 12am-2am);
    epoch ``k`` covers ``[start + k*period, start + (k+1)*period)``.  Within
    an epoch the returned snapshot can optionally be drifted to the query
    time via the :class:`DriftModel`.
    """

    def __init__(
        self,
        machine: str,
        coupling_map: CouplingMap,
        profile: Optional[CalibrationProfile] = None,
        seed: int = 0,
        calibration_period: float = DAY_SECONDS,
        calibration_hour: float = 1.0,
        drift: Optional[DriftModel] = None,
    ):
        self.machine = machine
        self.coupling_map = coupling_map
        self.profile = profile or CalibrationProfile()
        self.calibration_period = float(calibration_period)
        if self.calibration_period <= 0:
            raise DeviceError("calibration period must be positive")
        self.calibration_offset = float(calibration_hour) * HOUR_SECONDS
        self.drift = drift or DriftModel()
        self._rng_root = RandomSource(seed, name=f"calibration/{machine}")
        self._snapshot_cache: Dict[int, CalibrationSnapshot] = {}
        self._cx_error_cache: Dict[int, float] = {}

    # -- epoch arithmetic ----------------------------------------------------------

    def epoch_for_time(self, timestamp: float) -> int:
        """Index of the calibration epoch containing ``timestamp``."""
        return int(math.floor((timestamp - self.calibration_offset)
                              / self.calibration_period))

    def epoch_start(self, epoch: int) -> float:
        """Timestamp at which calibration epoch ``epoch`` begins."""
        return epoch * self.calibration_period + self.calibration_offset

    def crosses_calibration(self, submit_time: float, run_time: float) -> bool:
        """Whether a job compiled at ``submit_time`` runs in a later epoch.

        This is the Fig. 12a "calibration crossover" condition.
        """
        return self.epoch_for_time(run_time) > self.epoch_for_time(submit_time)

    # -- snapshot generation -------------------------------------------------------

    def snapshot_for_epoch(self, epoch: int) -> CalibrationSnapshot:
        """The freshly calibrated snapshot at the start of ``epoch``."""
        cached = self._snapshot_cache.get(epoch)
        if cached is not None:
            return cached
        rng, daily_factor = self._epoch_stream(epoch)
        profile = self.profile
        readout_factor = rng.lognormal(0.0, profile.daily_jitter_sigma * 0.6)
        coherence_factor = rng.lognormal(0.0, profile.daily_jitter_sigma * 0.4)

        qubits: List[QubitCalibration] = []
        for index in range(self.coupling_map.num_qubits):
            qubit_rng = rng.child("qubit", index)
            t1 = _positive_lognormal(
                qubit_rng, profile.median_t1_us * coherence_factor,
                profile.coherence_cov
            )
            t2 = min(
                2.0 * t1,
                _positive_lognormal(
                    qubit_rng, profile.median_t2_us * coherence_factor,
                    profile.coherence_cov
                ),
            )
            readout = _bounded_lognormal(
                qubit_rng, profile.median_readout_error * readout_factor,
                profile.readout_cov, upper=0.4
            )
            sq_error = _bounded_lognormal(
                qubit_rng, profile.median_sx_error * daily_factor,
                profile.cx_error_cov * 0.6, upper=0.1
            )
            qubits.append(
                QubitCalibration(
                    t1_us=t1, t2_us=t2, readout_error=readout,
                    single_qubit_error=sq_error,
                    frequency_ghz=4.8 + 0.4 * qubit_rng.random(),
                )
            )

        gates: Dict[Tuple[int, int], GateCalibration] = {}
        for edge, edge_rng, error in self._edge_errors(rng, daily_factor):
            duration = _positive_lognormal(
                edge_rng, profile.cx_duration_ns, 0.15
            )
            gates[edge] = GateCalibration(error=error, duration_ns=duration)

        snapshot = CalibrationSnapshot(
            machine=self.machine,
            epoch=epoch,
            timestamp=self.epoch_start(epoch),
            qubits=qubits,
            gates=gates,
        )
        self._snapshot_cache[epoch] = snapshot
        return snapshot

    def average_cx_error(self, epoch: int) -> float:
        """``snapshot_for_epoch(epoch).average_cx_error()``, memoised.

        Draws only the epoch's daily factor and each edge's error, the
        same values in the same per-stream order as the snapshot, so the
        two are equal to the last bit without building qubits, gate
        durations or dataclasses.
        """
        cached = self._cx_error_cache.get(epoch)
        if cached is None:
            errors = [error for _, _, error
                      in self._edge_errors(*self._epoch_stream(epoch))]
            cached = sum(errors) / len(errors) if errors else 0.0
            self._cx_error_cache[epoch] = cached
        return cached

    def _epoch_stream(self, epoch: int) -> Tuple[RandomSource, float]:
        """The epoch's stream and its first draw, the daily error factor."""
        rng = self._rng_root.child("epoch", epoch)
        return rng, rng.lognormal(0.0, self.profile.daily_jitter_sigma)

    def _edge_errors(self, rng: RandomSource, daily_factor: float
                     ) -> Iterator[Tuple[Edge, RandomSource, float]]:
        """Each coupling edge, its stream and its CX error (the stream's
        first draw), in ``coupling_map.edges`` order."""
        profile = self.profile
        for edge in self.coupling_map.edges:
            edge_rng = rng.child("edge", *edge)
            yield edge, edge_rng, _bounded_lognormal(
                edge_rng, profile.median_cx_error * daily_factor,
                profile.cx_error_cov, upper=0.6
            )

    def snapshot_at(self, timestamp: float,
                    apply_drift: bool = True) -> CalibrationSnapshot:
        """The calibration state effective at ``timestamp``."""
        snapshot = self.snapshot_for_epoch(self.epoch_for_time(timestamp))
        if apply_drift:
            return self.drift.apply(snapshot, timestamp)
        return snapshot


def _positive_lognormal(rng: RandomSource, median: float, cov: float) -> float:
    """Sample a positive value with the given median and coefficient of variation."""
    sigma = math.sqrt(math.log(1.0 + cov * cov)) if cov > 0 else 0.0
    return median * math.exp(rng.normal(0.0, sigma)) if sigma > 0 else median


def _bounded_lognormal(rng: RandomSource, median: float, cov: float,
                       upper: float) -> float:
    return min(upper, _positive_lognormal(rng, median, cov))
