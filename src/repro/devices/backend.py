"""The :class:`Backend` object: one quantum machine on the cloud.

A backend bundles everything the rest of the library needs to know about a
machine: its identity and access level, its coupling map, its calibration
model, and the operational limits (batch size, maximum shots) that IBM
imposed during the study period (900 circuits per job, 8192 shots per
circuit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.exceptions import DeviceError
from repro.core.types import AccessLevel, MachineGeneration
from repro.devices.calibration import CalibrationModel, CalibrationSnapshot
from repro.devices.topology import CouplingMap

#: Operational limits of IBM Quantum backends during the study period.
DEFAULT_MAX_BATCH_SIZE = 900
DEFAULT_MAX_SHOTS = 8192


@dataclass
class Backend:
    """A quantum machine available on the cloud."""

    name: str
    coupling_map: CouplingMap
    calibration_model: CalibrationModel
    access: AccessLevel = AccessLevel.PUBLIC
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    max_shots: int = DEFAULT_MAX_SHOTS
    is_simulator: bool = False
    basis_gates: tuple = ("id", "rz", "sx", "x", "cx")
    #: fixed per-job machine overhead in seconds (load/initialise/readout path);
    #: larger machines carry larger overheads (Section VI-A observation).
    base_overhead_seconds: float = 20.0
    #: per-circuit overhead in seconds (program load + binary upload).
    per_circuit_overhead_seconds: float = 0.8
    #: per-shot duration in seconds (gate time + reset + readout).
    per_shot_seconds: float = 2.2e-4
    online_since_month: int = 0
    retired_after_month: Optional[int] = None
    #: study months in which the machine is temporarily out of service
    #: (scenario outage windows); jobs are not routed to it in those months.
    offline_months: Tuple[int, ...] = ()
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise DeviceError("max_batch_size must be at least 1")
        if self.max_shots < 1:
            raise DeviceError("max_shots must be at least 1")
        if self.coupling_map.num_qubits < 1:
            raise DeviceError("backend must have at least one qubit")

    @property
    def num_qubits(self) -> int:
        return self.coupling_map.num_qubits

    @property
    def generation(self) -> MachineGeneration:
        return MachineGeneration.for_qubit_count(self.num_qubits)

    @property
    def is_public(self) -> bool:
        return self.access.is_public

    def calibration_at(self, timestamp: float,
                       apply_drift: bool = True) -> CalibrationSnapshot:
        """Calibration snapshot effective at ``timestamp``."""
        return self.calibration_model.snapshot_at(timestamp, apply_drift=apply_drift)

    def average_cx_error_at(self, timestamp: float) -> float:
        """``calibration_at(timestamp, apply_drift=False).average_cx_error()``
        without building the snapshot."""
        return self.calibration_model.average_cx_error(
            self.calibration_model.epoch_for_time(timestamp))

    def is_online_in_month(self, month_index: int) -> bool:
        """Whether the machine was part of the fleet in a given study month."""
        if month_index < self.online_since_month:
            return False
        if self.retired_after_month is not None and month_index > self.retired_after_month:
            return False
        return month_index not in self.offline_months

    def validate_job_shape(self, batch_size: int, shots: int) -> None:
        """Raise if a job exceeds the backend's operational limits."""
        if batch_size < 1:
            raise DeviceError("a job must contain at least one circuit")
        if batch_size > self.max_batch_size:
            raise DeviceError(
                f"batch of {batch_size} circuits exceeds the "
                f"{self.max_batch_size}-circuit limit of {self.name}"
            )
        if shots < 1:
            raise DeviceError("shots must be at least 1")
        if shots > self.max_shots:
            raise DeviceError(
                f"{shots} shots exceeds the {self.max_shots}-shot limit "
                f"of {self.name}"
            )

    def bisection_bandwidth(self) -> int:
        """Topology bisection bandwidth (Fig. 6)."""
        return self.coupling_map.bisection_bandwidth()

    def __repr__(self) -> str:
        return (
            f"Backend(name={self.name!r}, qubits={self.num_qubits}, "
            f"access={self.access.value})"
        )
