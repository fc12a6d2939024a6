"""Quantum-cloud simulator: jobs, queues, execution and calibration cycles.

This package is the substrate standing in for the IBM Quantum cloud whose
telemetry the paper analyses.  It models:

* the job lifecycle (submit → queue → run → DONE/ERROR/CANCELLED),
* per-machine queues with fair-share ordering and an external-load model
  that reproduces the pending-job counts and queue-time distributions of
  Figures 3, 9, 10 and 11,
* an execution-time model in which machine overheads dominate and run time
  grows with batch size and shots (Figures 13-16),
* daily calibration cycles and the compile-vs-run calibration crossover of
  Fig. 12.

One engine, :mod:`repro.cloud.fastsim`, simulates the queues, backlog,
execution and outcomes: the study runner sends it each machine's whole job
block, and :class:`QuantumCloudService` one submission or clock step at a
time.
"""

from repro.cloud.job import (
    CircuitBatch,
    CircuitSpec,
    Job,
    JobResult,
    circuit_spec_from_circuit,
)
from repro.cloud.execution_model import ExecutionTimeModel
from repro.cloud.backlog import ExternalLoadModel, diurnal_factor
from repro.cloud.calibration_cycle import CalibrationCrossoverDetector
from repro.cloud.dashboard import CloudDashboard, MachineStatus
from repro.cloud.provider import Provider, DEFAULT_PROVIDERS
from repro.cloud.service import QuantumCloudService

__all__ = [
    "CircuitBatch",
    "CircuitSpec",
    "Job",
    "JobResult",
    "circuit_spec_from_circuit",
    "ExecutionTimeModel",
    "ExternalLoadModel",
    "diurnal_factor",
    "CalibrationCrossoverDetector",
    "CloudDashboard",
    "MachineStatus",
    "Provider",
    "DEFAULT_PROVIDERS",
    "QuantumCloudService",
]
