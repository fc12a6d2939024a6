"""Workload models and the synthetic two-year trace generator.

The paper's dataset is two years of one research group's jobs on the IBM
Quantum cloud.  This package synthesises an equivalent dataset:

* :mod:`repro.workloads.distributions` — the samplers for batch size, shots,
  circuit width, circuit family and provider mix, calibrated so the marginal
  statistics match what the paper reports.
* :mod:`repro.workloads.circuit_metrics` — fast structural metrics for the
  benchmark circuit families (with a routing-overhead model per machine), so
  600k circuits don't each need a full transpile.
* :mod:`repro.workloads.compile_model` — compile-time estimates calibrated
  against the real transpiler in :mod:`repro.transpiler`.
* :mod:`repro.workloads.users` — user behaviour (machine-selection policy).
* :mod:`repro.workloads.trace` — the NumPy-columnar :class:`TraceDataset`
  (typed per-field arrays, lazy :class:`JobRecord` row views) with
  npz/JSON/CSV round-trip.
* :mod:`repro.workloads.generator` — the study config and the deterministic
  plan / synthesise / record stages that :func:`repro.runner.run_study`
  runs to produce the full study trace.
* :mod:`repro.workloads.rowpath` — the row-at-a-time reference data plane
  kept for the golden-equivalence test and the data-plane benchmark.
"""

from repro.workloads.distributions import (
    WorkloadDistributions,
    BatchSizeSampler,
    ShotsSampler,
    WidthSampler,
    FamilySampler,
)
from repro.workloads.circuit_metrics import (
    CircuitMetrics,
    logical_metrics,
    compiled_metrics,
    routing_overhead_factor,
)
from repro.workloads.compile_model import CompileTimeModel
from repro.workloads.users import UserProfile, MachineSelectionPolicy, default_user_population
from repro.workloads.trace import JobRecord, TraceDataset
from repro.workloads.generator import TraceGeneratorConfig

__all__ = [
    "WorkloadDistributions",
    "BatchSizeSampler",
    "ShotsSampler",
    "WidthSampler",
    "FamilySampler",
    "CircuitMetrics",
    "logical_metrics",
    "compiled_metrics",
    "routing_overhead_factor",
    "CompileTimeModel",
    "UserProfile",
    "MachineSelectionPolicy",
    "default_user_population",
    "JobRecord",
    "TraceDataset",
    "TraceGeneratorConfig",
]
