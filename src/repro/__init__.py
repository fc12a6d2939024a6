"""repro — reproduction of "Quantum Computing in the Cloud: Analyzing job and
machine characteristics" (IISWC 2021).

The library is organised by subsystem; the most commonly used entry points
are re-exported here:

* circuits: :func:`~repro.circuits.qft_circuit` and friends,
  :class:`~repro.circuits.QuantumCircuit`.
* devices: :func:`~repro.devices.build_backend`,
  :func:`~repro.devices.fleet_in_study`.
* transpiler: :func:`~repro.transpiler.transpile`.
* fidelity: :func:`~repro.fidelity.estimate_success_probability`.
* cloud: :class:`~repro.cloud.QuantumCloudService`, :class:`~repro.cloud.Job`.
* runner: :func:`~repro.runner.run_study` — the study trace.
* scenarios: :class:`~repro.scenarios.Scenario`,
  :func:`~repro.scenarios.builtin_scenarios`,
  :func:`~repro.scenarios.run_scenarios` — declarative what-if studies.
* analysis / prediction / scheduling: the study's analyses and the
  recommendation implementations.
"""

from repro.circuits import QuantumCircuit, qft_circuit, ghz_circuit, build_circuit
from repro.devices import Backend, build_backend, fleet_in_study
from repro.transpiler import transpile
from repro.fidelity import estimate_success_probability, compute_cx_metrics
from repro.cloud import CircuitSpec, Job, QuantumCloudService, circuit_spec_from_circuit
from repro.workloads import TraceDataset, TraceGeneratorConfig
from repro.runner import run_study
from repro.prediction import RuntimePredictionStudy, QueueTimePredictor
from repro.scheduling import MachineSelector, SelectionObjective
from repro.scenarios import Scenario, builtin_scenarios, run_scenarios

__version__ = "1.8.0"

__all__ = [
    "QuantumCircuit",
    "qft_circuit",
    "ghz_circuit",
    "build_circuit",
    "Backend",
    "build_backend",
    "fleet_in_study",
    "transpile",
    "estimate_success_probability",
    "compute_cx_metrics",
    "CircuitSpec",
    "Job",
    "QuantumCloudService",
    "circuit_spec_from_circuit",
    "TraceDataset",
    "TraceGeneratorConfig",
    "run_study",
    "RuntimePredictionStudy",
    "QueueTimePredictor",
    "MachineSelector",
    "SelectionObjective",
    "Scenario",
    "builtin_scenarios",
    "run_scenarios",
    "__version__",
]
