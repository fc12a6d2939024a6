"""Pass manager with per-pass wall-clock timing.

The :class:`PassManager` runs a pipeline of passes over a circuit and
records a :class:`PassTiming` per pass — the data behind the paper's Fig. 5
compile-time breakdown.  A timing is a pass name and its wall-clock seconds
only: the manager never rescans the circuit between passes.  The result
object also carries the final layout and the property set so downstream
consumers (fidelity estimation, calibration crossover analysis) can inspect
what the compiler decided.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.exceptions import TranspilerError
from repro.devices.backend import Backend
from repro.transpiler.layout import Layout
from repro.transpiler.passes.base import BasePass, PropertySet


@dataclass(frozen=True)
class PassTiming:
    """One pass execution: the pass name and its wall-clock seconds."""

    pass_name: str
    seconds: float


@dataclass
class TranspileResult:
    """Outcome of a full transpilation run."""

    circuit: QuantumCircuit
    timings: List[PassTiming]
    properties: PropertySet
    optimization_level: Optional[int] = None

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    @property
    def layout(self) -> Optional[Layout]:
        return self.properties.get("layout")

    @property
    def swap_count(self) -> int:
        return int(self.properties.get("swap_count", 0))

    def timing_by_pass(self) -> Dict[str, float]:
        """Total seconds spent per pass name (summed over repeats)."""
        totals: Dict[str, float] = {}
        for timing in self.timings:
            totals[timing.pass_name] = totals.get(timing.pass_name, 0.0) + timing.seconds
        return totals

    def summary(self) -> Dict[str, object]:
        compiled = self.circuit
        return {
            "total_compile_seconds": self.total_seconds,
            "passes": len(self.timings),
            "width": compiled.num_qubits,
            "depth": compiled.depth(),
            "cx_depth": compiled.cx_depth,
            "cx_count": compiled.cx_count,
            "size": compiled.size,
            "swap_count": self.swap_count,
        }


class PassManager:
    """Runs an ordered list of passes, timing each one."""

    def __init__(self, passes: Optional[Sequence[BasePass]] = None,
                 name: str = "custom"):
        self._passes: List[BasePass] = list(passes or [])
        self.name = name

    def append(self, pass_instance: BasePass) -> "PassManager":
        self._passes.append(pass_instance)
        return self

    def extend(self, passes: Sequence[BasePass]) -> "PassManager":
        self._passes.extend(passes)
        return self

    @property
    def passes(self) -> List[BasePass]:
        return list(self._passes)

    def run(self, circuit: QuantumCircuit,
            backend: Optional[Backend] = None,
            properties: Optional[PropertySet] = None,
            compile_time: Optional[float] = None) -> TranspileResult:
        """Run the pipeline on ``circuit`` for ``backend``.

        Args:
            circuit: the virtual-qubit circuit to compile.
            backend: target machine; its coupling map and the calibration
                snapshot at ``compile_time`` are installed in the property
                set for layout/fidelity passes.
            properties: pre-populated property set (overrides backend info).
            compile_time: simulator timestamp at which compilation happens;
                controls which calibration snapshot the noise-aware passes
                see (the Fig. 12 staleness mechanism).
        """
        if properties is None:
            properties = PropertySet()
        if backend is not None:
            properties["backend_name"] = backend.name
            properties["coupling_map"] = backend.coupling_map
            if "calibration" not in properties:
                timestamp = compile_time if compile_time is not None else 0.0
                properties["calibration"] = backend.calibration_at(timestamp)
            properties["basis_gates"] = backend.basis_gates
        if "coupling_map" not in properties:
            raise TranspilerError(
                "transpilation requires a backend or an explicit coupling_map"
            )

        current = circuit
        timings: List[PassTiming] = []
        for pass_instance in self._passes:
            started = time.perf_counter()
            current = pass_instance.run(current, properties)
            timings.append(PassTiming(pass_instance.name,
                                      time.perf_counter() - started))
        return TranspileResult(circuit=current, timings=timings,
                               properties=properties)

    def __len__(self) -> int:
        return len(self._passes)

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self._passes)
        return f"PassManager(name={self.name!r}, passes=[{names}])"
