"""Fast structural metrics for benchmark circuit families.

The trace covers ~600k circuit executions; building and transpiling each one
would be prohibitively slow and is unnecessary because the analysis only
consumes structural metrics (width, depth, gate count, CX count/depth).
This module provides those metrics in two steps:

1. :func:`logical_metrics` — exact metrics of the *logical* circuit for a
   (family, width) pair, computed by actually building small circuits once
   and caching, and by closed-form gate-count formulas for larger widths.
2. :func:`compiled_metrics` — the post-compilation metrics, obtained by
   applying a routing-overhead factor that depends on how sparse the target
   machine's connectivity is (validated against the real transpiler in the
   test suite).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import build_circuit
from repro.core.exceptions import WorkloadError
from repro.core.rng import RandomSource
from repro.devices.backend import Backend


@dataclass(frozen=True)
class CircuitMetrics:
    """Structural metrics of one circuit."""

    width: int
    depth: int
    num_gates: int
    cx_count: int
    cx_depth: int

    def scaled(self, gate_factor: float, depth_factor: float) -> "CircuitMetrics":
        """Return metrics scaled by routing overhead factors."""
        return CircuitMetrics(
            width=self.width,
            depth=max(self.depth, int(round(self.depth * depth_factor))),
            num_gates=max(self.num_gates, int(round(self.num_gates * gate_factor))),
            cx_count=max(self.cx_count, int(round(self.cx_count * gate_factor))),
            cx_depth=max(self.cx_depth, int(round(self.cx_depth * depth_factor))),
        )

    def jittered(self, rng: RandomSource, relative: float = 0.15) -> "CircuitMetrics":
        """Apply small multiplicative jitter (parameter-sweep variation)."""
        factor = max(0.5, 1.0 + rng.normal(0.0, relative))
        return CircuitMetrics(
            width=self.width,
            depth=max(1, int(round(self.depth * factor))),
            num_gates=max(1, int(round(self.num_gates * factor))),
            cx_count=max(0, int(round(self.cx_count * factor))),
            cx_depth=max(0, int(round(self.cx_depth * factor))),
        )


#: Widths up to this bound are measured by building the actual circuit.
_EXACT_WIDTH_LIMIT = 24


def structural_fingerprint(circuit: QuantumCircuit) -> str:
    """Stable hash of a circuit's *structure*, with parameters abstracted.

    Two circuits share a fingerprint iff they have the same qubit/clbit
    counts and the same ordered sequence of (gate name, parameter count,
    qubits, clbits).  Parameter *values* are deliberately excluded: the
    study's parameterised families (qaoa, vqe, random rotations) differ only
    in rotation angles, which never change layout, routing or gate-level
    optimisation decisions in our pass library — so all draws of one
    (family, width) template collapse into a single transpile equivalence
    class.

    The digest is derived purely from instruction content (no ``id()``,
    ``hash()`` or dict iteration), so it is stable across processes and
    ``PYTHONHASHSEED`` values.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v1|{circuit.num_qubits}|{circuit.num_clbits}".encode())
    for instruction in circuit.instructions:
        record = "|{name}:{params}:{qubits}:{clbits}".format(
            name=instruction.name,
            params=len(instruction.gate.params),
            qubits=",".join(str(q) for q in instruction.qubits),
            clbits=",".join(str(c) for c in instruction.clbits),
        )
        hasher.update(record.encode())
    return hasher.hexdigest()[:24]


@functools.lru_cache(maxsize=1024)
def representative_circuit(family: str, width: int) -> QuantumCircuit:
    """The canonical member of the (family, width) equivalence class.

    Built with the same pinned RNG stream as :func:`logical_metrics`, so the
    representative is identical in every process and every worker — the
    fingerprint of this circuit *is* the class identity used by the
    transpile cache.
    """
    if width < 1:
        raise WorkloadError("width must be at least 1")
    return build_circuit(family, width, rng=RandomSource(width, name="metrics"))


@functools.lru_cache(maxsize=1024)
def class_fingerprint(family: str, width: int) -> str:
    """Structural fingerprint of the (family, width) representative."""
    return structural_fingerprint(representative_circuit(family, width))


#: CX-equivalent cost of each two-qubit gate once translated to the IBM basis.
_CX_EQUIVALENTS = {
    "cx": 1, "cz": 1, "cp": 2, "crz": 2, "rzz": 2, "swap": 3, "iswap": 2,
}


@functools.lru_cache(maxsize=4096)
def logical_metrics(family: str, width: int) -> CircuitMetrics:
    """Structural metrics of the benchmark circuit in the IBM basis.

    Two-qubit gates are counted in *CX equivalents* (a controlled phase costs
    two CX after basis translation, a SWAP costs three), matching what the
    real transpiler emits.
    """
    if width < 1:
        raise WorkloadError("width must be at least 1")
    if width <= _EXACT_WIDTH_LIMIT:
        circuit = build_circuit(family, width, rng=RandomSource(width, name="metrics"))
        raw_two_qubit = circuit.cx_count
        cx_equivalent = sum(
            _CX_EQUIVALENTS.get(instruction.name, 1)
            for instruction in circuit.two_qubit_instructions()
        )
        expansion = cx_equivalent / raw_two_qubit if raw_two_qubit else 1.0
        depth = circuit.depth()
        cx_depth = circuit.cx_depth
        return CircuitMetrics(
            width=circuit.num_qubits,
            depth=max(depth, int(round(depth * (0.5 + 0.5 * expansion)))),
            num_gates=circuit.num_gates + (cx_equivalent - raw_two_qubit),
            cx_count=cx_equivalent,
            cx_depth=max(cx_depth, int(round(cx_depth * expansion))),
        )
    return _analytic_metrics(family, width)


def _analytic_metrics(family: str, width: int) -> CircuitMetrics:
    """Closed-form gate-count formulas for large widths."""
    if family == "qft":
        cx = width * (width - 1)  # each cp contributes 2 cx after translation
        gates = cx + 3 * width
        depth = 4 * width
        cx_depth = 2 * width
    elif family == "ghz":
        cx = width - 1
        gates = cx + width + 1
        depth = width + 1
        cx_depth = width - 1
    elif family == "bv":
        cx = max(1, width // 2)
        gates = 3 * width + cx
        depth = 5 + cx
        cx_depth = cx
    elif family == "qaoa":
        cx = 2 * width
        gates = 4 * width
        depth = 8
        cx_depth = 4
    elif family == "vqe":
        layers = 2
        cx = layers * (width - 1)
        gates = cx + 2 * width * (layers + 1)
        depth = 4 * (layers + 1)
        cx_depth = layers
    elif family == "random":
        depth = 2 * width
        cx = int(0.35 * width * depth / 2)
        gates = width * depth
        cx_depth = int(depth * 0.5)
    else:
        raise WorkloadError(f"unknown circuit family {family!r}")
    return CircuitMetrics(width=width, depth=depth, num_gates=gates,
                          cx_count=cx, cx_depth=cx_depth)


def routing_overhead_factor(backend: Backend, width: int) -> Tuple[float, float]:
    """(gate_factor, depth_factor) modelling swap-insertion overhead.

    Sparse machines (low average degree relative to the circuit width) incur
    more SWAPs.  A fully connected simulator incurs none.
    """
    coupling = backend.coupling_map
    if width <= 1 or backend.is_simulator:
        return 1.0, 1.0
    if coupling.num_qubits <= 1:
        return 1.0, 1.0
    average_degree = 2.0 * coupling.num_edges / coupling.num_qubits
    # Fraction of the machine occupied by the circuit: larger fractions of a
    # sparse device force longer swap chains.
    occupancy = min(1.0, width / coupling.num_qubits)
    sparsity = max(0.0, 1.0 - average_degree / max(width - 1, 1))
    gate_factor = 1.0 + 1.6 * sparsity * (0.4 + 0.6 * occupancy)
    depth_factor = 1.0 + 1.2 * sparsity * (0.4 + 0.6 * occupancy)
    return gate_factor, depth_factor


def compiled_metrics(family: str, width: int, backend: Backend,
                     rng: Optional[RandomSource] = None) -> CircuitMetrics:
    """Post-compilation metrics of a benchmark circuit on ``backend``."""
    if width > backend.num_qubits:
        raise WorkloadError(
            f"{width}-qubit circuit does not fit on {backend.name} "
            f"({backend.num_qubits} qubits)"
        )
    base = logical_metrics(family, width)
    gate_factor, depth_factor = routing_overhead_factor(backend, width)
    compiled = base.scaled(gate_factor, depth_factor)
    if rng is not None:
        compiled = compiled.jittered(rng)
    return compiled
