"""The :class:`QuantumCircuit` intermediate representation.

A circuit is an ordered list of :class:`Instruction` objects over a fixed
number of qubits and classical bits.  Beyond construction helpers (``h``,
``cx`` ...), the class exposes exactly the structural metrics the paper's
analysis relies on:

* ``width`` — number of qubits (Section II-B, definition 2),
* ``depth`` / ``cx_depth`` — critical-path length, overall and counted in
  two-qubit gates only (used by the CX metrics of Fig. 7),
* ``cx_count`` / ``gate_counts`` — totals used by the runtime-prediction
  features of Section VI-C.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.gates import Gate, NON_UNITARY_OPERATIONS, TWO_QUBIT_GATES
from repro.core.exceptions import CircuitError


@dataclass(frozen=True)
class Instruction:
    """A gate (or measurement/reset/barrier) applied to concrete qubits."""

    gate: Gate
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        spec = self.gate.spec
        if self.gate.name == "barrier":
            if not self.qubits:
                raise CircuitError("barrier must span at least one qubit")
        elif len(self.qubits) != spec.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name!r} acts on {spec.num_qubits} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(
                f"duplicate qubit in instruction {self.gate.name!r}: {self.qubits}"
            )
        if self.gate.name == "measure" and len(self.clbits) != 1:
            raise CircuitError("measure requires exactly one classical bit")

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def is_two_qubit_gate(self) -> bool:
        return self.gate.name in TWO_QUBIT_GATES

    @property
    def is_directive(self) -> bool:
        return self.gate.name == "barrier"

    def remapped(self, mapping: Dict[int, int]) -> "Instruction":
        """Return a copy with qubit indices translated through ``mapping``."""
        return Instruction(
            self.gate,
            tuple(mapping[q] for q in self.qubits),
            self.clbits,
        )


class QuantumCircuit:
    """A mutable quantum circuit over ``num_qubits`` qubits.

    Example:
        >>> circuit = QuantumCircuit(2, name="bell")
        >>> circuit.h(0).cx(0, 1).measure_all()
        >>> circuit.depth() >= 2
        True
    """

    def __init__(
        self,
        num_qubits: int,
        num_clbits: Optional[int] = None,
        name: str = "circuit",
        metadata: Optional[Dict[str, object]] = None,
    ):
        if num_qubits < 0:
            raise CircuitError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits if num_clbits is not None else num_qubits)
        self.name = name
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._instructions: List[Instruction] = []

    # -- construction -------------------------------------------------------------

    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append an already-built instruction, validating qubit indices."""
        for qubit in instruction.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise CircuitError(
                    f"qubit index {qubit} out of range for "
                    f"{self.num_qubits}-qubit circuit"
                )
        for clbit in instruction.clbits:
            if not 0 <= clbit < self.num_clbits:
                raise CircuitError(
                    f"clbit index {clbit} out of range for "
                    f"{self.num_clbits} classical bits"
                )
        self._instructions.append(instruction)
        return self

    def apply(self, name: str, qubits: Sequence[int],
              params: Sequence[float] = (), clbits: Sequence[int] = ()) -> "QuantumCircuit":
        """Append gate ``name`` on ``qubits`` with the given parameters."""
        gate = Gate(name, tuple(float(p) for p in params))
        return self.append(Instruction(gate, tuple(qubits), tuple(clbits)))

    # convenience single-gate helpers (chainable)
    def id(self, qubit: int) -> "QuantumCircuit":
        return self.apply("id", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.apply("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.apply("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.apply("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.apply("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.apply("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.apply("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.apply("t", [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.apply("tdg", [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.apply("sx", [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.apply("rx", [qubit], [theta])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.apply("ry", [qubit], [theta])

    def rz(self, phi: float, qubit: int) -> "QuantumCircuit":
        return self.apply("rz", [qubit], [phi])

    def p(self, phi: float, qubit: int) -> "QuantumCircuit":
        return self.apply("p", [qubit], [phi])

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.apply("u", [qubit], [theta, phi, lam])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.apply("cx", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.apply("cz", [control, target])

    def cp(self, phi: float, control: int, target: int) -> "QuantumCircuit":
        return self.apply("cp", [control, target], [phi])

    def crz(self, phi: float, control: int, target: int) -> "QuantumCircuit":
        return self.apply("crz", [control, target], [phi])

    def rzz(self, phi: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.apply("rzz", [qubit_a, qubit_b], [phi])

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        return self.apply("swap", [qubit_a, qubit_b])

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        return self.apply("ccx", [control_a, control_b, target])

    def reset(self, qubit: int) -> "QuantumCircuit":
        return self.apply("reset", [qubit])

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        targets = qubits if qubits else tuple(range(self.num_qubits))
        return self.append(Instruction(Gate("barrier"), tuple(targets)))

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        return self.apply("measure", [qubit], clbits=[clbit])

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the classical bit of the same index."""
        if self.num_clbits < self.num_qubits:
            self.num_clbits = self.num_qubits
        for qubit in range(self.num_qubits):
            self.measure(qubit, qubit)
        return self

    def compose(self, other: "QuantumCircuit",
                qubit_offset: int = 0) -> "QuantumCircuit":
        """Append every instruction of ``other`` shifted by ``qubit_offset``."""
        if qubit_offset + other.num_qubits > self.num_qubits:
            raise CircuitError(
                "composed circuit does not fit: "
                f"{qubit_offset} + {other.num_qubits} > {self.num_qubits}"
            )
        mapping = {q: q + qubit_offset for q in range(other.num_qubits)}
        for instruction in other.instructions:
            shifted = instruction.remapped(mapping)
            self.append(shifted)
        return self

    # -- introspection ------------------------------------------------------------

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    @property
    def width(self) -> int:
        """Number of qubits the circuit is declared over."""
        return self.num_qubits

    @property
    def num_active_qubits(self) -> int:
        """Number of qubits actually touched by at least one instruction."""
        used = set()
        for instruction in self._instructions:
            if not instruction.is_directive:
                used.update(instruction.qubits)
        return len(used)

    def gate_counts(self) -> Dict[str, int]:
        """Count of each operation name (barriers excluded)."""
        counts: Dict[str, int] = {}
        for instruction in self._instructions:
            if instruction.is_directive:
                continue
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    @property
    def size(self) -> int:
        """Total number of operations excluding barriers."""
        return sum(self.gate_counts().values())

    @property
    def num_gates(self) -> int:
        """Total unitary gate count (measure/reset/barrier excluded)."""
        return sum(
            count for name, count in self.gate_counts().items()
            if name not in NON_UNITARY_OPERATIONS
        )

    @property
    def cx_count(self) -> int:
        """Total number of two-qubit entangling gates ("CX-Total")."""
        return sum(
            count for name, count in self.gate_counts().items()
            if name in TWO_QUBIT_GATES
        )

    def depth(self, two_qubit_only: bool = False) -> int:
        """Critical-path length of the circuit.

        Args:
            two_qubit_only: count only two-qubit gates along the critical
                path ("CX-Depth" from the paper) instead of all operations.
        """
        num_qubits = self.num_qubits
        # One slot per qubit, then one per classical bit, so a measurement
        # also waits for the last write to its clbit.
        frontier = [0] * max(num_qubits + self.num_clbits, 1)
        for instruction in self._instructions:
            name = instruction.gate.name
            if name == "barrier":
                continue
            slots = instruction.qubits
            if instruction.clbits:
                slots += tuple(num_qubits + c for c in instruction.clbits)
            level = 0
            for slot in slots:
                if frontier[slot] > level:
                    level = frontier[slot]
            if not two_qubit_only or name in TWO_QUBIT_GATES:
                level += 1
            for slot in slots:
                frontier[slot] = level
        return max(frontier)

    @property
    def cx_depth(self) -> int:
        """Depth counted in two-qubit gates only ("CX-Depth")."""
        return self.depth(two_qubit_only=True)

    def count_measurements(self) -> int:
        return self.gate_counts().get("measure", 0)

    # -- transformation helpers ----------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Deep copy of the circuit (instructions are immutable, so shallow-safe)."""
        duplicate = QuantumCircuit(
            self.num_qubits, self.num_clbits,
            name=name or self.name,
            metadata=copy.deepcopy(self.metadata),
        )
        duplicate._instructions = list(self._instructions)
        return duplicate

    def remap_qubits(self, mapping: Dict[int, int],
                     num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a new circuit with qubits permuted/embedded via ``mapping``."""
        target_width = num_qubits if num_qubits is not None else self.num_qubits
        remapped = QuantumCircuit(
            target_width, self.num_clbits, name=self.name,
            metadata=copy.deepcopy(self.metadata),
        )
        for instruction in self._instructions:
            remapped.append(instruction.remapped(mapping))
        return remapped

    def without_measurements(self) -> "QuantumCircuit":
        """Return a copy with measure/reset/barrier stripped."""
        stripped = QuantumCircuit(
            self.num_qubits, self.num_clbits, name=self.name,
            metadata=copy.deepcopy(self.metadata),
        )
        for instruction in self._instructions:
            if instruction.name in ("measure", "reset", "barrier"):
                continue
            stripped.append(instruction)
        return stripped

    def two_qubit_instructions(self) -> List[Instruction]:
        """All two-qubit gate instructions in program order."""
        return [i for i in self._instructions if i.is_two_qubit_gate]

    def interacting_pairs(self) -> Dict[Tuple[int, int], int]:
        """Count of two-qubit interactions per unordered qubit pair."""
        pairs: Dict[Tuple[int, int], int] = {}
        for instruction in self.two_qubit_instructions():
            key = tuple(sorted(instruction.qubits))  # type: ignore[assignment]
            pairs[key] = pairs.get(key, 0) + 1
        return pairs

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"size={self.size}, depth={self.depth()}, cx={self.cx_count})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._instructions == other._instructions
        )

    def summary(self) -> Dict[str, object]:
        """Structural summary used as prediction features and in trace records."""
        return {
            "name": self.name,
            "width": self.width,
            "depth": self.depth(),
            "cx_depth": self.cx_depth,
            "size": self.size,
            "num_gates": self.num_gates,
            "cx_count": self.cx_count,
            "measurements": self.count_measurements(),
        }
