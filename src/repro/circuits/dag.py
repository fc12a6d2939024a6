"""Directed-acyclic-graph view of a circuit.

:class:`CircuitDAG` builds a DAG whose nodes are instructions and whose
edges follow qubit and classical-bit wires, backed by :mod:`networkx`: the
dependency structure behind a circuit's front layer, ASAP layers and
critical path.  No transpiler pass uses it (each works on the flat
instruction list, and :meth:`QuantumCircuit.depth` is one loop over it), so
:mod:`repro.circuits` imports this module, and networkx, only when a DAG is
first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import networkx as nx

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.core.exceptions import CircuitError


@dataclass(frozen=True)
class DAGNode:
    """A node in the circuit DAG: an instruction plus its sequence index."""

    index: int
    instruction: Instruction

    @property
    def name(self) -> str:
        return self.instruction.name

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.instruction.qubits


class CircuitDAG:
    """Dependency DAG over the instructions of a :class:`QuantumCircuit`."""

    def __init__(self, circuit: QuantumCircuit):
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.name = circuit.name
        self._graph = nx.DiGraph()
        self._nodes: List[DAGNode] = []
        self._build(circuit)

    def _build(self, circuit: QuantumCircuit) -> None:
        last_on_wire: Dict[str, int] = {}
        for index, instruction in enumerate(circuit.instructions):
            node = DAGNode(index, instruction)
            self._nodes.append(node)
            self._graph.add_node(index)
            wires = [f"q{q}" for q in instruction.qubits]
            wires.extend(f"c{c}" for c in instruction.clbits)
            for wire in wires:
                previous = last_on_wire.get(wire)
                if previous is not None and previous != index:
                    self._graph.add_edge(previous, index)
                last_on_wire[wire] = index

    # -- queries -------------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        return self._graph

    def node(self, index: int) -> DAGNode:
        return self._nodes[index]

    def nodes(self) -> List[DAGNode]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def topological_nodes(self) -> Iterator[DAGNode]:
        """Nodes in a deterministic topological order (by sequence index)."""
        for index in nx.lexicographical_topological_sort(self._graph):
            yield self._nodes[index]

    def predecessors(self, index: int) -> List[DAGNode]:
        return [self._nodes[i] for i in sorted(self._graph.predecessors(index))]

    def successors(self, index: int) -> List[DAGNode]:
        return [self._nodes[i] for i in sorted(self._graph.successors(index))]

    def front_layer(self) -> List[DAGNode]:
        """Nodes with no predecessors — the routing frontier."""
        return [
            self._nodes[i]
            for i in sorted(self._graph.nodes)
            if self._graph.in_degree(i) == 0
        ]

    def longest_path_length(self, two_qubit_only: bool = False) -> int:
        """Critical path length, optionally counting only 2-qubit gates."""
        if not self._nodes:
            return 0

        def weight(node: DAGNode) -> int:
            if node.instruction.is_directive:
                return 0
            if two_qubit_only and not node.instruction.is_two_qubit_gate:
                return 0
            return 1

        best: Dict[int, int] = {}
        for index in nx.topological_sort(self._graph):
            node_weight = weight(self._nodes[index])
            incoming = [
                best[p] for p in self._graph.predecessors(index)
            ]
            best[index] = (max(incoming) if incoming else 0) + node_weight
        return max(best.values()) if best else 0

    def layers(self) -> List[List[DAGNode]]:
        """Partition nodes into ASAP layers of simultaneously executable gates."""
        level: Dict[int, int] = {}
        for index in nx.topological_sort(self._graph):
            incoming = [level[p] for p in self._graph.predecessors(index)]
            level[index] = (max(incoming) + 1) if incoming else 0
        if not level:
            return []
        num_layers = max(level.values()) + 1
        result: List[List[DAGNode]] = [[] for _ in range(num_layers)]
        for index, layer in level.items():
            result[layer].append(self._nodes[index])
        for layer_nodes in result:
            layer_nodes.sort(key=lambda node: node.index)
        return result

    def to_circuit(self) -> QuantumCircuit:
        """Rebuild a flat circuit in topological order."""
        circuit = QuantumCircuit(self.num_qubits, self.num_clbits, name=self.name)
        for node in self.topological_nodes():
            circuit.append(node.instruction)
        return circuit

    def validate(self) -> None:
        """Sanity-check the DAG structure (acyclicity)."""
        if not nx.is_directed_acyclic_graph(self._graph):
            raise CircuitError("circuit dependency graph contains a cycle")
