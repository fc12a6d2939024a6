"""Property-based tests (hypothesis) on the core data structures and invariants."""


import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import pearson_correlation, summarize
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import random_circuit
from repro.circuits.qasm import from_qasm, to_qasm
from repro.cloud.queues import FairShareQueue
from repro.cloud.job import CircuitSpec, Job
from repro.core.rng import RandomSource, derive_seed, seed_words
from repro.core.units import format_duration
from repro.devices.topology import CouplingMap, line_topology, ring_topology
from repro.fidelity.statevector import StatevectorSimulator
from repro.transpiler.layout import Layout
from repro.transpiler.passes import (
    BasisTranslator,
    CheckMap,
    Optimize1qGates,
    PropertySet,
    StochasticSwap,
    Unroll3qOrMore,
)
from repro.workloads.generator import TraceGeneratorConfig

# Strategy: small random circuits described by a seed and size bounds.
circuit_strategy = st.builds(
    lambda qubits, depth, seed: random_circuit(
        qubits, depth, rng=RandomSource(seed), measure=False
    ),
    qubits=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)


@st.composite
def mixed_circuits(draw):
    """Circuits of 1-3 qubit gates, measurements (possibly several into one
    clbit), resets and barriers over any subset of qubits."""
    num_qubits = draw(st.integers(min_value=1, max_value=5))
    num_clbits = draw(st.integers(min_value=1, max_value=3))
    circuit = QuantumCircuit(num_qubits, num_clbits)
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    # Measurements drawn twice as often, so clbit chains are common.
    names = ["h", "rz", "reset", "measure", "measure", "barrier"]
    if num_qubits >= 2:
        names += ["cx", "swap", "rzz"]
    if num_qubits >= 3:
        names += ["ccx"]
    for name in draw(st.lists(st.sampled_from(names), max_size=30)):
        if name == "measure":
            circuit.measure(draw(qubit), draw(st.integers(
                min_value=0, max_value=num_clbits - 1)))
        elif name == "barrier":
            circuit.barrier(*draw(st.lists(qubit, min_size=1, unique=True)))
        else:
            width = {"cx": 2, "swap": 2, "rzz": 2, "ccx": 3}.get(name, 1)
            params = [0.5] if name in ("rz", "rzz") else []
            circuit.apply(name, draw(st.lists(
                qubit, min_size=width, max_size=width, unique=True)), params)
    return circuit


def _slot_list_depth(circuit, two_qubit_only=False):
    """Reference ``QuantumCircuit.depth``: each instruction's qubit and
    clbit slots gathered into a list, the level taken as their max."""
    frontier = [0] * max(circuit.num_qubits + circuit.num_clbits, 1)
    for instruction in circuit:
        if instruction.is_directive:
            continue
        weight = 1
        if two_qubit_only and not instruction.is_two_qubit_gate:
            weight = 0
        slots = list(instruction.qubits)
        slots.extend(circuit.num_qubits + c for c in instruction.clbits)
        level = max(frontier[s] for s in slots) + weight
        for slot in slots:
            frontier[slot] = level
    return max(frontier)


class TestCircuitProperties:
    @given(circuit=circuit_strategy)
    @settings(max_examples=40, deadline=None)
    def test_depth_bounded_by_size(self, circuit):
        assert 0 <= circuit.depth() <= circuit.size

    @given(circuit=circuit_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cx_depth_bounded_by_cx_count_and_depth(self, circuit):
        assert circuit.cx_depth <= circuit.cx_count
        assert circuit.cx_depth <= circuit.depth()

    @given(circuit=mixed_circuits())
    @example(circuit=QuantumCircuit(2, 1).h(0).h(0).measure(0, 0)
             .measure(1, 0))
    @settings(max_examples=200, deadline=None)
    def test_depth_matches_slot_list_reference(self, circuit):
        assert circuit.depth() == _slot_list_depth(circuit)
        assert circuit.cx_depth == _slot_list_depth(circuit,
                                                    two_qubit_only=True)

    @given(circuit=circuit_strategy)
    @settings(max_examples=30, deadline=None)
    def test_qasm_round_trip_preserves_counts(self, circuit):
        restored = from_qasm(to_qasm(circuit))
        assert restored.gate_counts() == circuit.gate_counts()
        assert restored.depth() == circuit.depth()

    @given(circuit=circuit_strategy, offset=st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_remapping_preserves_structure(self, circuit, offset):
        width = circuit.num_qubits + offset
        mapping = {q: q + offset for q in range(circuit.num_qubits)}
        remapped = circuit.remap_qubits(mapping, num_qubits=width)
        assert remapped.depth() == circuit.depth()
        assert remapped.cx_count == circuit.cx_count


class TestStatevectorProperties:
    @given(circuit=circuit_strategy)
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, circuit):
        state = StatevectorSimulator().run(circuit)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-9)

    @given(circuit=circuit_strategy)
    @settings(max_examples=20, deadline=None)
    def test_basis_translation_preserves_state(self, circuit):
        translated = BasisTranslator().run(
            Unroll3qOrMore().run(circuit, PropertySet()), PropertySet())
        simulator = StatevectorSimulator()
        overlap = abs(np.vdot(simulator.run(circuit), simulator.run(translated)))
        assert overlap == pytest.approx(1.0, abs=1e-7)

    @given(circuit=circuit_strategy)
    @settings(max_examples=20, deadline=None)
    def test_optimize_1q_preserves_state(self, circuit):
        optimised = Optimize1qGates().run(circuit, PropertySet())
        simulator = StatevectorSimulator()
        overlap = abs(np.vdot(simulator.run(circuit), simulator.run(optimised)))
        assert overlap == pytest.approx(1.0, abs=1e-7)
        assert optimised.size <= circuit.size


class TestRoutingProperties:
    @given(
        num_qubits=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
        ring=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_routing_always_yields_mapped_circuit(self, num_qubits, seed, ring):
        topology = ring_topology(num_qubits) if ring else line_topology(num_qubits)
        circuit = random_circuit(num_qubits, 6, rng=RandomSource(seed),
                                 measure=False)
        props = PropertySet({"coupling_map": topology})
        routed = StochasticSwap(trials=2, seed=seed).run(circuit, props)
        check = PropertySet({"coupling_map": topology})
        CheckMap().run(routed, check)
        assert check["is_swap_mapped"] is True
        # Routing only adds SWAPs: every original 2q gate count is preserved.
        original = circuit.gate_counts()
        routed_counts = routed.gate_counts()
        for name, count in original.items():
            if name == "swap":
                assert routed_counts.get(name, 0) >= count
            else:
                assert routed_counts.get(name, 0) == count


class TestLayoutProperties:
    @given(permutation=st.permutations(list(range(6))))
    @settings(max_examples=40, deadline=None)
    def test_layout_is_bijective(self, permutation):
        layout = Layout.from_physical_list(permutation)
        for virtual in range(len(permutation)):
            assert layout.virtual(layout.physical(virtual)) == virtual
        assert sorted(layout.physical_qubits()) == sorted(permutation)


class TestRngProperties:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           names=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_derive_seed_deterministic_and_in_range(self, seed, names):
        a = derive_seed(seed, *names)
        b = derive_seed(seed, *names)
        assert a == b
        assert 0 <= a < 2 ** 64

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_reproduces_stream(self, seed):
        a = [RandomSource(seed).random() for _ in range(3)]
        b = [RandomSource(seed).random() for _ in range(3)]
        assert a == b

    @given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_seed_words_match_numpy_seed_sequence(self, seed):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert seed_words([seed])[0].tolist() == expected.tolist()


class TestUnitsAndStatsProperties:
    @given(seconds=st.floats(min_value=0, max_value=1e7,
                             allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_format_duration_always_returns_text(self, seconds):
        text = format_duration(seconds)
        assert isinstance(text, str) and text

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_summary_orderings(self, values):
        summary = summarize(values)
        assert summary.minimum <= summary.p25 <= summary.median
        assert summary.median <= summary.p75 <= summary.maximum
        assert summary.count == len(values)

    @given(values=st.lists(st.floats(min_value=-100, max_value=100,
                                     allow_nan=False), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_correlation_bounded(self, values):
        other = [v * 2 + 1 for v in values]
        correlation = pearson_correlation(values, other)
        assert -1.0 - 1e-9 <= correlation <= 1.0 + 1e-9


class TestTopologyProperties:
    @given(num_qubits=st.integers(min_value=2, max_value=12),
           extra_edges=st.integers(min_value=0, max_value=6),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_bisection_bounded_by_edge_count(self, num_qubits, extra_edges, seed):
        rng = RandomSource(seed)
        edges = [(i, i + 1) for i in range(num_qubits - 1)]
        for _ in range(extra_edges):
            a = rng.integers(0, num_qubits)
            b = rng.integers(0, num_qubits)
            if a != b:
                edges.append((min(a, b), max(a, b)))
        cmap = CouplingMap(num_qubits, set(edges))
        bisection = cmap.bisection_bandwidth()
        assert 1 <= bisection <= cmap.num_edges

    @given(num_qubits=st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_distances_satisfy_triangle_inequality_on_lines(self, num_qubits):
        cmap = line_topology(num_qubits)
        for a in range(num_qubits):
            for b in range(num_qubits):
                assert cmap.distance(a, b) == abs(a - b)


class TestFairShareProperties:
    @given(job_plan=st.lists(st.sampled_from(["alice", "bob", "carol"]),
                             min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_pushed_job_is_eventually_popped(self, job_plan):
        queue = FairShareQueue()
        spec = CircuitSpec(name="c", width=2, depth=3, num_gates=5, cx_count=1,
                           cx_depth=1)
        pushed = []
        for index, provider in enumerate(job_plan):
            job = Job(provider=provider, backend_name="m", circuits=[spec],
                      shots=1, submit_time=float(index))
            queue.push(job, float(index))
            pushed.append(job)
        popped = []
        while len(queue):
            job = queue.pop(100.0)
            queue.record_usage(job.provider, 10.0)
            popped.append(job)
        assert {j.job_id for j in popped} == {j.job_id for j in pushed}


class TestWorkloadPlanProperties:
    @given(total_jobs=st.integers(min_value=1, max_value=600),
           months=st.integers(min_value=1, max_value=28),
           growth_ratio=st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_monthly_counts_sum_to_total(self, total_jobs, months,
                                         growth_ratio):
        counts = TraceGeneratorConfig(
            total_jobs=total_jobs, months=months,
            growth_ratio=growth_ratio).jobs_per_month()
        assert sum(counts) == total_jobs
        assert all(count >= 0 for count in counts)
