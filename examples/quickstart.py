"""Quickstart: compile a circuit, estimate its fidelity, and run it on the
simulated quantum cloud.

This walks the path a cloud user takes every day:

1. build a benchmark circuit,
2. compile it for a specific IBM-style machine (noise-aware),
3. estimate the probability of success from the compiled CX metrics,
4. submit a batched job to the cloud simulator and inspect the queue/run
   times it experienced,
5. scale up: regenerate a slice of the paper's study through the parallel
   sharded runner.

Run with:  python examples/quickstart.py
"""

from repro.circuits import ghz_circuit
from repro.cloud import Job, QuantumCloudService, circuit_spec_from_circuit
from repro.core.units import format_duration
from repro.devices import build_fleet
from repro.fidelity import estimate_success_probability, measure_probability_of_success
from repro.runner import run_study
from repro.transpiler import transpile


def main() -> None:
    # --- 1. a small benchmark circuit --------------------------------------------
    circuit = ghz_circuit(4)
    print(f"logical circuit: {circuit}")

    # --- 2. compile it for a real machine of the study ---------------------------
    fleet = build_fleet(["ibmq_athens", "ibmq_casablanca", "ibmq_toronto"], seed=1)
    backend = fleet["ibmq_casablanca"]
    result = transpile(circuit, backend, optimization_level=3)
    compiled = result.circuit
    print(f"compiled for {backend.name}: cx={compiled.cx_count}, "
          f"depth={compiled.depth()}, compile time={result.total_seconds * 1e3:.1f} ms")

    # --- 3. estimate and measure the probability of success ----------------------
    calibration = backend.calibration_at(0.0)
    estimate = estimate_success_probability(compiled, calibration)
    measured = measure_probability_of_success(circuit, compiled, calibration,
                                              shots=2048)
    print(f"estimated success probability: {estimate.probability:.2%} "
          f"(CX-Total={estimate.cx_metrics.cx_total}, "
          f"CX-Depth={estimate.cx_metrics.cx_depth})")
    print(f"measured POS from the noisy sampler: {measured:.2%}")

    # --- 4. submit a batched job to the simulated cloud --------------------------
    service = QuantumCloudService(fleet, seed=1)
    spec = circuit_spec_from_circuit(compiled, family="ghz")
    job = Job(provider="academic-hub", backend_name=backend.name,
              circuits=[spec] * 25, shots=1024, submit_time=0.0,
              compile_seconds=result.total_seconds)
    service.submit(job)
    service.drain()

    print(f"job {job.job_id} finished with status {job.status.value}")
    print(f"  queued for {format_duration(job.queue_seconds or 0)} "
          f"({job.pending_ahead} jobs were pending ahead)")
    if job.run_seconds:
        print(f"  ran for {format_duration(job.run_seconds)} "
              f"({job.batch_size} circuits x {job.shots} shots)")
        print(f"  queue:run ratio = {job.queue_seconds / job.run_seconds:.1f}x")

    # --- 5. a miniature study through the parallel sharded runner ----------------
    result = run_study(total_jobs=120, months=3, seed=7)
    summary = result.trace.summary()
    print(f"\nmini study via the sharded runner ({result.workers} workers, "
          f"{result.total_seconds:.1f}s): {summary['jobs']} jobs, "
          f"{summary['circuits']} circuits, {summary['trials']:.3g} trials "
          f"on {summary['machines']} machines")
    print("full scale:  python -m repro run-study --jobs 6000  "
          "(then `python -m repro figures`)")


if __name__ == "__main__":
    main()
