"""Telemetry overhead — the span tracer's cost on the simulation engine.

Not a paper figure but the acceptance bound on the instrumentation: the
batched simulation (``simulate_fleet``) is timed best-of-5 with the span
tracer off, then best-of-5 with it on.  Simulation mutates jobs in place,
so every rep simulates a fresh synthesis, after a ``gc.collect()``.
Tracing may cost at most 2%, plus a 5 ms floor for timer noise.

The study is pinned at 200 jobs / 2 months / seed 7, whatever
``REPRO_BENCH_JOBS`` says, so the bound is checked at one scale in every
run.

That study opens only a handful of spans, so the 5 ms floor would absorb
a per-span cost of up to about a millisecond.  A second check times the
span itself: best of 5 runs of 20,000 enabled ``Tracer.span`` enter/exits,
each with one argument like the engine's ``sim.machine`` spans, at most
50 µs per span.
"""

import gc
import time

from repro.cloud.fastsim import simulate_fleet
from repro.telemetry import Tracer, set_tracer
from repro.workloads.generator import (
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
)

CONFIG = TraceGeneratorConfig(total_jobs=200, months=2, seed=7)


def _best_simulation_seconds(tracing: bool, reps: int = 5) -> float:
    previous = set_tracer(Tracer(enabled=tracing))
    best = float("inf")
    try:
        for _ in range(reps):
            fleet = CONFIG.build_fleet()
            jobs = JobSynthesizer(CONFIG, fleet).synthesise_many(
                plan_submissions(CONFIG))
            jobs = [job for job in jobs if job is not None]
            gc.collect()
            started = time.perf_counter()
            simulate_fleet(fleet, jobs, seed=CONFIG.seed,
                           failure_model=CONFIG.build_failure_model())
            best = min(best, time.perf_counter() - started)
    finally:
        set_tracer(previous)
    return best


def test_tracing_overhead_within_bound(emit):
    off = _best_simulation_seconds(tracing=False)
    on = _best_simulation_seconds(tracing=True)
    emit(f"telemetry overhead ({CONFIG.total_jobs} jobs, {CONFIG.months} "
         f"months): batched simulation {off:.4f}s off, {on:.4f}s on "
         f"({on / off - 1.0:+.1%})")
    assert on <= off * 1.02 + 0.005


def _best_span_seconds(spans: int = 20_000, reps: int = 5) -> float:
    tracer = Tracer(enabled=True)
    best = float("inf")
    for _ in range(reps):
        tracer.reset()
        gc.collect()
        started = time.perf_counter()
        for _ in range(spans):
            with tracer.span("sim.machine", machine="ibmq_athens"):
                pass
        best = min(best, (time.perf_counter() - started) / spans)
    return best


def test_span_cost_within_bound(emit):
    per_span = _best_span_seconds()
    emit(f"telemetry overhead: {per_span * 1e6:.2f} us per enabled span")
    assert per_span <= 50e-6
