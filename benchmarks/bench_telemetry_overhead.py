"""Telemetry overhead — the span tracer's cost on the simulation engine.

Not a paper figure but the acceptance bound on the instrumentation: the
batched simulation (``simulate_fleet``) is timed best-of-5 with the span
tracer off, then best-of-5 with it on.  Simulation mutates jobs in place,
so every rep simulates a fresh synthesis, after a ``gc.collect()``.
Tracing may cost at most 2%, plus a 5 ms floor for timer noise.

The study is pinned at 200 jobs / 2 months / seed 7, whatever
``REPRO_BENCH_JOBS`` says, so the bound is checked at one scale in every
run.
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
