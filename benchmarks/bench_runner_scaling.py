"""Bench: multi-worker speedup of the sharded study runner.

Generates the same (reduced-scale) study trace with one worker and with all
available workers, reporting the wall-clock ratio.  Synthesis dominates the
pipeline and is embarrassingly parallel, so on an N-core machine the
speedup should approach N; the merged trace is byte-identical either way,
which this bench also asserts (it is the runner's core invariant).
"""

from __future__ import annotations

import pytest

from repro.core.env import env_int
from repro.runner import default_workers, run_study
from repro.workloads import TraceGeneratorConfig

#: Keep the scaling bench affordable even at full 6000-job scale.
SCALING_JOBS = min(env_int("REPRO_BENCH_JOBS", 6000), 1000)
SCALING_MONTHS = min(env_int("REPRO_BENCH_MONTHS", 28), 12)
BENCH_SEED = env_int("REPRO_BENCH_SEED", 7)


@pytest.fixture(scope="module")
def scaling_config():
    return TraceGeneratorConfig(total_jobs=SCALING_JOBS, months=SCALING_MONTHS,
                                seed=BENCH_SEED)


def test_runner_speedup(scaling_config, emit, benchmark):
    serial = run_study(config=scaling_config, workers=1, use_cache=False)

    workers = default_workers()
    parallel = benchmark.pedantic(
        lambda: run_study(config=scaling_config, workers=workers,
                          use_cache=False),
        rounds=1, iterations=1,
    )

    assert parallel.trace.records == serial.trace.records

    serial_s = serial.timings["total"]
    parallel_s = parallel.timings["total"]
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    emit(
        f"runner scaling ({SCALING_JOBS} jobs, {SCALING_MONTHS} months):\n"
        f"  workers=1:  {serial_s:7.2f}s "
        f"(synthesis {serial.timings['synthesis']:.2f}s, "
        f"simulation {serial.timings['simulation']:.2f}s)\n"
        f"  workers={workers}:  {parallel_s:7.2f}s "
        f"(synthesis {parallel.timings['synthesis']:.2f}s, "
        f"simulation {parallel.timings['simulation']:.2f}s)\n"
        f"  speedup: {speedup:.2f}x on {workers} workers"
    )
