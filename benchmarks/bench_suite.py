"""Benchmark: suite scheduling on one shared pool vs one study at a time.

Runs the same scenario suite twice at a configurable scale:

* **sequential** — one ``run_study`` per scenario: every scenario builds
  its own worker pool, runs its synthesis and simulation phases behind
  private barriers, and tears the pool down.
* **suite** — the shared-pool scheduler: one
  :class:`~repro.runner.pool.SharedWorkerPool` executes every scenario's
  shards and machine groups as a single interleaved work queue.

Both runs are cache-disabled and their per-scenario traces are compared
byte for byte, so the measured speedup never trades determinism away.  The
suite optionally includes a parameter sweep (``--sweep``) and seed
replicates (``--replicates``) — the shapes the suite scheduler exists for:
many small related studies.

Writes a ``BENCH_suite.json`` artifact (consumed by CI) and prints a
summary.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_suite.py --jobs 200 --months 2 \
        --replicates 2 --sweep backlog_shift.scale=1.5,2.5

Target (the PR acceptance bar): >=1.3x wall-clock over the sequential
studies on a 5-scenario reduced-scale suite with multiple workers.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import List

from repro.core.env import env_int
from repro.runner import default_workers, run_study
from repro.scenarios import (
    ScenarioEngine,
    expand_sweeps,
    replicate_scenarios,
    resolve_scenarios,
    sweep_from_flags,
)
from repro.workloads.generator import TraceGeneratorConfig

DEFAULT_SCENARIOS = ("baseline", "demand-surge", "machine-outage",
                     "calibration-drift", "policy-swap")


def build_scenarios(args, base_seed: int) -> List:
    names = tuple(name.strip() for name in args.scenarios.split(",")
                  if name.strip())
    scenarios = list(resolve_scenarios(names))
    if args.sweep:
        scenarios.append(sweep_from_flags(args.sweep))
    scenarios = expand_sweeps(scenarios)
    if args.replicates > 1:
        scenarios = replicate_scenarios(scenarios, args.replicates,
                                        base_seed=base_seed)
    return scenarios


def _printer(tag, quiet):
    """Print each study's completion as the run goes (silent if quiet)."""
    def printer(event):
        if event.kind == "study-done":
            print(f"  [{tag}] study {event.key} done "
                  f"({event.detail['jobs']} jobs, {event.detail['seconds']}s)")

    return None if quiet else printer


def run_sequential(config, scenarios, workers, quiet):
    """One ``run_study`` (with its own transient pool) per scenario."""
    started = time.perf_counter()
    traces = {
        scenario.name: run_study(config=scenario.apply_to(config),
                                 workers=workers, use_cache=False,
                                 on_event=_printer("seq", quiet)).trace
        for scenario in scenarios
    }
    return traces, time.perf_counter() - started


def run_suite(config, scenarios, workers, quiet):
    engine = ScenarioEngine(config, workers=workers,
                            on_event=_printer("suite", quiet))
    started = time.perf_counter()
    suite = engine.run(scenarios, use_cache=False)
    return suite, time.perf_counter() - started


def traces_match(traces, suite, scratch: Path) -> bool:
    for name, trace in traces.items():
        a = scratch / "a.npz"
        b = scratch / "b.npz"
        trace.to_npz(a)
        suite.run_for(name).trace.to_npz(b)
        if a.read_bytes() != b.read_bytes():
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=env_int("REPRO_BENCH_JOBS", 200))
    parser.add_argument(
        "--months", type=int, default=env_int("REPRO_BENCH_MONTHS", 2))
    parser.add_argument(
        "--seed", type=int, default=env_int("REPRO_BENCH_SEED", 7))
    parser.add_argument(
        "--workers", type=int,
        default=env_int("REPRO_BENCH_WORKERS", default_workers()))
    parser.add_argument(
        "--scenarios", default=",".join(DEFAULT_SCENARIOS),
        help="comma-separated scenario names (default: %(default)s)")
    parser.add_argument(
        "--sweep", action="append",
        help="sweep axis kind.field=v1,v2,... (repeatable)")
    parser.add_argument(
        "--replicates", type=int, default=1,
        help="seed replicates per scenario (default: %(default)s)")
    parser.add_argument("--output", default="BENCH_suite.json")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()

    config = TraceGeneratorConfig(
        total_jobs=args.jobs, months=args.months, seed=args.seed)
    scenarios = build_scenarios(args, base_seed=args.seed)
    print(f"suite: {len(scenarios)} scenarios x {args.jobs} jobs / "
          f"{args.months} months, {args.workers} workers")

    sequential_traces, sequential_seconds = run_sequential(
        config, scenarios, args.workers, quiet=args.quiet)
    print(f"sequential studies: {sequential_seconds:.2f}s")
    shared_suite, suite_seconds = run_suite(
        config, scenarios, args.workers, quiet=args.quiet)
    print(f"shared-pool suite scheduler: {suite_seconds:.2f}s")

    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        byte_identical = traces_match(sequential_traces, shared_suite,
                                      Path(scratch))
    speedup = (round(sequential_seconds / suite_seconds, 3)
               if suite_seconds > 0 else float("inf"))
    print(f"speedup {speedup}x, byte_identical={byte_identical}")
    if not byte_identical:
        raise SystemExit(
            "suite scheduler and sequential studies disagree on trace "
            "bytes")

    payload = {
        "benchmark": "suite_scheduler",
        "jobs": args.jobs,
        "months": args.months,
        "seed": args.seed,
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "scenarios": [scenario.name for scenario in scenarios],
        "replicates": args.replicates,
        "sweeps": args.sweep or [],
        "sequential_seconds": round(sequential_seconds, 3),
        "suite_seconds": round(suite_seconds, 3),
        "speedup": speedup,
        "byte_identical": byte_identical,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2))
    print(f"benchmark results written to {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
