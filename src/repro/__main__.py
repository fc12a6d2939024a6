"""Command-line interface of the study reproduction.

``python -m repro`` (or the ``repro`` console script) drives the parallel
sharded study runner and the analysis layer:

* ``repro run-study`` — generate the merged study trace across workers and
  optionally save it to JSON/CSV.
* ``repro figures`` — reproduce every trace-driven figure of the paper from
  a trace file or a freshly generated trace.
* ``repro report`` — the full characterisation report: fleet dashboard plus
  all reproduced figures.
* ``repro bench`` — measure the runner's multi-worker speedup and write the
  ``BENCH_runner.json`` artifact consumed by CI.
* ``repro export`` — export a trace for external notebooks: Parquet or
  Feather/Arrow IPC through the optional ``pyarrow`` dependency, or the
  built-in csv/json/npz formats.
* ``repro run-scenarios`` — execute a suite of declarative what-if scenarios
  (built-in catalog or a TOML/JSON spec) as one interleaved work queue on a
  shared worker pool, with fingerprint-keyed cache reuse; ``--sweep``
  expands parameter grids and ``--replicates`` adds seed re-rolls.
* ``repro compare-scenarios`` — run a suite and emit the per-scenario delta
  table (queue percentiles, utilisation, fidelity, status mix) against the
  baseline — mean ± 95% CI when replicated — as markdown and/or JSON.
* ``repro serve`` — run the study-service gateway: a long-lived
  multi-tenant HTTP server that accepts study/suite/sweep submissions,
  multiplexes tenants onto one shared worker pool, streams NDJSON
  progress, and serves finished traces/comparisons by fingerprint.
* ``repro submit`` / ``repro jobs`` / ``repro fetch`` — the stdlib client
  side of the gateway: submit a suite, follow its event stream, inspect
  or cancel jobs, download results.
* ``repro metrics`` — the process-wide metrics registry in Prometheus
  text format: scraped from a running gateway's ``/metrics``, or the
  local process's with ``--local``.
* ``repro cache`` — inspect or LRU-prune the on-disk trace cache.

``--trace-out FILE`` on any generating subcommand enables the span
tracer and writes the run's spans as Chrome trace-event JSON
(Perfetto-loadable); ``--profile-phases`` prints the same ``study.*``
span durations as per-phase stderr lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis import reproduce_all
from repro.analysis.compare import compare_suite
from repro.core.env import env_int
from repro.core.exceptions import ReproError
from repro.runner import StudyResult, default_workers, run_study
from repro.scenarios import (
    ScenarioEngine,
    builtin_scenarios,
    expand_sweeps,
    load_suite,
    replicate_scenarios,
    resolve_scenarios,
    sweep_from_flags,
)
from repro.telemetry import get_registry, get_tracer, render_prometheus
from repro.workloads.blocks import set_memory_budget
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TraceDataset


def _add_generation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-budget", default=os.environ.get("REPRO_MEMORY_BUDGET"),
        metavar="BYTES",
        help="resident-bytes budget for trace columns (suffixes K/M/G); "
             "datasets past it chunk into blocks that spill to disk "
             "(default: $REPRO_MEMORY_BUDGET, or fully resident)")
    parser.add_argument(
        "--jobs", type=int, default=env_int("REPRO_BENCH_JOBS", 6000),
        help="total jobs of the study trace (default: %(default)s)")
    parser.add_argument(
        "--months", type=int, default=env_int("REPRO_BENCH_MONTHS", 28),
        help="length of the study window in months (default: %(default)s)")
    parser.add_argument(
        "--seed", type=int, default=env_int("REPRO_BENCH_SEED", 7),
        help="root seed of the study (default: %(default)s)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per core, capped at 16)")
    parser.add_argument(
        "--shards", type=int, default=None,
        help="synthesis shards (default: equal to --workers; the result "
             "never depends on this, only the load balance does)")
    parser.add_argument(
        "--transpile-workers", type=int, default=None,
        help="transpile shards for rank-mode policy scenarios (default: "
             "equal to --workers; like --shards, a load-balance knob the "
             "result never depends on)")
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        help="directory of the on-disk trace cache (default: "
             "$REPRO_CACHE_DIR, or no caching)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the trace cache even when --cache-dir is set")
    parser.add_argument(
        "--profile-phases", action="store_true",
        help="print the per-phase wall-clock breakdown (plan/transpile/"
             "synthesis/simulation/merge) of every study on stderr; the "
             "transpile row is zero unless the study ranks machines over "
             "transpiled classes; the same numbers "
             "are embedded in the result metadata as 'phase_seconds' and "
             "are the durations of the study.* spans (--trace-out)")
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="enable span tracing and write the run's spans as Chrome "
             "trace-event JSON to FILE (loadable in Perfetto or "
             "chrome://tracing)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")


def _progress(quiet: bool):
    if quiet:
        return None
    return lambda message: print(f"[repro] {message}", file=sys.stderr)


def _print_phase_report(label: str, timings: Dict[str, float]) -> None:
    """One stderr line per study: its per-phase wall-clock breakdown."""
    parts = " ".join(f"{name}={seconds:.3f}s"
                     for name, seconds in sorted(timings.items()))
    print(f"[repro] phases[{label}]: {parts}", file=sys.stderr)


def _generate(args: argparse.Namespace, quiet: bool = False) -> StudyResult:
    config = TraceGeneratorConfig(
        total_jobs=args.jobs, months=args.months, seed=args.seed)
    result = run_study(
        config=config,
        workers=args.workers,
        num_shards=args.shards,
        cache_dir=None if args.no_cache else args.cache_dir,
        progress=_progress(quiet),
        use_cache=not args.no_cache,
        transpile_workers=getattr(args, "transpile_workers", None),
    )
    if getattr(args, "profile_phases", False):
        _print_phase_report("study", result.timings)
    return result


def _save_trace(trace: TraceDataset, output: str) -> None:
    path = Path(output)
    trace.save(path)
    print(f"trace written to {path}")


# -- subcommands --------------------------------------------------------------------


def cmd_run_study(args: argparse.Namespace) -> int:
    result = _generate(args, quiet=args.quiet)
    print(json.dumps(result.summary(), indent=2))
    if args.output:
        _save_trace(result.trace, args.output)
    return 0


def _load_or_generate_trace(args: argparse.Namespace):
    """The (trace, fleet) pair for analysis subcommands."""
    if getattr(args, "trace", None):
        trace = TraceDataset.load(args.trace)
        seed = int(trace.metadata.get("seed", args.seed))
        fleet = TraceGeneratorConfig(seed=seed).build_fleet()
        return trace, fleet
    result = _generate(args, quiet=args.quiet)
    return result.trace, result.config.build_fleet()


def cmd_figures(args: argparse.Namespace) -> int:
    trace, fleet = _load_or_generate_trace(args)
    report = reproduce_all(trace, fleet=fleet)
    if args.output:
        Path(args.output).write_text(json.dumps(report.as_dict(), indent=2))
        print(f"figure data written to {args.output}")
    if not args.quiet or not args.output:
        print(report.render(max_rows=args.max_rows))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.cloud import CloudDashboard

    trace, fleet = _load_or_generate_trace(args)
    dashboard = CloudDashboard(fleet, seed=args.seed)
    print(dashboard.render(at_time=0.0))
    print()
    report = reproduce_all(trace, fleet=fleet)
    print(report.render(max_rows=args.max_rows))
    if args.output:
        payload = {
            "trace_summary": trace.summary(),
            "figures": report.as_dict(),
        }
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"\nfull report written to {args.output}")
    return 0


_EXPORT_FORMATS = ("parquet", "feather", "arrow", "csv", "json", "npz")

#: output-suffix → export format for ``repro export`` (no --format given)
_EXPORT_SUFFIXES = {
    ".parquet": "parquet",
    ".feather": "feather",
    ".arrow": "feather",
    ".csv": "csv",
    ".json": "json",
    ".npz": "npz",
}


def cmd_export(args: argparse.Namespace) -> int:
    trace, _ = _load_or_generate_trace(args)
    output = Path(args.output)
    fmt = args.format or _EXPORT_SUFFIXES.get(output.suffix.lower())
    if fmt is None:
        print(f"repro export: cannot infer a format from {output.name!r}; "
              f"pass --format ({', '.join(_EXPORT_FORMATS)})",
              file=sys.stderr)
        return 2
    if fmt == "parquet":
        trace.to_parquet(output)
    elif fmt in ("feather", "arrow"):
        trace.to_feather(output)
    elif fmt == "csv":
        trace.to_csv(output)
    elif fmt == "json":
        trace.to_json(output)
    else:
        trace.to_npz(output)
    print(f"trace exported to {output} ({fmt}, {len(trace)} jobs)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    worker_counts: List[int] = sorted({
        max(1, int(w)) for w in args.worker_counts.split(",") if w.strip()
    })
    if not worker_counts:
        worker_counts = [1, default_workers()]
    config = TraceGeneratorConfig(
        total_jobs=args.jobs, months=args.months, seed=args.seed)
    runs: Dict[int, Dict[str, float]] = {}
    for workers in worker_counts:
        started = time.perf_counter()
        result = run_study(
            config=config, workers=workers, num_shards=args.shards,
            use_cache=False, progress=_progress(args.quiet))
        elapsed = time.perf_counter() - started
        runs[workers] = {
            "seconds": round(elapsed, 3),
            **{f"{name}_seconds": round(value, 3)
               for name, value in result.timings.items()},
        }
        print(f"workers={workers}: {elapsed:.2f}s "
              f"({len(result.trace)} jobs)")
    baseline = runs[worker_counts[0]]["seconds"]
    payload = {
        "benchmark": "runner_scaling",
        "jobs": args.jobs,
        "months": args.months,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "runs": {
            str(workers): {
                **metrics,
                "speedup": round(baseline / metrics["seconds"], 3)
                if metrics["seconds"] > 0 else None,
            }
            for workers, metrics in runs.items()
        },
    }
    best = max(runs, key=lambda w: baseline / runs[w]["seconds"])
    payload["best_speedup"] = round(baseline / runs[best]["seconds"], 3)
    payload["best_workers"] = best

    # Simulation-phase breakdown, measured directly on the two cores (the
    # suite's phase timings are *wait* times and collapse on an inline
    # single-worker pool): one fresh synthesis per engine — simulation
    # mutates jobs in place — then the simulation alone is timed.  The
    # terminal job states determine the trace bytes, so their equality is
    # the byte-equivalence smoke check; a divergence fails the bench run.
    from repro.cloud.fastsim import simulate_fleet
    from repro.cloud.service import QuantumCloudService
    from repro.workloads.generator import JobSynthesizer, plan_submissions

    def _synthesise_for_engine():
        fleet = config.build_fleet()
        synthesizer = JobSynthesizer(config, fleet)
        jobs = synthesizer.synthesise_many(plan_submissions(config))
        return fleet, [job for job in jobs if job is not None]

    engines: Dict[str, Dict[str, object]] = {}
    outcomes: Dict[str, List[tuple]] = {}
    sim_raw: Dict[str, float] = {}
    for engine in ("event", "batched"):
        sim_seconds = float("inf")
        for _ in range(5):  # best-of-5: drop cold-start and GC noise
            fleet, engine_jobs = _synthesise_for_engine()
            gc.collect()  # the study above leaves collectable garbage
            started = time.perf_counter()
            if engine == "event":
                service = QuantumCloudService(
                    fleet, seed=config.seed,
                    failure_model=config.build_failure_model())
                for job in sorted(engine_jobs,
                                  key=lambda j: (j.submit_time, j.job_id)):
                    service.submit(job)
                service.drain()
            else:
                simulate_fleet(fleet, engine_jobs, seed=config.seed,
                               failure_model=config.build_failure_model())
            sim_seconds = min(sim_seconds,
                              time.perf_counter() - started)
        sim_raw[engine] = sim_seconds
        outcomes[engine] = sorted(
            (job.job_id, job.status.value, job.queue_enter_time,
             job.start_time, job.end_time, job.pending_ahead)
            for job in engine_jobs)
        statuses = [job.status.value for job in engine_jobs]
        # ~4 events per completed job (dispatch/start/finish/chained
        # dispatch), ~3 per cancellation (dispatch/cancel/chained).
        events = (4 * sum(1 for s in statuses if s in ("DONE", "ERROR"))
                  + 3 * sum(1 for s in statuses if s == "CANCELLED"))
        engines[engine] = {
            "simulation_seconds": round(sim_seconds, 6),
            "jobs": len(engine_jobs),
            "events": events,
            "events_per_second": round(events / sim_seconds, 1)
            if sim_seconds > 0 else None,
        }
        print(f"engine={engine}: simulation phase {sim_seconds:.3f}s "
              f"({events} events)")
    byte_identical = outcomes["event"] == outcomes["batched"]
    event_sim = sim_raw["event"]
    batched_sim = sim_raw["batched"]
    payload["simulation_engines"] = {
        **engines,
        "speedup": round(event_sim / batched_sim, 3)
        if batched_sim > 0 else None,
        "byte_identical": byte_identical,
    }

    # Telemetry overhead: the batched simulation re-timed with the span
    # tracer *enabled* must stay within 2% (plus a 5 ms floor for timer
    # noise at smoke scale) of the tracer-off best-of-5 above — the
    # acceptance bound on the instrumentation's cost.
    tracer = get_tracer()
    tracer_was_enabled = tracer.enabled  # honour an outer --trace-out
    enabled_sim = float("inf")
    tracer.enable()
    try:
        for _ in range(5):
            fleet, engine_jobs = _synthesise_for_engine()
            gc.collect()
            started = time.perf_counter()
            simulate_fleet(fleet, engine_jobs, seed=config.seed,
                           failure_model=config.build_failure_model())
            enabled_sim = min(enabled_sim, time.perf_counter() - started)
    finally:
        if not tracer_was_enabled:
            tracer.disable()
    telemetry_ok = enabled_sim <= batched_sim * 1.02 + 0.005
    payload["telemetry"] = {
        "batched_seconds_tracing_off": round(batched_sim, 6),
        "batched_seconds_tracing_on": round(enabled_sim, 6),
        "overhead_fraction": round(enabled_sim / batched_sim - 1.0, 4)
        if batched_sim > 0 else None,
        "within_bound": telemetry_ok,
    }
    print(f"telemetry: batched sim {batched_sim:.3f}s off / "
          f"{enabled_sim:.3f}s on "
          f"({payload['telemetry']['overhead_fraction']:+.1%} overhead)")

    # One fully traced study at the best worker count: its Chrome trace
    # becomes the TRACE_sample.json CI artifact, and the per-phase span
    # totals it accumulates on the registry land in the payload next to
    # the engine numbers.
    if not tracer_was_enabled:
        tracer.reset()
    tracer.enable()
    try:
        run_study(config=config, workers=best, num_shards=args.shards,
                  use_cache=False, progress=None)
    finally:
        if not tracer_was_enabled:
            tracer.disable()
    sample_path = Path(args.trace_sample)
    tracer.write_chrome_trace(sample_path)
    registry = get_registry()
    payload["phase_spans"] = {
        phase: round(registry.value("repro_runner_phase_seconds_total",
                                    phase=phase), 3)
        for phase in ("plan", "synthesis", "simulation", "merge")
    }
    print(f"sample span trace written to {sample_path} "
          f"({len(tracer.spans())} spans)")

    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2))
    print(f"benchmark results written to {output} "
          f"(best speedup {payload['best_speedup']}x at {best} workers, "
          f"batched engine "
          f"{payload['simulation_engines']['speedup']}x vs event)")
    if not byte_identical:
        print("repro bench: batched and event engine traces DIVERGED — "
              "the golden byte-equivalence contract is broken",
              file=sys.stderr)
        return 1
    if not telemetry_ok:
        print("repro bench: span tracing overhead exceeded the 2% bound "
              "on the batched simulation engine", file=sys.stderr)
        return 1
    return 0


# -- scenario subcommands -----------------------------------------------------------


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec",
        help="scenario suite spec file (.toml or .json); default: the "
             "built-in catalog")
    parser.add_argument(
        "--scenarios",
        help="comma-separated scenario names to run (default: all)")
    parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit")
    parser.add_argument(
        "--sweep", action="append", metavar="KIND.FIELD=V1,V2,...",
        help="add a parameter-grid scenario sweeping one perturbation "
             "field over comma-separated values (e.g. "
             "backlog_shift.scale=1,2,4,8); repeat the flag to form the "
             "cartesian grid across several axes")
    parser.add_argument(
        "--replicates", type=int, default=1,
        help="run every scenario as this many seed re-rolls and report "
             "each headline metric as mean ± 95%% CI over the replicates "
             "(default: %(default)s)")
    parser.add_argument(
        "--progress", action="store_true", dest="shard_progress",
        help="print shard-level progress (completed/total plus a "
             "wall-clock ETA) while the suite runs")


def _resolve_suite(args: argparse.Namespace):
    """(base config, scenarios, catalog) for the scenario subcommands.

    A spec file's ``[study]`` table sets the baseline, but knobs given
    explicitly on the command line (or through the ``REPRO_BENCH_*``
    environment) win over it.
    """
    base = TraceGeneratorConfig(
        total_jobs=args.jobs, months=args.months, seed=args.seed)
    if args.spec:
        spec = load_suite(args.spec)
        catalog = spec.catalog()
        cli_set = {
            name for name, value, default in (
                ("total_jobs", args.jobs, 6000),
                ("months", args.months, 28),
                ("seed", args.seed, 7),
            ) if value != default
        }
        overrides = {key: value
                     for key, value in spec.study_overrides.items()
                     if key not in cli_set}
        if overrides:
            base = dataclasses.replace(base, **overrides)
    else:
        catalog = builtin_scenarios()
    names = None
    if args.scenarios:
        names = tuple(name.strip() for name in args.scenarios.split(",")
                      if name.strip())
    scenarios = list(resolve_scenarios(names, catalog))
    if getattr(args, "sweep", None):
        scenarios.append(sweep_from_flags(args.sweep))
    scenarios = expand_sweeps(scenarios)
    replicates = int(getattr(args, "replicates", 1))
    if replicates != 1:
        # Delegate validation too: replicate_scenarios rejects counts < 1.
        scenarios = replicate_scenarios(scenarios, replicates,
                                        base_seed=base.seed)
    return base, tuple(scenarios), catalog


def _scenario_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """Scenario runs default to an on-disk cache (reuse is the point)."""
    if args.no_cache:
        return None
    return args.cache_dir or ".repro-cache"


def _list_scenarios(catalog) -> int:
    for name in sorted(catalog):
        print(f"{name}: {catalog[name].describe()}")
    return 0


def _event_printer(args: argparse.Namespace):
    """The on_event hook behind ``--progress``: shard counts plus ETA."""
    if not getattr(args, "shard_progress", False):
        return None

    def printer(event) -> None:
        if event.kind == "shard-done":
            eta = (f", eta {event.eta_seconds:.1f}s"
                   if event.eta_seconds is not None else "")
            print(f"[repro] {event.completed}/{event.total} shards "
                  f"({event.phase}{eta})", file=sys.stderr)
        elif event.kind == "study-done":
            print(f"[repro] study {event.key} done "
                  f"({event.detail.get('jobs')} jobs, "
                  f"{event.detail.get('seconds')}s)", file=sys.stderr)
        elif event.kind == "suite-done":
            print(f"[repro] suite done: {event.detail.get('studies')} "
                  f"studies, {event.detail.get('cache_hits')} cache hits "
                  f"in {event.elapsed_seconds:.1f}s", file=sys.stderr)

    return printer


def _run_suite(args: argparse.Namespace):
    base, scenarios, _ = _resolve_suite(args)
    scenario_engine = ScenarioEngine(
        base,
        workers=args.workers,
        num_shards=args.shards,
        cache=_scenario_cache_dir(args),
        progress=_progress(args.quiet),
        on_event=_event_printer(args),
        transpile_workers=getattr(args, "transpile_workers", None),
    )
    suite = scenario_engine.run(scenarios, use_cache=not args.no_cache)
    if getattr(args, "profile_phases", False):
        for run in suite:
            _print_phase_report(run.name, run.result.timings)
    return suite


def cmd_run_scenarios(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        return _list_scenarios(_resolve_suite(args)[2])
    suite = _run_suite(args)
    print(json.dumps(suite.summary(), indent=2))
    if args.output_dir:
        directory = Path(args.output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for run in suite:
            path = directory / f"{run.name}.npz"
            run.trace.save(path)
            print(f"scenario {run.name} trace written to {path}")
    return 0


def cmd_compare_scenarios(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        return _list_scenarios(_resolve_suite(args)[2])
    suite = _run_suite(args)
    analysis_started = time.perf_counter()
    report = compare_suite(suite)
    if args.profile_phases:
        _print_phase_report("analysis", {
            "compare": time.perf_counter() - analysis_started})
    markdown = report.render_markdown()
    replicate_counts = {report.baseline_replicates}
    replicate_counts.update(c.replicates for c in report.comparisons)
    replicated = max(replicate_counts) > 1
    if args.report:
        baseline = report.baseline_name
        lines = [
            "# Scenario comparison",
            "",
            f"Per-scenario deltas against the `{baseline}` scenario "
            f"({len(suite)} scenarios, "
            f"{suite.summary()['cache_hits']} served from cache)."
            + (f" Headline values are mean ±95% CI over "
               f"{max(replicate_counts)} seed replicates."
               if replicated else ""),
            "",
            markdown,
            "",
            "## Scenarios",
            "",
        ]
        lines.extend(f"- **{run.name}** — {run.scenario.describe()}"
                     for run in suite)
        Path(args.report).write_text("\n".join(lines) + "\n")
        print(f"markdown report written to {args.report}")
    if args.output:
        base = suite.base_config
        payload = {
            "benchmark": "scenario_comparison",
            "jobs": base.total_jobs,
            "months": base.months,
            "seed": base.seed,
            "replicates": max(replicate_counts),
            "suite": suite.summary(),
            "comparison": report.as_dict(),
        }
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"comparison data written to {args.output}")
    if not args.quiet or not (args.output or args.report):
        print(markdown)
    return 0


# -- service subcommands ------------------------------------------------------------


def _service_url(args: argparse.Namespace) -> str:
    return (args.url or os.environ.get("REPRO_SERVICE_URL")
            or "http://127.0.0.1:8765")


def _study_overrides(args: argparse.Namespace) -> Dict[str, int]:
    """Baseline knobs the user set explicitly (defaults stay server-side)."""
    return {
        name: value
        for name, value, default in (
            ("total_jobs", args.jobs, 6000),
            ("months", args.months, 28),
            ("seed", args.seed, 7),
        ) if value != default
    }


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import StudyService, serve

    config = TraceGeneratorConfig(
        total_jobs=args.jobs, months=args.months, seed=args.seed)
    service = StudyService(
        config,
        workers=args.workers,
        num_shards=args.shards,
        cache_dir=args.cache_dir or ".repro-cache",
        max_cache_bytes=args.max_cache_bytes,
        tenant_quota=args.tenant_quota,
        executors=args.executors,
    )
    print(f"[repro] study service listening on "
          f"http://{args.host}:{args.port} "
          f"({service.pool.workers} workers, {args.executors} executors, "
          f"cache {service.store.root})", file=sys.stderr)
    serve(service, args.host, args.port)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.scenarios import read_spec_payload
    from repro.service import StudyServiceClient

    payload: Dict[str, object] = {}
    if args.spec:
        payload["suite"] = read_spec_payload(args.spec)
    if args.scenarios:
        payload["scenarios"] = [name.strip()
                                for name in args.scenarios.split(",")
                                if name.strip()]
    if args.sweep:
        payload["sweep"] = list(args.sweep)
    if args.replicates != 1:
        payload["replicates"] = args.replicates
    if args.no_compare:
        payload["compare"] = False
    if args.no_cache:
        payload["use_cache"] = False
    overrides = _study_overrides(args)
    if overrides:
        payload["study"] = overrides

    client = StudyServiceClient(_service_url(args), tenant=args.tenant)
    snapshot = client.submit(payload)
    job_id = snapshot["job"]
    print(f"[repro] submitted {job_id} as tenant {args.tenant!r}",
          file=sys.stderr)
    if args.detach:
        print(json.dumps(snapshot, indent=2))
        return 0
    for event in client.events(job_id):
        if not args.quiet:
            print(f"[repro] {json.dumps(event)}", file=sys.stderr)
    final = client.job(job_id)
    print(json.dumps(final, indent=2))
    return 0 if final.get("state") == "done" else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import StudyServiceClient

    client = StudyServiceClient(_service_url(args), tenant=args.tenant)
    if args.cancel:
        print(json.dumps(client.cancel(args.cancel), indent=2))
        return 0
    if args.job:
        print(json.dumps(client.job(args.job), indent=2))
        return 0
    jobs = client.jobs(args.tenant if args.mine else None)
    print(json.dumps({"jobs": jobs}, indent=2))
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    from repro.service import StudyServiceClient

    client = StudyServiceClient(_service_url(args), tenant=args.tenant)
    if args.trace:
        output = Path(args.output or f"trace-{args.trace}.npz")
        # Stream chunks straight to the file: a multi-month trace body
        # must never be buffered whole in this process.
        written = client.fetch_trace_to(args.trace, output)
        print(f"trace {args.trace} written to {output} "
              f"({written} bytes)")
        return 0
    if args.comparison:
        payload = client.fetch_comparison(args.comparison)
        if args.output:
            Path(args.output).write_text(json.dumps(payload, indent=2))
            print(f"comparison written to {args.output}")
        else:
            print(json.dumps(payload, indent=2))
        return 0
    if args.job:
        print(json.dumps(client.result(args.job), indent=2))
        return 0
    print("repro fetch: pass --trace FINGERPRINT, --comparison KEY "
          "or --job ID", file=sys.stderr)
    return 2


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.local:
        registry = get_registry()
        if args.json:
            print(json.dumps(registry.snapshot(), indent=2))
        else:
            print(render_prometheus(registry), end="")
        return 0
    from repro.service import StudyServiceClient

    client = StudyServiceClient(_service_url(args), tenant=args.tenant)
    text = client.metrics()
    if args.json:
        from repro.telemetry import parse_prometheus_text

        print(json.dumps(parse_prometheus_text(text), indent=2,
                         sort_keys=True))
    else:
        print(text, end="")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.runner import TraceCache
    from repro.transpiler.cache import TranspileCache

    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") \
        or ".repro-cache"
    cache = TraceCache(root)
    transpile_cache = TranspileCache(root)
    entries = cache.entries()
    transpile_entries = transpile_cache.entries()
    if args.prune:
        if args.max_bytes is None:
            print("repro cache: --prune requires --max-bytes",
                  file=sys.stderr)
            return 2
        # Traces dwarf transpile summaries, so the byte budget applies to
        # each namespace independently: pruning traces never starves the
        # (tiny, expensive-to-refill) transpile entries, and vice versa.
        evicted = cache.prune(args.max_bytes)
        transpile_evicted = transpile_cache.prune(args.max_bytes)
        print(json.dumps({
            "root": str(cache.root),
            "evicted": [entry.as_dict() for entry in evicted],
            "remaining_bytes": cache.total_bytes(),
            "transpile_evicted": [entry.as_dict()
                                  for entry in transpile_evicted],
            "transpile_remaining_bytes": transpile_cache.total_bytes(),
        }, indent=2))
        return 0
    payload: Dict[str, object] = {
        "root": str(cache.root),
        "entries": len(entries),
        "total_bytes": sum(entry.size_bytes for entry in entries),
        "transpile_entries": len(transpile_entries),
        "transpile_total_bytes": sum(entry.size_bytes
                                     for entry in transpile_entries),
    }
    if args.list_entries:
        payload["cache"] = [entry.as_dict() for entry in entries]
        payload["transpile_cache"] = [entry.as_dict()
                                      for entry in transpile_entries]
    print(json.dumps(payload, indent=2))
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IISWC'21 quantum-cloud "
                    "characterisation study.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run-study", help="generate the merged study trace in parallel")
    _add_generation_arguments(run_parser)
    run_parser.add_argument(
        "--output",
        help="write the trace to this path (.npz, .json or .csv)")
    run_parser.set_defaults(handler=cmd_run_study)

    figures_parser = subparsers.add_parser(
        "figures", help="reproduce the paper's trace-driven figures")
    _add_generation_arguments(figures_parser)
    figures_parser.add_argument(
        "--trace",
        help="reuse a trace file (.npz/.json/.csv) instead of generating one")
    figures_parser.add_argument(
        "--output", help="write the figure data as JSON to this path")
    figures_parser.add_argument(
        "--max-rows", type=int, default=12,
        help="rows per rendered table (default: %(default)s)")
    figures_parser.set_defaults(handler=cmd_figures)

    report_parser = subparsers.add_parser(
        "report", help="fleet dashboard plus the full reproduced study")
    _add_generation_arguments(report_parser)
    report_parser.add_argument(
        "--trace",
        help="reuse a trace file (.npz/.json/.csv) instead of generating one")
    report_parser.add_argument(
        "--output", help="write the full report as JSON to this path")
    report_parser.add_argument(
        "--max-rows", type=int, default=12,
        help="rows per rendered table (default: %(default)s)")
    report_parser.set_defaults(handler=cmd_report)

    bench_parser = subparsers.add_parser(
        "bench", help="measure runner speedup and write BENCH_runner.json")
    _add_generation_arguments(bench_parser)
    bench_parser.add_argument(
        "--worker-counts", default=f"1,{default_workers()}",
        help="comma-separated worker counts to time (default: %(default)s)")
    bench_parser.add_argument(
        "--output", default="BENCH_runner.json",
        help="artifact path (default: %(default)s)")
    bench_parser.add_argument(
        "--trace-sample", default="TRACE_sample.json", metavar="FILE",
        help="write the traced sample study's Chrome trace-event JSON "
             "here (default: %(default)s)")
    bench_parser.set_defaults(handler=cmd_bench)

    export_parser = subparsers.add_parser(
        "export",
        help="export a trace for external notebooks "
             "(Parquet/Feather via optional pyarrow, or csv/json/npz)")
    _add_generation_arguments(export_parser)
    export_parser.add_argument(
        "--trace",
        help="export this trace file (.npz/.json/.csv) instead of "
             "generating one")
    export_parser.add_argument(
        "--output", required=True,
        help="destination path; the suffix picks the format unless "
             "--format is given")
    export_parser.add_argument(
        "--format", choices=_EXPORT_FORMATS, default=None,
        help="export format (default: inferred from the --output suffix)")
    export_parser.set_defaults(handler=cmd_export)

    run_scenarios_parser = subparsers.add_parser(
        "run-scenarios",
        help="execute declarative what-if scenarios through the runner")
    _add_generation_arguments(run_scenarios_parser)
    _add_scenario_arguments(run_scenarios_parser)
    run_scenarios_parser.add_argument(
        "--output-dir",
        help="write each scenario's trace as <name>.npz into this directory")
    run_scenarios_parser.set_defaults(handler=cmd_run_scenarios)

    compare_parser = subparsers.add_parser(
        "compare-scenarios",
        help="run scenarios and emit per-scenario deltas vs the baseline")
    _add_generation_arguments(compare_parser)
    _add_scenario_arguments(compare_parser)
    compare_parser.add_argument(
        "--output",
        help="write the comparison (plus run timings) as JSON to this path")
    compare_parser.add_argument(
        "--report", help="write a markdown scenario report to this path")
    compare_parser.set_defaults(handler=cmd_compare_scenarios)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the study-service gateway (multi-tenant HTTP server "
             "over one shared worker pool)")
    _add_generation_arguments(serve_parser)
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: %(default)s)")
    serve_parser.add_argument(
        "--port", type=int, default=env_int("REPRO_SERVICE_PORT", 8765),
        help="listen port (default: %(default)s)")
    serve_parser.add_argument(
        "--tenant-quota", type=int, default=8,
        help="max queued+running jobs per tenant (default: %(default)s)")
    serve_parser.add_argument(
        "--executors", type=int, default=2,
        help="concurrent jobs multiplexed onto the shared pool "
             "(default: %(default)s)")
    serve_parser.add_argument(
        "--max-cache-bytes", type=int, default=None,
        help="LRU-evict the result store down to this many bytes after "
             "each job (default: unbounded)")
    serve_parser.set_defaults(handler=cmd_serve)

    def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--url", default=None,
            help="gateway base URL (default: $REPRO_SERVICE_URL or "
                 "http://127.0.0.1:8765)")
        parser.add_argument(
            "--tenant", default="default",
            help="tenant to act as (default: %(default)s)")

    submit_parser = subparsers.add_parser(
        "submit", help="submit a scenario suite to a running study service")
    _add_generation_arguments(submit_parser)
    _add_client_arguments(submit_parser)
    submit_parser.add_argument(
        "--spec", help="scenario suite spec file (.toml or .json) to "
                       "submit (default: the server's built-in catalog)")
    submit_parser.add_argument(
        "--scenarios",
        help="comma-separated scenario names to run (default: all)")
    submit_parser.add_argument(
        "--sweep", action="append", metavar="KIND.FIELD=V1,V2,...",
        help="sweep axis, as in run-scenarios (repeatable)")
    submit_parser.add_argument(
        "--replicates", type=int, default=1,
        help="seed re-rolls per scenario (default: %(default)s)")
    submit_parser.add_argument(
        "--no-compare", action="store_true",
        help="skip the baseline-delta comparison on the server")
    submit_parser.add_argument(
        "--detach", action="store_true",
        help="return after submission instead of streaming events")
    submit_parser.set_defaults(handler=cmd_submit)

    jobs_parser = subparsers.add_parser(
        "jobs", help="list, inspect or cancel study-service jobs")
    _add_client_arguments(jobs_parser)
    jobs_parser.add_argument("--job", help="show one job's status")
    jobs_parser.add_argument("--cancel", metavar="JOB",
                             help="cancel a queued or running job")
    jobs_parser.add_argument(
        "--mine", action="store_true",
        help="only list this tenant's jobs")
    jobs_parser.set_defaults(handler=cmd_jobs)

    fetch_parser = subparsers.add_parser(
        "fetch", help="download results from a study service")
    _add_client_arguments(fetch_parser)
    fetch_parser.add_argument(
        "--trace", metavar="FINGERPRINT",
        help="fetch a finished trace by config fingerprint (.npz bytes)")
    fetch_parser.add_argument(
        "--comparison", metavar="KEY",
        help="fetch a stored suite comparison by content key")
    fetch_parser.add_argument("--job", help="fetch a job's result summary")
    fetch_parser.add_argument(
        "--output", help="write the fetched payload to this path")
    fetch_parser.set_defaults(handler=cmd_fetch)

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="dump the metrics registry in Prometheus text format "
             "(scraped from a gateway's /metrics, or --local)")
    _add_client_arguments(metrics_parser)
    metrics_parser.add_argument(
        "--local", action="store_true",
        help="dump this process's registry instead of scraping a gateway")
    metrics_parser.add_argument(
        "--json", action="store_true",
        help="emit parsed samples as JSON instead of the raw exposition")
    metrics_parser.set_defaults(handler=cmd_metrics)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or LRU-prune the on-disk trace and "
                      "transpile caches")
    cache_parser.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)")
    cache_parser.add_argument(
        "--list", action="store_true", dest="list_entries",
        help="list every entry (key, size, recency), LRU first")
    cache_parser.add_argument(
        "--prune", action="store_true",
        help="evict least-recently-used entries down to --max-bytes")
    cache_parser.add_argument(
        "--max-bytes", type=int, default=None,
        help="byte budget for --prune (0 clears the cache)")
    cache_parser.set_defaults(handler=cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = getattr(args, "memory_budget", None)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        get_tracer().enable()
    try:
        if budget is not None:
            set_memory_budget(budget)
        return int(args.handler(args))
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"repro: error: {exc.filename or exc} not found", file=sys.stderr)
        return 2
    finally:
        if trace_out:
            tracer = get_tracer()
            tracer.disable()
            path = tracer.write_chrome_trace(trace_out)
            print(f"[repro] span trace written to {path} "
                  f"({len(tracer.spans())} spans)", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
