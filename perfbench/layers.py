"""Direct calls into the program's layers, timed in the benchmark process.

The traced run uses these for the layer metrics a program trace cannot
give: single-process synthesis on a fresh and on a warmed fleet (the
calibration-snapshot share), the pickled job lists that cross the pool,
the figure suite, and the read side of a what-if analysis (resolve,
compare, store).  Each call is wrapped in a :class:`~spans.Recorder` span.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from harness import BenchError, import_program
from spans import Recorder

import_program()

from repro.analysis import reproduce_all  # noqa: E402
from repro.analysis.compare import compare_suite, headline_metrics  # noqa: E402
from repro.runner.sharding import plan_machine_groups, plan_shards  # noqa: E402
from repro.scenarios import (  # noqa: E402
    builtin_scenarios,
    resolve_scenarios,
    run_scenarios,
)
from repro.service.store import ResultStore, comparison_key  # noqa: E402
from repro.telemetry import get_tracer  # noqa: E402
from repro.transpiler.cache import (  # noqa: E402
    DEFAULT_RANK_SEED,
    TranspileCache,
    backend_fingerprint,
    transpile_cache_key,
)
from repro.workloads.circuit_metrics import class_fingerprint  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    JobSynthesizer,
    TraceGeneratorConfig,
    plan_submissions,
    plan_transpile_classes,
)
from repro.workloads.trace import TraceDataset  # noqa: E402
from repro.workloads.transpile_classes import ClassRankTable  # noqa: E402


def base_config(jobs: int, months: int, seed: int) -> TraceGeneratorConfig:
    return TraceGeneratorConfig(total_jobs=jobs, months=months, seed=seed)


def suite(names: Sequence[str]):
    return resolve_scenarios(tuple(names), builtin_scenarios())


def transpile_plan(config: TraceGeneratorConfig, rec: Recorder
                   ) -> Tuple[List[Tuple[str, int, str]], Dict[str, int]]:
    """The (family, width, machine) classes a rank study transpiles."""
    with rec.span("bench.plan_transpile_classes"):
        return plan_transpile_classes(config, config.build_fleet())


def rank_table(config: TraceGeneratorConfig, cache_root: Path,
               pairs: Sequence[Tuple[str, int, str]]) -> ClassRankTable:
    """A rank study's class table, read back from an op's transpile cache."""
    fleet = config.build_fleet()
    cache = TranspileCache(cache_root)
    level = config.scenario.ranking_level
    summaries = []
    for family, width, machine in pairs:
        summary = cache.get(transpile_cache_key(
            class_fingerprint(family, width),
            backend_fingerprint(fleet[machine]), level, DEFAULT_RANK_SEED))
        if summary is None:
            raise BenchError(f"transpile cache {cache_root} lacks the class "
                             f"{(family, width, machine)}")
        summaries.append(summary)
    return ClassRankTable(objective=config.scenario.ranking_objective,
                          level=level, summaries=summaries)


def synthesis(studies: Sequence[Tuple[TraceGeneratorConfig,
                                      Optional[ClassRankTable]]],
              workers: int, rec: Recorder) -> Dict[str, float]:
    """Single-process synthesis of an op's studies, three passes each.

    The first pass runs on a fresh fleet in a process whose memo caches
    are as cold as a pool worker's; it also yields the per-shard job lists
    whose pickles size the pool hops.  The second runs on another fresh
    fleet once the memo caches are warm, the third repeats it on that same
    fleet, so the second minus the third is calibration-snapshot building.
    """
    totals = {"cold_s": 0.0, "fresh_s": 0.0, "repeat_s": 0.0, "jobs": 0,
              "ipc_bytes": 0, "ipc_s": 0.0}
    for config, table in studies:
        shards = plan_shards(config, plan_submissions(config), workers)

        def synthesise(fleet, label):
            synthesizer = JobSynthesizer(config, fleet, rank_table=table)
            with rec.span(f"bench.synthesise.{label}",
                          jobs=config.total_jobs) as timing:
                lists = [[job for job in map(synthesizer.synthesise,
                                             shard.submissions)
                          if job is not None] for shard in shards]
            return lists, timing.seconds

        shard_jobs, seconds = synthesise(config.build_fleet(), "cold")
        totals["cold_s"] += seconds
        fleet = config.build_fleet()
        totals["fresh_s"] += synthesise(fleet, "fresh")[1]
        totals["repeat_s"] += synthesise(fleet, "repeat")[1]

        jobs = [job for jobs_of_shard in shard_jobs for job in jobs_of_shard]
        totals["jobs"] += len(jobs)
        by_machine: Dict[str, list] = {}
        for job in jobs:
            by_machine.setdefault(job.backend_name, []).append(job)
        groups = plan_machine_groups(
            {name: len(group) for name, group in by_machine.items()},
            workers)
        hops = shard_jobs + [[job for name in group.machines
                              for job in by_machine[name]]
                             for group in groups]
        with rec.span("bench.pickle_hops", lists=len(hops)) as timing:
            for payload in hops:
                data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
                pickle.loads(data)
                totals["ipc_bytes"] += len(data)
        totals["ipc_s"] += timing.seconds
    return totals


def figures(trace_path: Path, config: TraceGeneratorConfig,
            rec: Recorder) -> float:
    """``reproduce_all`` on an op's cached trace."""
    trace = TraceDataset.load(trace_path)
    fleet = config.build_fleet()
    with rec.span("bench.reproduce_all", jobs=len(trace)) as timing:
        reproduce_all(trace, fleet=fleet)
    return timing.seconds


def read_side(config: TraceGeneratorConfig, names: Sequence[str],
              cache_dir: Path, store_dir: Path, workers: int,
              rec: Recorder) -> Tuple[Dict[str, float], object]:
    """Resolve, compare and store one suite over a filled cache; returns
    the timings and the resolved suite."""
    scenarios = suite(names)
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        with rec.span("bench.run_scenarios", scenarios=len(scenarios)) \
                as resolve:
            result = run_scenarios(scenarios, config, workers=workers,
                                   cache_dir=cache_dir)
    finally:
        tracer.disable()
    gets = [span["duration"] for span in tracer.spans()
            if span["name"] == "cache.get"]
    tracer.reset()
    if not gets:
        raise BenchError("the warm resolve left no cache.get span")
    cache_get_s = sum(gets)

    with rec.span("bench.compare_suite") as compare:
        report = compare_suite(result)
    key = comparison_key([(run.name, run.fingerprint,
                           run.scenario.replicate_of) for run in result])
    payload = {"comparison_key": key, "suite": result.summary(),
               "comparison": report.as_dict()}
    store = ResultStore(store_dir)
    puts = []
    for _ in range(5):
        with rec.span("bench.put_comparison") as put:
            store.put_comparison(key, payload)
        puts.append(put.seconds)
    puts.sort()
    return {"resolve_s": resolve.seconds, "cache_get_s": cache_get_s,
            "compare_s": compare.seconds,
            "store_put_s": puts[len(puts) // 2]}, result


def headline_calibration(result, rec: Recorder) -> float:
    """Calibration-snapshot seconds inside the comparison of a suite.

    Run after :func:`read_side`, whose ``compare_suite`` filled the
    process-wide memo caches: each scenario's headline metrics on a fresh
    fleet, minus the same call repeated on that fleet.
    """
    build_s = 0.0
    for run in result:
        fleet = run.build_fleet()
        with rec.span("bench.headline_metrics.fresh",
                      scenario=run.name) as fresh:
            headline_metrics(run.trace, fleet)
        with rec.span("bench.headline_metrics.repeat",
                      scenario=run.name) as repeat:
            headline_metrics(run.trace, fleet)
        build_s += fresh.seconds - repeat.seconds
    return build_s
