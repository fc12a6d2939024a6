"""The cold workloads: one fresh CLI process per op over an empty cache.

``paper-study`` runs ``repro figures`` at the paper's scale (a cold study,
the trace-cache write, the full figure suite); ``whatif-cold`` runs
``repro run-scenarios`` over three scenarios, one of which ranks machines
over level-3 transpiles, filling both the trace and the transpile cache.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

from harness import (
    SCENARIOS,
    WORKERS,
    BenchError,
    OpResult,
    OutputChecks,
    closed_loop,
    first_json,
    median,
    repro_argv,
    run_child,
    sha256_file,
    tail,
    timed_metrics,
    tree_bytes,
)
from spans import Recorder, SpanTable

#: worker-side layer times of a cold op; the traced run names the largest
BUSY_LAYERS = ("generator.synthesis_s", "fastsim.busy_s",
               "transpiler.busy_s", "figures.busy_s")


def npz_rows(path: Path) -> int:
    with numpy.load(path, allow_pickle=False) as arrays:
        return int(arrays["col__job_id"].shape[0])


@dataclass
class ColdWorkload:
    name: str
    jobs: int
    months: int
    deadline: float

    def argv(self, ctx, opdir: Path, trace_out: Optional[Path]):
        raise NotImplementedError

    def check(self, ctx, opdir: Path, stdout: str, result: OpResult) -> None:
        raise NotImplementedError

    def op(self, ctx, label: str, trace_out: Optional[Path] = None,
           keep: bool = False) -> OpResult:
        """Run one op; its wall-clock ends once its outputs are checked."""
        opdir = ctx.workdir / label
        opdir.mkdir(parents=True)
        started = time.perf_counter()
        finished = run_child(self.argv(ctx, opdir, trace_out), env=ctx.env,
                             logs=opdir / "cli", deadline=ctx.deadline(self))
        result = OpResult(label, 0.0, finished.peak_rss_mb,
                          extra={"pid": finished.pid,
                                 "cpu_s": finished.cpu_s})
        if finished.timed_out:
            result.failure = f"deadline of {ctx.deadline(self):.0f}s passed"
        elif finished.returncode != 0:
            result.failure = (f"exit code {finished.returncode}: "
                              f"{tail(opdir / 'cli.err', 5)}")
        else:
            try:
                self.check(ctx, opdir,
                           (opdir / "cli.out").read_text(errors="replace"),
                           result)
            except Exception as exc:  # a failed check fails this op only
                result.failure = f"output check: {exc!r}"
        result.seconds = time.perf_counter() - started
        result.extra["cache_bytes"] = tree_bytes(opdir / "cache") \
            if (opdir / "cache").is_dir() else 0
        if not keep:
            shutil.rmtree(opdir, ignore_errors=True)
        return result


class PaperStudy(ColdWorkload):
    def argv(self, ctx, opdir, trace_out):
        jobs, months = ctx.scale(self)
        return repro_argv(
            "figures", "--jobs", jobs, "--months", months,
            "--seed", ctx.seed, "--workers", WORKERS,
            "--cache-dir", opdir / "cache",
            "--output", opdir / "figures.json", "--quiet",
            *(("--trace-out", trace_out) if trace_out else ()))

    def check(self, ctx, opdir, stdout, result):
        entries = sorted((opdir / "cache").glob("trace-*.npz"))
        if len(entries) != 1:
            raise ValueError(f"expected one cached trace, found "
                             f"{len(entries)}")
        result.rows = npz_rows(entries[0])
        result.extra["trace_path"] = entries[0]
        result.digests = {"trace": sha256_file(entries[0]),
                          "figures": sha256_file(opdir / "figures.json")}


class WhatifCold(ColdWorkload):
    def argv(self, ctx, opdir, trace_out):
        jobs, months = ctx.scale(self)
        return repro_argv(
            "run-scenarios", "--jobs", jobs, "--months", months,
            "--seed", ctx.seed, "--workers", WORKERS,
            "--cache-dir", opdir / "cache",
            "--scenarios", ",".join(SCENARIOS),
            "--output-dir", opdir / "out", "--quiet",
            *(("--trace-out", trace_out) if trace_out else ()))

    def check(self, ctx, opdir, stdout, result):
        summary = first_json(stdout)
        result.rows = sum(int(run["jobs"]) for run in summary["scenarios"])
        result.digests = {name: sha256_file(opdir / "out" / f"{name}.npz")
                          for name in SCENARIOS}
        result.digests["transpile_entries"] = len(
            list((opdir / "cache").glob("transpile-*.json")))


PAPER_STUDY = PaperStudy("paper-study", jobs=6000, months=28, deadline=90.0)
WHATIF_COLD = WhatifCold("whatif-cold", jobs=1000, months=6, deadline=90.0)


def preflight(ctx, runs: int = 5) -> float:
    """Set-up: the CLI must start and answer; median of a few starts."""
    seconds = []
    for index in range(runs):
        started = time.perf_counter()
        directory = ctx.workdir / f"preflight-{index}"
        directory.mkdir(parents=True)
        finished = run_child(
            repro_argv("cache", "--cache-dir", directory / "cache"),
            env=ctx.env, logs=directory / "cli", deadline=60.0)
        if finished.returncode != 0:
            raise BenchError(f"the program does not start: "
                            f"{tail(directory / 'cli.err', 5)}")
        first_json((directory / "cli.out").read_text())
        seconds.append(time.perf_counter() - started)
    return median(seconds)


def planned_cold_classes(ctx, workload: ColdWorkload, rec: Recorder):
    """The rank study's planned (family, width, machine) classes."""
    import layers

    jobs, months = ctx.scale(workload)
    config = layers.suite(["policy-rank"])[0].apply_to(
        layers.base_config(jobs, months, ctx.seed))
    pairs, stats = layers.transpile_plan(config, rec)
    return config, pairs, stats


def _check_cold_classes(checks: OutputChecks, results: List[OpResult],
                        planned: int) -> None:
    """Each op's transpile cache holds exactly the planned cold classes."""
    for result in results:
        entries = result.digests.get("transpile_entries")
        if result.ok and entries != planned:
            checks.book.mismatches.append({
                "op": result.label, "against": "planned cold classes",
                "expected": planned, "got": entries})


def run_timed(ctx, workload: ColdWorkload) -> Dict[str, object]:
    """The untraced run: end-to-end metrics of a closed loop of ops."""
    setup_s = preflight(ctx)
    checks = OutputChecks(ctx, workload)
    results = closed_loop(
        ctx.seconds, lambda index: checks.op(workload.op(ctx, f"op-{index}")))
    if workload is WHATIF_COLD:
        _, pairs, _ = planned_cold_classes(ctx, workload, Recorder())
        _check_cold_classes(checks, results, len(pairs))
    timed, details = timed_metrics(results)
    return {
        "attempted": len(results),
        "failed": sum(1 for result in results if not result.ok),
        "mismatches": checks.book.mismatches,
        "metrics": {
            **timed,
            "peak_rss_mb": max(result.peak_rss_mb for result in results),
            "setup_s": setup_s,
        },
        "details": {**details, "failures": checks.failures,
                    "output": checks.book.report()},
    }


def _program_layers(table: SpanTable, cli_pid: int,
                    workload: ColdWorkload) -> Dict[str, float]:
    """Layer metrics from the traced op's own spans.  Each span read here
    must be in the trace: a renamed one fails the run, it never reads 0."""
    def pool_task(name: str) -> bool:
        return name.startswith("pool.") and name != "pool.queued"

    plans = table.named("study.plan")
    hits = sum(1 for span in plans if span["args"].get("cache_hit"))
    found = {
        "executor.plan_s": table.total("study.plan"),
        "pool.tasks": len(table.select(pool_task, "pool.<kind>")),
        "pool.queue_wait_s": table.total("pool.queued"),
        "pool.task_setup_s": table.self_total(pool_task, "pool.<kind>"),
        "cache.put_s": table.total("cache.put"),
        "cache.hit_ratio": hits / len(plans),
        "generator.synthesis_s": table.total("synthesis.shard"),
        "fastsim.busy_s": table.total("simulation.group"),
        "fastsim.jobs": table.arg_sum("simulation.group", "jobs"),
        "trace.merge_s": table.self_total(
            lambda name: name == "study.merge", "study.merge"),
        "parent_spans_s": table.coverage(
            lambda name: name.startswith("study."), "study.*", pid=cli_pid),
    }
    if workload is PAPER_STUDY:
        # the op's lookups of its study, all misses; whatif-cold reports
        # the warm lookups of its read-side probe instead
        found["cache.get_s"] = table.total("cache.get")
    else:
        found.update({
            "executor.transpile_plan_s": table.total("study.transpile-plan"),
            "transpiler.busy_s": table.total("transpile.class"),
            "transpiler.passes_s": sum(
                span["duration"] for span in table.select(
                    lambda name: name.startswith("transpile.pass."),
                    "transpile.pass.*")),
            "transpiler.classes": table.count("transpile.class"),
        })
    return found


def run_traced(ctx, workload: ColdWorkload) -> Dict[str, object]:
    """The traced run: one untraced and one traced op, then layer calls."""
    import layers

    preflight(ctx)
    checks = OutputChecks(ctx, workload)
    rec = Recorder()
    program_spans = ctx.artifacts / "program-spans.json"
    untraced = checks.op(workload.op(ctx, "untraced"))
    traced = checks.op(workload.op(ctx, "traced", trace_out=program_spans,
                                   keep=True))
    results = [untraced, traced]
    if not traced.digests or not program_spans.is_file():
        raise BenchError(f"the traced op failed: {traced.failure}")
    table = SpanTable.load(program_spans)
    found = _program_layers(table, traced.extra["pid"], workload)
    parent_s = found.pop("parent_spans_s")

    jobs, months = ctx.scale(workload)
    base = layers.base_config(jobs, months, ctx.seed)
    figures_s = 0.0  # run-scenarios renders no figures
    if workload is PAPER_STUDY:
        studies = [(base, None)]
        figures_s = layers.figures(traced.extra["trace_path"], base, rec)
        found["figures.busy_s"] = figures_s
    else:
        rank_config, pairs, stats = planned_cold_classes(ctx, workload, rec)
        _check_cold_classes(checks, results, len(pairs))
        ranks = layers.rank_table(rank_config, ctx.workdir / "traced" /
                                  "cache", pairs)
        studies = [(scenario.apply_to(base), None)
                   for scenario in layers.suite(SCENARIOS[:-1])]
        studies.append((rank_config, ranks))
        found["transpiler.dedup_ratio"] = stats["probes"] / stats["pairs"]
    synthesis = layers.synthesis(studies, WORKERS, rec)
    if workload is WHATIF_COLD:
        probe, read = _read_side_probe(ctx, workload, rec)
        results.append(probe)
        found.update(read)
    rec.write_chrome_trace(ctx.artifacts / "bench-spans.json")

    worker_synthesis_s = found["generator.synthesis_s"]
    found.update({
        "pool.ipc_bytes": synthesis["ipc_bytes"],
        "pool.ipc_s": synthesis["ipc_s"],
        "cache.put_bytes": traced.extra["cache_bytes"],
        "generator.jobs": synthesis["jobs"],
        "generator.work_ratio": synthesis["cold_s"] / worker_synthesis_s,
        "calibration.build_s": synthesis["fresh_s"] - synthesis["repeat_s"],
        "telemetry.overhead_ratio": traced.seconds / untraced.seconds,
        "op.unattributed_s": traced.seconds - parent_s - figures_s,
    })
    ok = [result for result in results if result.ok]
    return {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "mismatches": checks.book.mismatches,
        "metrics": found,
        "details": {"op_seconds": {result.label: result.seconds
                                   for result in results},
                    "failures": checks.failures,
                    "output": checks.book.report(),
                    "single_process_synthesis_s": synthesis,
                    "largest_busy_layer": max(
                        (name for name in BUSY_LAYERS if name in found),
                        key=found.__getitem__),
                    "span_files": [str(program_spans),
                                   str(ctx.artifacts / "bench-spans.json")]},
    }


def _read_side_probe(ctx, workload: ColdWorkload, rec: Recorder
                     ) -> Tuple[OpResult, Dict[str, float]]:
    """The read side of the suite over the cache the traced op filled.

    Resolve, compare and store are called directly, then one single-tenant
    op goes through a gateway on that cache.  Its overhead is the op minus
    the job's own run time in its executor (resolve, compare and store of
    the same op): the gateway's cost without the two-tenant contention
    ``whatif-warm`` adds.
    """
    import layers
    import warm

    jobs, months = ctx.scale(workload)
    cache = ctx.workdir / "traced" / "cache"
    read, _ = layers.read_side(layers.base_config(jobs, months, ctx.seed),
                               SCENARIOS, cache, ctx.workdir / "probe-store",
                               WORKERS, rec)
    gateway = warm.Gateway(ctx, workload, cache, ctx.workdir / "probe")
    try:
        gateway.wait_ready()
        before = gateway.requests_served()
        probe = warm.warm_op(gateway, "probe", "gateway-probe",
                             ctx.deadline(workload))
        requests = gateway.requests_served() - before - 1
    finally:
        gateway.stop()
    if not probe.ok:
        raise BenchError(f"the gateway probe failed: {probe.failure}; "
                         f"gateway stderr: {tail(gateway.stderr, 5)}")
    return probe, {
        "cache.get_s": read["cache_get_s"],
        "scenarios.resolve_s": read["resolve_s"],
        "compare.busy_s": read["compare_s"],
        "store.put_s": read["store_put_s"],
        "gateway.first_event_s": probe.extra["first_event_s"],
        "gateway.fetch_s": probe.extra["fetch_s"],
        "gateway.overhead_s": probe.seconds - probe.extra["job_run_s"],
        "gateway.requests": requests,
    }
