"""The repository benchmark: the study pipeline and the gateway, measured
from outside through the CLI and the HTTP API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-study --seed 7 --seconds 45 --trace 0

Workloads:

* ``paper-study`` — closed loop, one client; an op is one fresh
  ``repro figures`` process at 6000 jobs / 28 months over an empty cache;
* ``whatif-cold`` — closed loop, one client; an op is one fresh
  ``repro run-scenarios`` process (baseline, demand-surge, policy-rank) at
  1000 jobs / 6 months over an empty cache.  Its traced run also probes the
  read side (resolve, compare, store, one gateway op) over the cache the
  op filled;
* ``whatif-warm`` — closed loop, two tenants; an op resubmits the same
  suite to a ``repro serve`` gateway at 500 jobs / 3 months whose cache is
  filled before timing.

``BENCHMARK.json`` lists the first two and says why each was chosen.
``whatif-warm`` stays out of it while the gateway's concurrent comparison
stores can kill an executor thread: some of its ops fail, which a listed
workload must not do.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the separate traced run that gives the per-layer metrics.  The
last line of standard output is the result object; the lines before it
are the host record and the run's details (sample counts, error rate,
output digests, failures).  An op that ran while the hypervisor stole
more than 2% of the host's CPU is re-run rather than timed (see
``harness.STEAL_PHASE``).  Output digests must agree across ops, and for
a workload, scale and seed recorded in ``digests.json`` they must equal the
recording: a mismatch prints ``"correct": false`` and exits 1.  ``--reduced``
runs every workload at 200 jobs / 2 months (the self-test's scale).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Tuple

from harness import (
    RECORDED_DIGESTS,
    WORK,
    BenchError,
    HostSample,
    check_checkout,
    child_env,
    host_record,
)

#: end-to-end metrics (untraced runs) and their units
END_TO_END: Dict[str, str] = {
    "op_p50_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metrics (the traced run) and their units
PER_LAYER: Dict[str, str] = {
    "executor.plan_s": "s",
    "executor.transpile_plan_s": "s",
    "pool.tasks": "count",
    "pool.queue_wait_s": "s",
    "pool.task_setup_s": "s",
    "pool.ipc_bytes": "bytes",
    "pool.ipc_s": "s",
    "cache.put_s": "s",
    "cache.put_bytes": "bytes",
    "cache.get_s": "s",
    "cache.hit_ratio": "ratio",
    "generator.synthesis_s": "s",
    "generator.jobs": "count",
    "generator.work_ratio": "ratio",
    "calibration.build_s": "s",
    "fastsim.busy_s": "s",
    "fastsim.jobs": "count",
    "trace.merge_s": "s",
    "transpiler.busy_s": "s",
    "transpiler.passes_s": "s",
    "transpiler.classes": "count",
    "transpiler.dedup_ratio": "ratio",
    "scenarios.resolve_s": "s",
    "figures.busy_s": "s",
    "compare.busy_s": "s",
    "store.put_s": "s",
    "gateway.first_event_s": "s",
    "gateway.fetch_s": "s",
    "gateway.overhead_s": "s",
    "gateway.requests": "count",
    "telemetry.overhead_ratio": "ratio",
    "op.unattributed_s": "s",
}

#: per-layer metrics whose layer does no work on a workload: they read 0
#: there.  Every other metric must be measured; a missing one fails the run.
IDLE_LAYERS: Dict[str, FrozenSet[str]] = {
    "paper-study": frozenset({
        "executor.transpile_plan_s", "transpiler.busy_s",
        "transpiler.passes_s", "transpiler.classes", "transpiler.dedup_ratio",
        "scenarios.resolve_s", "compare.busy_s", "store.put_s",
        "gateway.first_event_s", "gateway.fetch_s", "gateway.overhead_s",
        "gateway.requests"}),
    "whatif-cold": frozenset({"figures.busy_s"}),
    # every study is a cache hit: no plan beyond the lookup, no pool task
    "whatif-warm": frozenset({
        "executor.plan_s", "executor.transpile_plan_s", "pool.tasks",
        "pool.queue_wait_s", "pool.task_setup_s", "pool.ipc_bytes",
        "pool.ipc_s", "cache.put_s", "cache.put_bytes",
        "generator.synthesis_s", "generator.jobs", "generator.work_ratio",
        "fastsim.busy_s", "fastsim.jobs", "trace.merge_s",
        "transpiler.busy_s", "transpiler.passes_s", "transpiler.classes",
        "transpiler.dedup_ratio", "figures.busy_s"}),
}

WORKLOADS = ("paper-study", "whatif-cold", "whatif-warm")
REDUCED_SCALE = (200, 2)
REDUCED_DEADLINE = 30.0


@dataclass
class Context:
    """What every workload needs to know about the run."""

    workload: str
    seed: int
    seconds: float
    reduced: bool
    workdir: Path
    artifacts: Path
    env: Dict[str, str]
    digests_path: Path

    def scale(self, workload) -> Tuple[int, int]:
        return REDUCED_SCALE if self.reduced \
            else (workload.jobs, workload.months)

    def scale_key(self, workload) -> str:
        jobs, months = self.scale(workload)
        return f"{jobs}x{months}@{self.seed}"

    def deadline(self, workload) -> float:
        return REDUCED_DEADLINE if self.reduced else workload.deadline


def _dispatch(ctx: Context, traced: bool) -> Dict[str, object]:
    if ctx.workload == "whatif-warm":
        import warm

        return warm.run_traced(ctx) if traced else warm.run_timed(ctx)
    import cold

    workload = cold.PAPER_STUDY if ctx.workload == "paper-study" \
        else cold.WHATIF_COLD
    return cold.run_traced(ctx, workload) if traced \
        else cold.run_timed(ctx, workload)


def _metrics(workload: str, trace: bool,
             found: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The result's metrics: each one measured, or 0 for an idle layer."""
    units = PER_LAYER if trace else END_TO_END
    idle = IDLE_LAYERS[workload] if trace else frozenset()
    wrong = {"missing": sorted(set(units) - idle - set(found)),
             "unexpected": sorted(set(found) - (set(units) - idle))}
    if wrong["missing"] or wrong["unexpected"]:
        raise BenchError(f"metrics do not match the workload's layers: "
                         f"{wrong}")
    return {name: {"value": 0.0 if name in idle else float(found[name]),
                   "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measured window of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="every workload at 200 jobs / 2 months")
    parser.add_argument("--digests", type=Path, default=RECORDED_DIGESTS,
                        help="recorded output digests (default: "
                             "perfbench/digests.json)")
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    artifacts = WORK / "last" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        shutil.rmtree(artifacts, ignore_errors=True)
        artifacts.mkdir(parents=True)
    (workdir / "tmp").mkdir(parents=True)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, reduced=args.reduced,
                  workdir=workdir, artifacts=artifacts,
                  env=child_env(workdir / "tmp"),
                  digests_path=args.digests)
    before = HostSample()
    try:
        outcome = _dispatch(ctx, traced=bool(args.trace))
        metrics = _metrics(args.workload, bool(args.trace),
                           outcome["metrics"])
    except (BenchError, OSError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = HostSample()

    attempted, failed = outcome["attempted"], outcome["failed"]
    mismatches = outcome["mismatches"]
    details = {
        "workload": args.workload, "seed": args.seed,
        "scale": "reduced" if args.reduced else "full",
        "trace": args.trace,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        **outcome["details"],
    }
    print(json.dumps({"host": host_record(before, after)}))
    print(json.dumps({"details": details}, default=str))
    for mismatch in mismatches:
        print(f"perfbench: output mismatch: {json.dumps(mismatch)}",
              file=sys.stderr)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
