"""Reproduce the paper's headline characterisation numbers on a synthetic trace.

Generates a reduced version of the two-year study trace (1500 jobs by
default — pass a number on the command line for a different scale) and
prints the statistics behind the paper's Figures 2-4 and 8-14: status
breakdown, queue-time distribution, queue:run ratios, utilisation,
calibration crossovers and the batch-size/run-time trend.

Run with:  python examples/cloud_trace_analysis.py [num_jobs]
"""

import sys

from repro.analysis import (
    batch_runtime_trend,
    crossover_statistics,
    cumulative_trials_by_month,
    queue_time_percentile_report,
    ratio_report,
    run_time_by_machine,
    status_breakdown,
    utilization_by_machine,
)
from repro.analysis.report import render_table
from repro.runner import run_study
from repro.workloads import TraceGeneratorConfig


def main() -> None:
    total_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 1500
    print(f"generating a synthetic study trace with {total_jobs} jobs ...")
    config = TraceGeneratorConfig(total_jobs=total_jobs, seed=7)
    trace = run_study(config=config, workers=1).trace
    summary = trace.summary()
    print(f"trace: {summary['jobs']} jobs, {summary['circuits']} circuits, "
          f"{summary['trials']:.3g} machine trials on {summary['machines']} machines\n")

    # Fig. 2 — growth and status breakdown.
    growth = cumulative_trials_by_month(trace)
    print(f"cumulative trials: {growth[-1].cumulative_trials:.3g} "
          f"(x{growth[-1].cumulative_trials / max(growth[len(growth) // 2].cumulative_trials, 1):.1f} "
          "over the second half of the window)")
    print(render_table("status breakdown (Fig. 2b)", [
        {"status": k, "fraction": v} for k, v in status_breakdown(trace).items()
    ]))

    # Fig. 3 / Fig. 4 — queueing.
    queue_report = queue_time_percentile_report(trace)
    ratios = ratio_report(trace)
    print(render_table("queuing time (Fig. 3)", [queue_report.as_dict()]))
    print(f"queue:run ratio (Fig. 4): median {ratios.median_ratio:.1f}x, "
          f"{ratios.fraction_at_or_below_one:.0%} of jobs at or below 1x, "
          f"{ratios.fraction_at_or_above_hundred:.0%} at or above 100x\n")

    # Fig. 8 — utilisation per machine (top/bottom examples).
    utilization = utilization_by_machine(trace)
    interesting = sorted(utilization.items(), key=lambda kv: kv[1].median)
    rows = [{"machine": m, "median_utilization": s.median}
            for m, s in interesting[:3] + interesting[-3:]]
    print(render_table("machine utilisation extremes (Fig. 8)", rows))

    # Fig. 12a — calibration crossovers.
    crossover = crossover_statistics(trace)
    print(f"calibration crossovers (Fig. 12a): "
          f"{crossover.crossover_fraction:.1%} of jobs executed after a newer "
          "calibration than they were compiled against\n")

    # Fig. 13 / Fig. 14 — execution times.
    run_times = run_time_by_machine(trace)
    slowest = max(run_times.items(), key=lambda kv: kv[1].median)
    print(f"slowest machine by median job run time (Fig. 13): {slowest[0]} "
          f"({slowest[1].median:.1f} min)")
    trend = batch_runtime_trend(trace)
    print(f"run time vs batch size (Fig. 14): "
          f"{trend.slope_minutes_per_circuit * 60:.1f} s per extra circuit, "
          f"correlation {trend.correlation:.2f}")


if __name__ == "__main__":
    main()
