"""The columnar figure suite the golden-equivalence test checks.

:func:`trace_figure_suite` runs every purely trace-driven figure
computation of the analysis layer on a :class:`TraceDataset`; its only use
is to prove value identity against ``rowpath.figure_suite_rowpath``, so
it lives with the tests rather than in the package.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.calibration import crossover_statistics
from repro.analysis.execution import (
    batch_runtime_trend,
    run_time_by_batch_size,
    run_time_by_machine,
)
from repro.analysis.jobs import cumulative_trials_by_month, status_breakdown
from repro.analysis.machines import utilization_by_machine
from repro.analysis.providers import access_class_profiles
from repro.analysis.queuing import (
    per_circuit_queue_by_batch_size,
    queue_time_by_batch_size,
    queue_time_by_machine,
    queue_to_run_ratios,
    report_from_sorted_minutes,
    sorted_queue_times_minutes,
)
from repro.core.exceptions import AnalysisError
from repro.prediction.features import feature_matrix
from repro.workloads.trace import TraceDataset


def trace_figure_suite(trace: TraceDataset,
                       bin_width: int = 100) -> Dict[str, object]:
    """Every purely trace-driven figure computation, as raw data.

    This is the vectorised analysis suite the golden-equivalence test
    (``test_dataplane_golden.py``) compares against the row-at-a-time
    reference in ``rowpath.py``.  Unlike
    :func:`~repro.analysis.figures.reproduce_all` it needs no fleet and
    returns raw arrays/dicts rather than a rendered report.
    """
    sorted_minutes = sorted_queue_times_minutes(trace)
    suite: Dict[str, object] = {
        "fig2a": [
            (row.month_index, row.jobs, row.circuits, row.trials,
             row.cumulative_trials)
            for row in cumulative_trials_by_month(trace)
        ],
        "fig2b": status_breakdown(trace),
        "fig3_sorted_minutes": sorted_minutes,
        "fig3_report": report_from_sorted_minutes(sorted_minutes).as_dict(),
        "fig4_ratios": queue_to_run_ratios(trace),
        "fig8": {machine: summary.as_dict()
                 for machine, summary in utilization_by_machine(trace).items()},
        "fig10": {machine: summary.as_dict()
                  for machine, summary in queue_time_by_machine(trace).items()},
        "fig11_per_job": {
            key: summary.as_dict()
            for key, summary in
            queue_time_by_batch_size(trace, bin_width=bin_width).items()
        },
        "fig11_per_circuit": per_circuit_queue_by_batch_size(
            trace, bin_width=bin_width),
        "fig12a": crossover_statistics(trace).crossover_fraction,
        "fig13": {machine: summary.as_dict()
                  for machine, summary in run_time_by_machine(trace).items()},
        "fig13_per_circuit": {
            machine: summary.as_dict()
            for machine, summary in
            run_time_by_machine(trace, per_circuit=True).items()
        },
        "fig14_bins": {
            key: summary.as_dict()
            for key, summary in
            run_time_by_batch_size(trace, bin_width=bin_width).items()
        },
    }
    trend = batch_runtime_trend(trace)
    suite["fig14_trend"] = (trend.slope_minutes_per_circuit,
                            trend.intercept_minutes, trend.correlation)
    suite["fig15_features"] = feature_matrix(trace)
    try:
        suite["access_profiles"] = {
            access: profile.as_dict()
            for access, profile in access_class_profiles(trace).items()
        }
    except AnalysisError:
        pass  # small traces may lack one access class entirely
    return suite
