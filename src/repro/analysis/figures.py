"""One-call reproduction of every trace-driven figure.

:func:`reproduce_all` runs the analyses behind Figures 2a, 2b, 3, 4, 8, 9,
10, 11, 12a, 13 and 14 on a trace (the figures that only need the trace and
the fleet — the compile-time and POS figures 5, 6, 7, 12b, 15, 16 need the
transpiler/prediction machinery and have their own entry points in the
benchmark harness).  The result is a :class:`ReproductionReport` that can be
rendered as text or exported as a JSON-serialisable dictionary, which is how
the examples and any downstream notebook consume the study in one shot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.calibration import crossover_statistics
from repro.analysis.execution import batch_runtime_trend, run_time_by_machine
from repro.analysis.jobs import cumulative_trials_by_month, status_breakdown
from repro.analysis.machines import (
    bisection_bandwidth_table,
    pending_jobs_by_machine,
    utilization_by_machine,
)
from repro.analysis.queuing import (
    per_circuit_queue_by_batch_size,
    queue_time_by_machine,
    queue_time_percentile_report,
    ratio_report,
)
from repro.analysis.report import render_table
from repro.core.exceptions import AnalysisError
from repro.core.units import DAY_SECONDS
from repro.devices.backend import Backend
from repro.workloads.trace import TraceDataset


@dataclass
class ReproductionReport:
    """Container for every reproduced figure's data."""

    trace_summary: Dict[str, object] = field(default_factory=dict)
    fig2a_cumulative_trials: List[Dict[str, object]] = field(default_factory=list)
    fig2b_status: Dict[str, float] = field(default_factory=dict)
    fig3_queue_report: Dict[str, float] = field(default_factory=dict)
    fig4_ratio_report: Dict[str, float] = field(default_factory=dict)
    fig6_bisection: List[Dict[str, object]] = field(default_factory=list)
    fig8_utilization: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fig9_pending_jobs: Dict[str, float] = field(default_factory=dict)
    fig10_queue_by_machine: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fig11_per_circuit_queue: Dict[str, float] = field(default_factory=dict)
    fig12a_crossover: Dict[str, float] = field(default_factory=dict)
    fig13_run_by_machine: Dict[str, Dict[str, float]] = field(default_factory=dict)
    fig14_batch_trend: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable view of the whole report."""
        return {
            "trace_summary": self.trace_summary,
            "fig2a_cumulative_trials": self.fig2a_cumulative_trials,
            "fig2b_status": self.fig2b_status,
            "fig3_queue_report": self.fig3_queue_report,
            "fig4_ratio_report": self.fig4_ratio_report,
            "fig6_bisection": self.fig6_bisection,
            "fig8_utilization": self.fig8_utilization,
            "fig9_pending_jobs": self.fig9_pending_jobs,
            "fig10_queue_by_machine": self.fig10_queue_by_machine,
            "fig11_per_circuit_queue": self.fig11_per_circuit_queue,
            "fig12a_crossover": self.fig12a_crossover,
            "fig13_run_by_machine": self.fig13_run_by_machine,
            "fig14_batch_trend": self.fig14_batch_trend,
        }

    def render(self, max_rows: int = 12) -> str:
        """Render the report as a sequence of text tables."""
        sections = [
            render_table("trace summary", [self.trace_summary]),
            render_table("Fig. 2a — cumulative trials (last months)",
                         self.fig2a_cumulative_trials[-max_rows:]),
            render_table("Fig. 2b — status breakdown",
                         [{"status": k, "fraction": v}
                          for k, v in sorted(self.fig2b_status.items())]),
            render_table("Fig. 3 — queue-time report", [self.fig3_queue_report]),
            render_table("Fig. 4 — queue:run ratios", [self.fig4_ratio_report]),
            render_table("Fig. 6 — bisection bandwidth", self.fig6_bisection,
                         max_rows=max_rows),
            render_table("Fig. 9 — average pending jobs",
                         [{"machine": m, "pending": v}
                          for m, v in self.fig9_pending_jobs.items()],
                         max_rows=max_rows),
            render_table("Fig. 12a — calibration crossover",
                         [self.fig12a_crossover]),
            render_table("Fig. 14 — batch/runtime trend", [self.fig14_batch_trend]),
        ]
        return "\n\n".join(sections)


def reproduce_all(
    trace: TraceDataset,
    fleet: Optional[Dict[str, Backend]] = None,
    pending_window_start: Optional[float] = None,
) -> ReproductionReport:
    """Run every trace-driven analysis of the paper and bundle the results."""
    if len(trace) == 0:
        raise AnalysisError("cannot reproduce the study from an empty trace")

    report = ReproductionReport()
    report.trace_summary = trace.summary()

    report.fig2a_cumulative_trials = [
        {
            "month": row.month_index,
            "jobs": row.jobs,
            "trials": row.trials,
            "cumulative_trials": row.cumulative_trials,
        }
        for row in cumulative_trials_by_month(trace)
    ]
    report.fig2b_status = status_breakdown(trace)
    report.fig3_queue_report = queue_time_percentile_report(trace).as_dict()

    ratios = ratio_report(trace)
    report.fig4_ratio_report = {
        "fraction_at_or_below_one": ratios.fraction_at_or_below_one,
        "median_ratio": ratios.median_ratio,
        "fraction_at_or_above_hundred": ratios.fraction_at_or_above_hundred,
    }

    report.fig8_utilization = {
        machine: summary.as_dict()
        for machine, summary in utilization_by_machine(trace).items()
    }
    report.fig10_queue_by_machine = {
        machine: summary.as_dict()
        for machine, summary in queue_time_by_machine(trace).items()
    }
    report.fig11_per_circuit_queue = {
        f"{low}-{high}": value
        for (low, high), value in per_circuit_queue_by_batch_size(trace).items()
    }

    crossover = crossover_statistics(trace)
    report.fig12a_crossover = {
        "crossover_fraction": crossover.crossover_fraction,
        "intra_calibration_fraction": crossover.intra_calibration_fraction,
        "jobs": float(crossover.total_jobs),
    }

    report.fig13_run_by_machine = {
        machine: summary.as_dict()
        for machine, summary in run_time_by_machine(trace).items()
    }
    trend = batch_runtime_trend(trace)
    report.fig14_batch_trend = {
        "slope_minutes_per_circuit": trend.slope_minutes_per_circuit,
        "intercept_minutes": trend.intercept_minutes,
        "correlation": trend.correlation,
    }

    if fleet:
        report.fig6_bisection = [
            {
                "machine": row.machine,
                "qubits": row.num_qubits,
                "bisection_bandwidth": row.bisection_bandwidth,
                "access": row.access,
            }
            for row in bisection_bandwidth_table(fleet)
        ]
        window_start = pending_window_start
        if window_start is None:
            # Default to a week near the end of the trace window.
            last_submit = float(trace.values("submit_time").max())
            window_start = max(0.0, last_submit - 14 * DAY_SECONDS)
        report.fig9_pending_jobs = pending_jobs_by_machine(
            fleet, window_start=window_start, trace=trace)
    return report
