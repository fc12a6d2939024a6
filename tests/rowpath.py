"""Row-at-a-time reference implementations of the data plane.

Faithful copies of the pre-columnar object-per-row code paths: one
:class:`~repro.cloud.job.CircuitSpec` per circuit during synthesis, a
per-circuit Python loop in the execution-time model, generator-expression
aggregation when recording a trace row, and per-record loops for every
trace-driven figure computation.

They exist only to prove equivalence, so they live with the tests rather
than in the package:

* ``test_dataplane_golden.py`` proves the vectorised data plane is
  *value-identical* to this reference for the same seed, and
* ``test_generator.py`` checks every synthesis shard against the
  per-circuit loop of :class:`RowPathSynthesizer`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import (
    DistributionSummary,
    linear_fit,
    pearson_correlation,
)
from repro.cloud.job import CircuitSpec, Job
from repro.core.exceptions import AnalysisError
from repro.devices.backend import Backend
from repro.prediction.features import FEATURE_NAMES, feature_vector
from repro.workloads.generator import JobSynthesizer
from repro.workloads.trace import JobRecord

# -- synthesis ------------------------------------------------------------------------


class RowPathSynthesizer(JobSynthesizer):
    """A :class:`JobSynthesizer` with the pre-columnar per-circuit loop.

    Shares the whole synthesis flow (user pick, machine selection, batch
    sampling) with the vectorised synthesiser and overrides only the
    circuit-materialisation hook: one spec object per circuit, each
    jittered variant drawn from its own ``rng.child("circuit", i)``
    stream rather than the precomputed seed words, including the
    historical quirk of deriving an unused jitter child stream for every
    circuit index >= 16 (derivation is a pure hash, so the random
    streams — and therefore the synthesised values — are identical).
    """

    def _build_circuits(self, rng, family: str, width: int, batch_size: int,
                        base_metrics, jitter_words) -> List[CircuitSpec]:
        circuits: List[CircuitSpec] = []
        for circuit_index in range(batch_size):
            jitter_rng = rng.child("circuit", circuit_index % 16)
            metrics = base_metrics if circuit_index >= 16 else \
                base_metrics.jittered(jitter_rng, relative=0.08)
            circuits.append(CircuitSpec(
                name=f"{family}_{width}_{circuit_index}",
                width=metrics.width,
                depth=metrics.depth,
                num_gates=metrics.num_gates,
                cx_count=metrics.cx_count,
                cx_depth=metrics.cx_depth,
                family=family,
            ))
        return circuits


def record_for_rowpath(job: Job, fleet: Dict[str, Backend]) -> JobRecord:
    """The pre-columnar trace recorder: generator-expression aggregation."""
    backend = fleet[job.backend_name]
    first = job.circuits[0]
    crossed = False
    if job.start_time is not None:
        crossed = backend.calibration_model.crosses_calibration(
            job.submit_time, job.start_time
        )
    mean_depth = int(round(sum(c.depth for c in job.circuits) / job.batch_size))
    mean_gates = int(round(sum(c.num_gates for c in job.circuits)
                           / job.batch_size))
    mean_cx = int(round(sum(c.cx_count for c in job.circuits) / job.batch_size))
    mean_cx_depth = int(round(
        sum(c.cx_depth for c in job.circuits) / job.batch_size
    ))
    return JobRecord(
        job_id=job.job_id,
        provider=job.provider,
        access=backend.access.value,
        machine=job.backend_name,
        machine_qubits=backend.num_qubits,
        month_index=int(job.metadata.get("month_index", 0)),
        batch_size=job.batch_size,
        shots=job.shots,
        circuit_family=first.family,
        circuit_width=first.width,
        circuit_depth=mean_depth,
        circuit_gates=mean_gates,
        circuit_cx=mean_cx,
        circuit_cx_depth=mean_cx_depth,
        memory_slots=first.width,
        submit_time=job.submit_time,
        start_time=job.start_time,
        end_time=job.end_time,
        status=job.status.value,
        queue_seconds=job.queue_seconds,
        run_seconds=job.run_seconds,
        compile_seconds=job.compile_seconds,
        pending_ahead=job.pending_ahead,
        crossed_calibration=crossed,
        user_policy=str(job.metadata.get("user_policy", "unknown")),
    )


# -- analysis -------------------------------------------------------------------------


def summarize_rowpath(values) -> DistributionSummary:
    """The pre-columnar ``summarize``: list filtering plus four separate
    percentile computations (the current one batches them into a single
    partition; the values are identical)."""
    array = np.asarray([v for v in values if v is not None], dtype=float)
    if array.size == 0:
        raise AnalysisError("cannot summarise an empty sample")
    return DistributionSummary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std()),
        minimum=float(array.min()),
        p25=float(np.percentile(array, 25)),
        median=float(np.percentile(array, 50)),
        p75=float(np.percentile(array, 75)),
        p90=float(np.percentile(array, 90)),
        maximum=float(array.max()),
    )


def _batch_bins(max_batch: int = 900, bin_width: int = 100) -> List[Tuple[int, int]]:
    edges = list(range(0, max_batch, bin_width)) + [max_batch]
    return [(edges[i] + 1, edges[i + 1]) for i in range(len(edges) - 1)]


def _group_by_machine(records: Sequence[JobRecord]
                      ) -> Dict[str, List[JobRecord]]:
    groups: Dict[str, List[JobRecord]] = {}
    for record in records:
        groups.setdefault(record.machine, []).append(record)
    return dict(sorted(groups.items()))


def figure_suite_rowpath(records: Sequence[JobRecord],
                         bin_width: int = 100) -> Dict[str, object]:
    """Every trace-driven figure computation as pre-columnar record loops.

    Mirrors ``figure_suite.trace_figure_suite`` (beside this module) value
    for value (except that it walks materialised :class:`JobRecord` rows the
    way the analysis layer used to).
    """
    records = list(records)
    if not records:
        raise AnalysisError("trace is empty")
    suite: Dict[str, object] = {}

    # Fig. 2a — cumulative trials by month.
    by_month: Dict[int, List[JobRecord]] = {}
    for record in records:
        by_month.setdefault(record.month_index, []).append(record)
    months = sorted(by_month)
    fig2a = []
    running = 0
    for month in range(months[0], months[-1] + 1):
        subset = by_month.get(month, [])
        trials = sum(r.total_trials for r in subset)
        running += trials
        fig2a.append((month, len(subset), sum(r.batch_size for r in subset),
                      trials, running))
    suite["fig2a"] = fig2a

    # Fig. 2b — status breakdown.
    status_counts: Dict[str, int] = {}
    for record in records:
        status_counts[record.status] = status_counts.get(record.status, 0) + 1
    total = sum(status_counts.values())
    breakdown = {status: 0.0 for status in ("DONE", "ERROR", "CANCELLED")}
    for status, count in status_counts.items():
        breakdown[status] = count / total
    suite["fig2b"] = breakdown

    # Fig. 3 — sorted per-circuit queue minutes + headline report.
    minutes_values: List[float] = []
    for record in records:
        if record.queue_minutes is None:
            continue
        minutes_values.extend([record.queue_minutes] * record.batch_size)
    minutes = np.sort(np.asarray(minutes_values, dtype=float))
    suite["fig3_sorted_minutes"] = minutes
    suite["fig3_report"] = {
        "fraction_under_one_minute": float((minutes < 1.0).mean()),
        "median_minutes": float(np.percentile(minutes, 50)),
        "fraction_over_two_hours": 1.0 - float((minutes < 120.0).mean()),
        "fraction_over_one_day": 1.0 - float((minutes < 1440.0).mean()),
        **{f"queue_{k}": v for k, v in summarize_rowpath(minutes).as_dict().items()},
    }

    # Fig. 4 — sorted queue:run ratios.
    ratios = [r.queue_to_run_ratio for r in records
              if r.queue_to_run_ratio is not None]
    suite["fig4_ratios"] = np.sort(np.asarray(ratios, dtype=float))

    # Fig. 8 — utilisation per machine.
    suite["fig8"] = {
        machine: summarize_rowpath([r.utilization for r in subset]).as_dict()
        for machine, subset in _group_by_machine(records).items()
        if subset
    }

    # Fig. 10 — queue minutes per machine.
    fig10 = {}
    for machine, subset in _group_by_machine(records).items():
        values = [r.queue_minutes for r in subset if r.queue_minutes is not None]
        if values:
            fig10[machine] = summarize_rowpath(values).as_dict()
    suite["fig10"] = fig10

    # Fig. 11 — queue time by batch size (per job and per circuit).
    fig11_per_job = {}
    fig11_per_circuit = {}
    for low, high in _batch_bins(bin_width=bin_width):
        per_job = [r.queue_minutes for r in records
                   if r.queue_minutes is not None
                   and low <= r.batch_size <= high]
        if per_job:
            fig11_per_job[(low, high)] = summarize_rowpath(per_job).as_dict()
        per_circuit = [r.per_circuit_queue_seconds for r in records
                       if r.per_circuit_queue_seconds is not None
                       and low <= r.batch_size <= high]
        if per_circuit:
            fig11_per_circuit[(low, high)] = float(np.median(per_circuit))
    suite["fig11_per_job"] = fig11_per_job
    suite["fig11_per_circuit"] = fig11_per_circuit

    # Fig. 12a — calibration-crossover fraction.
    started = [r for r in records if r.start_time is not None]
    crossed = sum(1 for r in started if r.crossed_calibration)
    suite["fig12a"] = crossed / len(started) if started else 0.0

    # Fig. 13 — run time per machine (per job and per circuit).
    fig13 = {}
    fig13_per_circuit = {}
    for machine, subset in _group_by_machine(records).items():
        per_job = [r.run_minutes for r in subset if r.run_minutes is not None]
        if per_job:
            fig13[machine] = summarize_rowpath(per_job).as_dict()
        per_circuit = [r.per_circuit_run_seconds / 60.0 for r in subset
                       if r.per_circuit_run_seconds is not None]
        if per_circuit:
            fig13_per_circuit[machine] = summarize_rowpath(per_circuit).as_dict()
    suite["fig13"] = fig13
    suite["fig13_per_circuit"] = fig13_per_circuit

    # Fig. 14 — run minutes binned by batch size + linear trend.
    completed = [r for r in records if r.run_minutes is not None]
    fig14_bins = {}
    for low, high in _batch_bins(bin_width=bin_width):
        values = [r.run_minutes for r in completed
                  if low <= r.batch_size <= high]
        if values:
            fig14_bins[(low, high)] = summarize_rowpath(values).as_dict()
    suite["fig14_bins"] = fig14_bins
    batches = [float(r.batch_size) for r in completed]
    run_minutes = [r.run_minutes for r in completed]
    slope, intercept = linear_fit(batches, run_minutes)
    suite["fig14_trend"] = (slope, intercept,
                            pearson_correlation(batches, run_minutes))

    # Fig. 15 — the prediction feature matrix.
    rows: List[List[float]] = []
    targets: List[float] = []
    for record in records:
        if record.run_minutes is None or record.run_minutes <= 0:
            continue
        vector = feature_vector(record)
        rows.append([vector[name] for name in FEATURE_NAMES])
        targets.append(record.run_minutes)
    suite["fig15_features"] = (np.asarray(rows, dtype=float),
                               np.asarray(targets, dtype=float))

    # Access-class profiles (public vs privileged).
    total_circuits = sum(r.batch_size for r in records)
    profiles = {}
    for access in ("public", "privileged"):
        subset = [r for r in records if r.access == access]
        if not subset:
            continue
        queue_minutes = [r.queue_minutes for r in subset
                         if r.queue_minutes is not None]
        run_mins = [r.run_minutes for r in subset if r.run_minutes is not None]
        access_ratios = [r.queue_to_run_ratio for r in subset
                         if r.queue_to_run_ratio is not None]
        started = [r for r in subset if r.start_time is not None]
        crossed = sum(1 for r in started if r.crossed_calibration)
        if not queue_minutes or not run_mins or not access_ratios:
            profiles = None
            break
        queue_summary = summarize_rowpath(queue_minutes)
        profiles[access] = {
            "access": access,
            "jobs": len(subset),
            "job_share": len(subset) / len(records),
            "circuit_share": sum(r.batch_size for r in subset)
            / max(total_circuits, 1),
            "median_queue_minutes": queue_summary.median,
            "p90_queue_minutes": queue_summary.p90,
            "median_run_minutes": summarize_rowpath(run_mins).median,
            "median_queue_to_run_ratio": float(np.median(access_ratios)),
            "crossover_fraction": crossed / len(started) if started else 0.0,
        }
    if profiles:
        suite["access_profiles"] = profiles
    return suite
