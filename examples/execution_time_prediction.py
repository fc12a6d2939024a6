"""Execution-time prediction (the paper's Section VI-C study).

Generates a synthetic study trace, fits the product-of-linear-terms model
``prod(a_i + b_i * x_i)`` per machine on a 70/30 train/test split, and
reports the Fig. 15 correlations and a Fig. 16-style predicted-vs-actual
comparison for the best and worst machines.  Also demonstrates the
queue-time predictor built on the same trace.

Run with:  python examples/execution_time_prediction.py [num_jobs]
"""

import sys

import numpy as np

from repro.analysis.report import render_table
from repro.prediction import QueueTimePredictor, RuntimePredictionStudy
from repro.runner import run_study
from repro.workloads import TraceGeneratorConfig


def main() -> None:
    total_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    print(f"generating a synthetic study trace with {total_jobs} jobs ...")
    config = TraceGeneratorConfig(total_jobs=total_jobs, seed=13)
    trace = run_study(config=config, workers=1).trace

    # --- Fig. 15: per-machine correlations with cumulative feature sets ----------
    study = RuntimePredictionStudy(min_jobs_per_machine=50)
    results = study.run(trace)
    rows = []
    for machine, result in sorted(results.items()):
        rows.append({
            "machine": machine,
            "jobs": result.num_jobs,
            "batch_only": round(result.correlations.get("Batch", float("nan")), 3),
            "batch+shots": round(result.correlations.get("+Shots", float("nan")), 3),
            "all_features": round(result.full_model_correlation, 3),
        })
    print(render_table("Fig. 15 — predicted vs actual runtime correlation", rows))
    correlations = [r.full_model_correlation for r in results.values()]
    print(f"machines with correlation >= 0.95: "
          f"{sum(c >= 0.95 for c in correlations)}/{len(correlations)} "
          "(paper: all but two)\n")

    # --- Fig. 16: the best and the worst machine ---------------------------------
    ranked = sorted(results.values(), key=lambda r: r.full_model_correlation)
    for label, result in (("best", ranked[-1]), ("worst", ranked[0])):
        actual = np.asarray(result.test_actual_minutes)
        predicted = np.asarray(result.test_predicted_minutes)
        error = np.abs(actual - predicted)
        print(f"{label} machine {result.machine}: correlation "
              f"{result.full_model_correlation:.3f}, runtime range "
              f"{actual.min():.1f}-{actual.max():.1f} min, median abs error "
              f"{np.median(error):.2f} min")
    print("(the 'worst' machine mirrors the paper's Vigo: a narrow runtime "
          "range makes small absolute errors look like poor correlation)\n")

    # --- queue-time prediction (recommendation V-E.1) -----------------------------
    predictor = QueueTimePredictor(confidence=0.8).fit(trace)
    busiest = max(trace.machines(),
                  key=lambda m: len(trace.for_machine(m)))
    for pending in (2, 50, 500):
        prediction = predictor.predict(busiest, pending_ahead=pending)
        print(f"queue forecast on {busiest} with {pending} jobs pending: "
              f"median {prediction.expected_minutes:.0f} min, 80% interval "
              f"[{prediction.lower_minutes:.0f}, {prediction.upper_minutes:.0f}] min")
    print(f"interval coverage on the trace: {predictor.coverage(trace):.0%}")


if __name__ == "__main__":
    main()
