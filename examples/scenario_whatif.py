"""What-if studies over the cloud simulation with the scenario engine.

The paper's recommendations (fidelity/queue trade-offs, calibration-aware
scheduling, machine selection) are counterfactual claims — this example
evaluates a few of them by re-running the fleet under perturbed conditions
and comparing the headline metrics against the baseline study:

* what if demand surges 60%?
* what if the busiest early machine goes down for five months?
* what if calibration drifts 3x faster?
* what if every user adopts the balanced selection objective (V-E.3)?
* how do queue times scale as the external backlog doubles? (a sweep)

Every scenario — including each grid point of the sweep and each seed
replicate — is scheduled on **one shared worker pool**, so small studies
interleave instead of serialising behind per-scenario pools.  Replicates
re-roll the root seed and the comparison aggregates them into mean ± 95%
CI per headline metric.

Run with:  python examples/scenario_whatif.py
           REPRO_BENCH_JOBS=2000 python examples/scenario_whatif.py
           REPRO_REPLICATES=3 python examples/scenario_whatif.py
"""

import os

from repro.analysis.compare import compare_suite
from repro.core.env import env_int
from repro.scenarios import (
    BacklogShift,
    Scenario,
    SweepValues,
    replicate_scenarios,
    resolve_scenarios,
    run_scenarios,
)
from repro.workloads.generator import TraceGeneratorConfig

SCENARIOS = ("baseline", "demand-surge", "machine-outage",
             "calibration-drift", "policy-swap")

BACKLOG_SWEEP = Scenario(
    "backlog-pressure",
    description="external backlog pressure grid",
    perturbations=(BacklogShift(scale=SweepValues(2.0, 4.0)),),
)


def print_milestone(event) -> None:
    """Print when each study is queued, served from cache or done."""
    if event.kind in ("queued", "cache-hit", "study-done"):
        print(f"  [engine] {event.kind} {event.key} "
              f"({event.completed}/{event.total} tasks done)")


def main() -> None:
    config = TraceGeneratorConfig(
        total_jobs=env_int("REPRO_BENCH_JOBS", 600),
        months=env_int("REPRO_BENCH_MONTHS", 8),
        seed=env_int("REPRO_BENCH_SEED", 7),
    )
    scenarios = [*resolve_scenarios(SCENARIOS), BACKLOG_SWEEP]
    replicates = env_int("REPRO_REPLICATES", 2)
    scenarios = replicate_scenarios(scenarios, replicates,
                                    base_seed=config.seed)

    suite = run_scenarios(
        scenarios, config,
        cache_dir=os.environ.get("REPRO_CACHE_DIR", ".repro-cache"),
        on_event=print_milestone,
    )

    print()
    for run in suite:
        hit = " (cache hit)" if run.cache_hit else ""
        print(f"{run.name}: {len(run.trace)} jobs, "
              f"fingerprint {run.fingerprint}{hit}")

    report = compare_suite(suite)
    print()
    print(f"Headline metrics are mean ±95% CI over {replicates} seed "
          f"replicates; replicate rows aggregate under their base scenario.")
    print()
    print(report.render_markdown())
    print()
    print("Scenario catalog:")
    seen = set()
    for run in suite:
        base = run.scenario.replicate_of or run.name
        if base not in seen:
            seen.add(base)
            print(f"  {base}: {run.scenario.describe()}")


if __name__ == "__main__":
    main()
