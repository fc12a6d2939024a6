"""Declarative what-if scenarios over the cloud simulation.

The paper's recommendations — fidelity/queue trade-offs, calibration-aware
scheduling, machine selection — are counterfactual claims: they can only be
evaluated by re-running the fleet under perturbed conditions.  This package
turns the sharded study runner into a comparative-experimentation platform:

* :mod:`repro.scenarios.perturbations` — composable deviations from the
  baseline (demand surges, outages, fleet changes, calibration drift,
  backlog regime shifts, failure rates, policy swaps).
* :mod:`repro.scenarios.scenario` — named, seedable scenarios, the built-in
  catalog (:func:`builtin_scenarios`) and seed replicates
  (:func:`replicate_scenarios`, aggregated into mean ± CI downstream).
* :mod:`repro.scenarios.sweep` — parameter grids over perturbation fields,
  expanded into named scenario variants (:func:`expand_sweeps`).
* :mod:`repro.scenarios.spec` — TOML/JSON scenario-suite spec files
  (including ``{sweep = [...]}`` axis declarations), and
  :func:`resolve_submission`, the one resolution of a suite request (spec,
  study knobs, names, sweep axes, replicates) the CLI and the gateway
  share.
* :mod:`repro.scenarios.engine` — :func:`run_scenarios`: expansion and
  execution of the whole suite on one shared worker pool with
  fingerprint-keyed cache reuse and deduplication.

Comparative analysis of the resulting traces lives in
:mod:`repro.analysis.compare`; ``python -m repro run-scenarios`` /
``compare-scenarios`` is the command-line entry point.
"""

from repro.scenarios.engine import (
    ScenarioRun,
    ScenarioSuiteResult,
    run_scenarios,
)
from repro.scenarios.perturbations import (
    BacklogShift,
    CalibrationDrift,
    DemandSurge,
    FailureRates,
    FleetChange,
    MachineOutage,
    Perturbation,
    PolicySwap,
    SweepValues,
    perturbation_from_dict,
)
from repro.scenarios.scenario import (
    Scenario,
    builtin_scenarios,
    replicate_scenarios,
    replicate_seed,
    resolve_scenarios,
)
from repro.scenarios.spec import (
    ScenarioSuiteSpec,
    load_suite,
    parse_suite,
    read_spec_payload,
    resolve_submission,
)
from repro.scenarios.sweep import (
    expand_sweep,
    expand_sweeps,
    parse_sweep_flag,
    sweep_axes,
    sweep_from_flags,
)

__all__ = [
    "BacklogShift",
    "CalibrationDrift",
    "DemandSurge",
    "FailureRates",
    "FleetChange",
    "MachineOutage",
    "Perturbation",
    "PolicySwap",
    "Scenario",
    "ScenarioRun",
    "ScenarioSuiteResult",
    "ScenarioSuiteSpec",
    "SweepValues",
    "builtin_scenarios",
    "expand_sweep",
    "expand_sweeps",
    "load_suite",
    "parse_suite",
    "parse_sweep_flag",
    "perturbation_from_dict",
    "read_spec_payload",
    "replicate_scenarios",
    "replicate_seed",
    "resolve_scenarios",
    "resolve_submission",
    "run_scenarios",
    "sweep_axes",
    "sweep_from_flags",
]
