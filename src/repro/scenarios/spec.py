"""Loading scenario suites from TOML/JSON spec files.

A spec file declares an optional ``[study]`` table overriding the baseline
config knobs, plus a list of scenarios, each with a list of perturbations
(``kind`` selects the perturbation type; the remaining keys are its fields).

TOML::

    [study]
    total_jobs = 1200
    months = 12
    seed = 7

    [[scenarios]]
    name = "surge"
    description = "50% more demand in the last third"

    [[scenarios.perturbations]]
    kind = "demand_surge"
    scale = 1.5
    start_month = 8

Any perturbation field can declare a **sweep axis** instead of a single
value — an inline table ``{sweep = [..]}`` (TOML) / ``{"sweep": [..]}``
(JSON)::

    [[scenarios.perturbations]]
    kind = "backlog_shift"
    scale = { sweep = [1.0, 2.0, 4.0, 8.0] }

The scenario then stands for its whole grid: the engine (or
:func:`repro.scenarios.sweep.expand_sweeps`) expands the cartesian product
of every axis into named variants (``name@scale=2`` ...) before anything
runs.  A scenario may also set ``seed`` (a deterministic re-roll) and
``replicate_of`` (grouping hand-written re-rolls for mean ± CI aggregation
in the comparison; ``--replicates`` generates both automatically).

JSON carries the same structure as an object with ``study`` and
``scenarios`` keys.  TOML parsing uses the standard-library ``tomllib``
(Python 3.11+) with a ``tomli`` fallback; on interpreters with neither, TOML
specs raise a clear error and JSON specs keep working.

:func:`resolve_submission` turns a whole suite request — such a document
plus study knobs, names, sweep axes and replicates — into the base config
and the scenarios that run.  The CLI's scenario subcommands and the
study-service gateway both resolve through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.exceptions import ScenarioError
from repro.scenarios.perturbations import perturbation_from_dict
from repro.scenarios.scenario import (
    Scenario,
    builtin_scenarios,
    replicate_scenarios,
    resolve_scenarios,
)
from repro.scenarios.sweep import expand_sweeps, sweep_from_flags
from repro.workloads.generator import TraceGeneratorConfig

#: ``[study]`` keys that map straight onto TraceGeneratorConfig fields.
_STUDY_FIELDS = ("total_jobs", "months", "growth_ratio", "seed",
                 "include_simulator")

#: top-level keys a suite request (a gateway submission) may carry;
#: ``tenant``, ``compare`` and ``use_cache`` are read by the gateway
_SUBMISSION_KEYS = frozenset({
    "tenant", "study", "suite", "scenarios", "sweep", "replicates",
    "compare", "use_cache",
})


@dataclass
class ScenarioSuiteSpec:
    """A parsed spec file: baseline overrides plus the scenario list."""

    scenarios: List[Scenario] = field(default_factory=list)
    study_overrides: Dict[str, object] = field(default_factory=dict)
    source: Optional[Path] = None

    def base_config(self, default: Optional[TraceGeneratorConfig] = None
                    ) -> TraceGeneratorConfig:
        """The baseline config, applying the spec's ``[study]`` overrides."""
        config = default if default is not None else TraceGeneratorConfig()
        if not self.study_overrides:
            return config
        return replace(config, **self.study_overrides)

    def catalog(self) -> Dict[str, Scenario]:
        return {scenario.name: scenario for scenario in self.scenarios}


def _load_toml(path: Path) -> Dict[str, object]:
    try:
        import tomllib  # Python 3.11+
    except ImportError:  # pragma: no cover - depends on interpreter
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise ScenarioError(
                f"cannot read TOML spec {path}: this interpreter has "
                f"neither tomllib (Python 3.11+) nor tomli; rewrite the "
                f"spec as JSON instead") from None
    with open(path, "rb") as handle:
        try:
            return tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"invalid TOML in {path}: {exc}") from exc


def _parse_scenario(payload: Dict[str, object], path: Path) -> Scenario:
    if not isinstance(payload, dict):
        raise ScenarioError(f"scenario entries in {path} must be tables")
    name = payload.get("name")
    if not name or not isinstance(name, str):
        raise ScenarioError(f"every scenario in {path} needs a 'name'")
    known = {f.name for f in fields(Scenario)}
    unknown = set(payload) - known
    if unknown:
        raise ScenarioError(
            f"scenario {name!r} in {path} has unknown keys "
            f"{sorted(unknown)}")
    perturbations = payload.get("perturbations", [])
    if not isinstance(perturbations, list):
        raise ScenarioError(
            f"scenario {name!r} in {path}: 'perturbations' must be a list")
    seed = payload.get("seed")
    replicate_of = payload.get("replicate_of")
    return Scenario(
        name=name,
        description=str(payload.get("description", "")),
        perturbations=tuple(perturbation_from_dict(entry)
                            for entry in perturbations),
        seed=None if seed is None else int(seed),  # type: ignore[arg-type]
        replicate_of=None if replicate_of is None else str(replicate_of),
    )


def parse_suite(payload: Dict[str, object],
                source: Optional[Path] = None) -> ScenarioSuiteSpec:
    """Build a suite spec from an already-parsed TOML/JSON document."""
    path = source or Path("<spec>")
    if not isinstance(payload, dict):
        raise ScenarioError(f"spec {path} must be a table/object at top level")
    unknown = set(payload) - {"study", "scenarios"}
    if unknown:
        raise ScenarioError(
            f"spec {path} has unknown top-level keys {sorted(unknown)}")
    study = payload.get("study", {})
    if not isinstance(study, dict):
        raise ScenarioError(f"[study] in {path} must be a table")
    bad = set(study) - set(_STUDY_FIELDS)
    if bad:
        raise ScenarioError(
            f"[study] in {path} has unknown keys {sorted(bad)}; "
            f"supported: {list(_STUDY_FIELDS)}")
    entries = payload.get("scenarios", [])
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"spec {path} declares no scenarios")
    scenarios = [_parse_scenario(entry, path) for entry in entries]
    names = [scenario.name for scenario in scenarios]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ScenarioError(
            f"spec {path} has duplicate scenario names {sorted(duplicates)}")
    return ScenarioSuiteSpec(scenarios=scenarios,
                             study_overrides=dict(study), source=source)


def read_spec_payload(path: Union[str, Path]) -> Dict[str, object]:
    """The raw (unvalidated) document of a ``.toml``/``.json`` spec file.

    This is the JSON-serialisable payload the study-service gateway
    accepts as a submission's ``suite`` value — the client reads a spec
    file with this and ships it over the wire, where
    :func:`parse_suite` validates it exactly like the batch CLI would.
    """
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario spec {path} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        return _load_toml(path)
    if suffix == ".json":
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    raise ScenarioError(
        f"unsupported spec format {suffix!r} for {path}; "
        f"use .toml or .json")


def load_suite(path: Union[str, Path]) -> ScenarioSuiteSpec:
    """Load a scenario suite spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    return parse_suite(read_spec_payload(path), source=path)


def resolve_submission(
    payload: Dict[str, object],
    default_config: Optional[TraceGeneratorConfig] = None,
    source: Optional[Path] = None,
) -> Tuple[TraceGeneratorConfig, List[Scenario]]:
    """Turn a suite request into ``(base config, concrete scenarios)``.

    The request reuses the spec format end to end: an inline ``suite``
    document (read from ``source``, which errors name) is parsed by
    :func:`parse_suite` and its ``[study]`` table applies to
    ``default_config`` first, ``study`` overrides the baseline knobs on
    top, ``scenarios`` selects names from the suite (or the built-in
    catalog when no suite is given), ``sweep`` takes the CLI's
    ``kind.field=v1,v2`` axis strings, and ``replicates`` adds seed
    re-rolls.  Sweep templates are expanded here, so the returned list is
    exactly what will run.
    """
    if not isinstance(payload, dict):
        raise ScenarioError("submission payload must be a JSON object")
    unknown = set(payload) - _SUBMISSION_KEYS
    if unknown:
        raise ScenarioError(
            f"submission has unknown keys {sorted(unknown)}; "
            f"supported: {sorted(_SUBMISSION_KEYS)}")
    base = default_config if default_config is not None \
        else TraceGeneratorConfig()

    suite_payload = payload.get("suite")
    if suite_payload is not None:
        spec = parse_suite(suite_payload, source=source)
        catalog = spec.catalog()
        base = spec.base_config(base)
    else:
        catalog = builtin_scenarios()

    study = payload.get("study") or {}
    if not isinstance(study, dict):
        raise ScenarioError("'study' must be an object of baseline overrides")
    bad = set(study) - set(_STUDY_FIELDS)
    if bad:
        raise ScenarioError(
            f"'study' has unknown keys {sorted(bad)}; "
            f"supported: {list(_STUDY_FIELDS)}")
    if study:
        base = replace(base, **study)

    names = payload.get("scenarios")
    if names is not None:
        if (not isinstance(names, list)
                or not all(isinstance(name, str) for name in names)):
            raise ScenarioError("'scenarios' must be a list of names")
        names = tuple(names)
    scenarios = list(resolve_scenarios(names, catalog))

    sweep_flags = payload.get("sweep")
    if sweep_flags:
        if (not isinstance(sweep_flags, list)
                or not all(isinstance(flag, str) for flag in sweep_flags)):
            raise ScenarioError(
                "'sweep' must be a list of kind.field=v1,v2,... strings")
        scenarios.append(sweep_from_flags(sweep_flags))
    scenarios = expand_sweeps(scenarios)

    replicates = int(payload.get("replicates", 1))
    if replicates != 1:
        # replicate_scenarios validates the count (at least 1).
        scenarios = replicate_scenarios(scenarios, replicates,
                                        base_seed=base.seed)
    return base, list(scenarios)
