"""Executing scenario suites through the sharded study runner.

:func:`run_scenarios` expands each scenario against the baseline config
(sweep templates first expand into their concrete grid variants),
fingerprints the expanded config (the *scenario fingerprint* — also the
trace-cache key), deduplicates scenarios that expand to the same study, and
schedules every distinct study onto **one shared worker pool** through
:func:`~repro.runner.executor.run_suite`: synthesis shards and machine-group
simulations of different scenarios interleave on the same workers instead of
each scenario paying its own pool start-up and serialising behind the
previous one.  Per-scenario worker state is keyed by config fingerprint, so
the interleaving cannot change a single byte — a suite run is byte-identical
to one :func:`~repro.runner.executor.run_study` per scenario (tested).

Any scenario whose expanded config was already generated — by a previous
suite, by a plain ``run-study``, or by an identical sibling scenario — is
served from the trace cache instead of being re-simulated.  A hit is read
the way a plain study's is: a ``.npz`` entry whole, chunked under the
memory budget, so it outlives a later prune of its entry.

Each ``study-done`` and ``cache-hit`` event the suite reports names, in its
``scenarios`` detail, the scenarios of that fingerprint, so a progress
consumer labels partial results without fingerprinting a scenario again.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.exceptions import ScenarioError
from repro.devices.backend import Backend
from repro.runner.cache import TraceCache, config_fingerprint
from repro.runner.executor import (
    EventCallback,
    StudyResult,
    SuiteEvent,
    run_suite,
)
from repro.runner.pool import SharedWorkerPool
from repro.scenarios.scenario import Scenario
from repro.scenarios.sweep import expand_sweeps
from repro.workloads.generator import TraceGeneratorConfig
from repro.workloads.trace import TraceDataset


@dataclass
class ScenarioRun:
    """One executed scenario: its expansion and the study it produced."""

    scenario: Scenario
    config: TraceGeneratorConfig
    fingerprint: str
    result: StudyResult
    #: name of the sibling scenario this one shared a fingerprint with
    #: (None when the scenario ran — or hit the cache — on its own)
    deduplicated_from: Optional[str] = None

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def trace(self) -> TraceDataset:
        return self.result.trace

    @property
    def cache_hit(self) -> bool:
        return self.result.cache_hit or self.deduplicated_from is not None

    def build_fleet(self) -> Dict[str, Backend]:
        """The scenario's fleet (outages/drift/backlog knobs applied)."""
        return self.config.build_fleet()

    def summary(self) -> Dict[str, object]:
        return {
            "scenario": self.name,
            "fingerprint": self.fingerprint,
            "jobs": len(self.trace),
            "cache_hit": self.cache_hit,
            **({"deduplicated_from": self.deduplicated_from}
               if self.deduplicated_from else {}),
            **({"replicate_of": self.scenario.replicate_of}
               if self.scenario.replicate_of else {}),
            "seconds": round(self.result.total_seconds, 3),
        }


@dataclass
class ScenarioSuiteResult:
    """All scenario runs of one suite, in execution order."""

    runs: List[ScenarioRun] = field(default_factory=list)
    base_config: Optional[TraceGeneratorConfig] = None
    total_seconds: float = 0.0

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def names(self) -> List[str]:
        return [run.name for run in self.runs]

    def run_for(self, name: str) -> ScenarioRun:
        for run in self.runs:
            if run.name == name:
                return run
        raise ScenarioError(
            f"no scenario {name!r} in this suite; ran: {self.names()}")

    @property
    def results(self) -> Dict[str, StudyResult]:
        """Per-scenario :class:`StudyResult` handles, keyed by name — the
        same return surface :func:`~repro.runner.executor.run_study` has,
        so suite and single-study callers consume one shape."""
        return {run.name: run.result for run in self.runs}

    def result_for(self, name: str) -> StudyResult:
        """The :class:`StudyResult` handle of one scenario."""
        return self.run_for(name).result

    def fingerprints(self) -> Dict[str, str]:
        """Scenario name → config fingerprint (trace-cache key)."""
        return {run.name: run.fingerprint for run in self.runs}

    def summary(self) -> Dict[str, object]:
        return {
            "scenarios": [run.summary() for run in self.runs],
            "total_seconds": round(self.total_seconds, 3),
            "cache_hits": sum(1 for run in self.runs if run.cache_hit),
        }


def run_scenarios(
    scenarios: Sequence[Scenario],
    base_config: Optional[TraceGeneratorConfig] = None,
    *,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    cache_dir: Optional[Union[TraceCache, str, Path]] = None,
    pool: Optional[SharedWorkerPool] = None,
    on_event: Optional[EventCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> ScenarioSuiteResult:
    """Execute every scenario against ``base_config``; identical
    expansions run once.

    Sweep templates are expanded into their grid variants first, so the
    returned suite holds one run per concrete variant; the scenario list
    must be non-empty with unique names.  Every distinct study is
    scheduled through :func:`~repro.runner.executor.run_suite` onto one
    pool: ``pool`` keeps one set of workers alive across calls, and
    without one a transient pool of ``workers`` processes is created
    (terminated, not joined, if a task fails).  ``cache_dir`` is a
    directory or a :class:`~repro.runner.cache.TraceCache`; without one
    nothing is cached.  ``on_event`` and ``should_stop`` are
    :func:`~repro.runner.executor.run_suite`'s progress stream and
    cancel hook; a ``study-done`` or ``cache-hit`` event carries the names
    of its fingerprint's scenarios as its ``scenarios`` detail.
    """
    started = time.perf_counter()
    base_config = base_config or TraceGeneratorConfig()
    if not scenarios:
        raise ScenarioError("no scenarios to run")
    scenarios = expand_sweeps(scenarios)
    names = [scenario.name for scenario in scenarios]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ScenarioError(f"duplicate scenario names {sorted(duplicates)}")
    expansions = [(scenario, config, config_fingerprint(config))
                  for scenario in scenarios
                  for config in (scenario.apply_to(base_config),)]
    distinct: Dict[str, TraceGeneratorConfig] = {}
    names_by_key: Dict[str, List[str]] = {}
    for scenario, config, key in expansions:
        distinct.setdefault(key, config)
        names_by_key.setdefault(key, []).append(scenario.name)

    def labelled(event: SuiteEvent) -> None:
        if event.kind in ("study-done", "cache-hit") \
                and event.key in names_by_key:
            event = replace(event, detail={
                **event.detail, "scenarios": list(names_by_key[event.key])})
        on_event(event)

    with (nullcontext(pool) if pool is not None
          else SharedWorkerPool(workers)) as active:
        results = run_suite(list(distinct.items()), active,
                            num_shards=num_shards, cache=cache_dir,
                            on_event=None if on_event is None else labelled,
                            should_stop=should_stop)

    suite = ScenarioSuiteResult(base_config=base_config)
    for scenario, config, key in expansions:
        first_name = names_by_key[key][0]
        suite.runs.append(ScenarioRun(
            scenario=scenario, config=config, fingerprint=key,
            result=results[key],
            deduplicated_from=(first_name if first_name != scenario.name
                               else None)))
    suite.total_seconds = time.perf_counter() - started
    return suite
