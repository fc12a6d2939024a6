"""Executing scenario suites through the sharded study runner.

:class:`ScenarioEngine` expands each scenario against the baseline config
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
served from the trace cache instead of being re-simulated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.exceptions import ScenarioError
from repro.devices.backend import Backend
from repro.runner.cache import TraceCache, config_fingerprint
from repro.runner.executor import (
    EventCallback,
    ProgressCallback,
    StudyResult,
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
    def dataset(self) -> TraceDataset:
        """Alias of ``trace`` matching the :class:`StudyResult` surface."""
        return self.result.dataset

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


class ScenarioEngine:
    """Expands and executes declarative scenarios over the cloud simulation.

    ``lazy_cache`` defaults to True (comparisons read a handful of columns,
    so cache hits decompress lazily); the plain study runner defaults it to
    False.  Pass a :class:`~repro.runner.pool.SharedWorkerPool` as ``pool``
    to keep one set of workers alive across several ``run()`` calls —
    without one, each suite run creates a transient pool (terminated, not
    joined, if a worker task fails).
    """

    def __init__(
        self,
        base_config: Optional[TraceGeneratorConfig] = None,
        workers: Optional[int] = None,
        num_shards: Optional[int] = None,
        cache: Optional[Union[TraceCache, str, Path]] = None,
        progress: Optional[ProgressCallback] = None,
        lazy_cache: bool = True,
        pool: Optional[SharedWorkerPool] = None,
        on_event: Optional[EventCallback] = None,
        should_stop: Optional[Callable[[], bool]] = None,
        transpile_workers: Optional[int] = None,
    ):
        self.base_config = base_config or TraceGeneratorConfig()
        #: transpile-shard count for rank-mode scenarios (None = pool width);
        #: a runtime knob only — traces are identical for any value
        self.transpile_workers = transpile_workers
        self.workers = workers
        self.num_shards = num_shards
        if cache is not None and not isinstance(cache, TraceCache):
            cache = TraceCache(cache)
        self.cache = cache
        self.lazy_cache = lazy_cache
        self.pool = pool
        self._progress = progress or (lambda message: None)
        #: structured progress events (shards done/total + ETA) forwarded
        #: to run_suite; the gateway streams these over NDJSON and the CLI
        #: prints them under --progress
        self._on_event = on_event
        #: polled between studies by run_suite; True cancels the suite run
        self._should_stop = should_stop

    def expand(self, scenario: Scenario) -> TraceGeneratorConfig:
        """The concrete study config a scenario runs as."""
        return scenario.apply_to(self.base_config)

    def fingerprint(self, scenario: Scenario) -> str:
        """The scenario's trace-cache key (its content fingerprint)."""
        return config_fingerprint(self.expand(scenario))

    def _expansions(self, scenarios: Sequence[Scenario]
                    ) -> List[Tuple[Scenario, TraceGeneratorConfig, str]]:
        """Sweep-expand, validate names, and fingerprint every scenario."""
        if not scenarios:
            raise ScenarioError("no scenarios to run")
        scenarios = expand_sweeps(scenarios)
        names = [scenario.name for scenario in scenarios]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ScenarioError(
                f"duplicate scenario names {sorted(duplicates)}")
        return [(scenario, config, config_fingerprint(config))
                for scenario in scenarios
                for config in (self.expand(scenario),)]

    def run(self, scenarios: Sequence[Scenario],
            use_cache: bool = True) -> ScenarioSuiteResult:
        """Execute every scenario; identical expansions run once.

        Sweep templates are expanded into their grid variants first, so the
        returned suite holds one run per concrete variant.  Every distinct
        study is scheduled onto one shared pool.
        """
        started = time.perf_counter()
        expansions = self._expansions(scenarios)
        suite = ScenarioSuiteResult(base_config=self.base_config)
        distinct: Dict[str, TraceGeneratorConfig] = {}
        first_names: Dict[str, str] = {}
        for scenario, config, key in expansions:
            if key not in distinct:
                distinct[key] = config
                first_names[key] = scenario.name
            else:
                self._progress(
                    f"scenario {scenario.name!r} expands to the same study "
                    f"as {first_names[key]!r}; sharing its trace")
        self._progress(
            f"scheduling {len(distinct)} distinct studies "
            f"({len(expansions)} scenarios) on one shared pool")

        pool = self.pool
        owned = pool is None
        if owned:
            pool = SharedWorkerPool(self.workers)
        try:
            results = run_suite(
                list(distinct.items()), pool,
                num_shards=self.num_shards,
                cache=self.cache,
                use_cache=use_cache,
                lazy_cache=self.lazy_cache,
                progress=self._progress,
                on_event=self._on_event,
                should_stop=self._should_stop,
                transpile_workers=self.transpile_workers,
            )
        except BaseException:
            if owned:
                pool.terminate()
            raise
        else:
            if owned:
                pool.close()

        for scenario, config, key in expansions:
            deduplicated_from = None
            if first_names[key] != scenario.name:
                deduplicated_from = first_names[key]
            suite.runs.append(ScenarioRun(
                scenario=scenario, config=config, fingerprint=key,
                result=results[key], deduplicated_from=deduplicated_from))
        suite.total_seconds = time.perf_counter() - started
        return suite


def run_scenarios(
    scenarios: Sequence[Scenario],
    base_config: Optional[TraceGeneratorConfig] = None,
    *,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    use_cache: bool = True,
    lazy_cache: bool = True,
    pool: Optional[SharedWorkerPool] = None,
    on_event: Optional[EventCallback] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    transpile_workers: Optional[int] = None,
) -> ScenarioSuiteResult:
    """One-call entry point: run a scenario suite through the shared pool.

    ``lazy_cache`` defaults to True here (matching :class:`ScenarioEngine`:
    comparisons touch few columns, so cache hits load lazily) and is
    threaded through to the engine — unlike
    :func:`~repro.runner.executor.run_study`, whose default is False
    because a plain study usually consumes the whole trace.
    """
    scenario_engine = ScenarioEngine(
        base_config,
        workers=workers,
        num_shards=num_shards,
        cache=cache_dir,
        progress=progress,
        lazy_cache=lazy_cache,
        pool=pool,
        on_event=on_event,
        should_stop=should_stop,
        transpile_workers=transpile_workers,
    )
    return scenario_engine.run(scenarios, use_cache=use_cache)
