"""The synthetic two-year study workload.

The study's workload matches the paper's dataset in scale and marginal
distributions: ~6000 jobs / ~600k circuits / billions of shots over 28
months across the machine fleet, with exponential demand growth, mixed
public/privileged access, and the mixed user population of
:mod:`repro.workloads.users`.

It is built in three deterministic stages, which the parallel study runner
(:mod:`repro.runner`) runs from worker processes:

* :func:`plan_submissions` — when each job is submitted (pure function of
  the config seed),
* :class:`JobSynthesizer` — what each job looks like (keyed by the *global*
  job index through :meth:`repro.core.rng.RandomSource.spawn`, so the result
  does not depend on which shard or process synthesises it),
* :func:`record_for` — how a completed job becomes a trace row.

:func:`repro.runner.run_study` turns a :class:`TraceGeneratorConfig` into
the merged :class:`~repro.workloads.trace.TraceDataset` the analysis layer
and the per-figure benches consume.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.backlog import ExternalLoadModel
from repro.cloud.job import CircuitBatch, Job
from repro.cloud.fastsim import FailureModel
from repro.core.exceptions import WorkloadError
from repro.core.rng import RandomSource, generator_from_words
from repro.core.units import DAY_SECONDS
from repro.devices.backend import Backend
from repro.devices.calibration import DriftModel
from repro.devices.catalog import STUDY_MONTHS, fleet_in_study
from repro.scheduling.policies import SelectionObjective
from repro.workloads.circuit_metrics import compiled_metrics
from repro.workloads.compile_model import CompileTimeModel
from repro.workloads.distributions import WorkloadDistributions
from repro.workloads.trace import JobRecord
from repro.workloads.users import (
    MachineSelectionPolicy,
    UserProfile,
    default_user_population,
    pick_user,
)

#: Average length of a study month in seconds.
MONTH_SECONDS = 30.4 * DAY_SECONDS

#: An estimator of the pending-job count on a backend at a timestamp,
#: used by queue-sensitive machine-selection policies.
PendingEstimator = Callable[[Backend, float], float]


@dataclass(frozen=True)
class ScenarioKnobs:
    """Declarative what-if perturbations applied on top of the baseline study.

    Every default is neutral: a config whose knobs are all defaults (or whose
    ``scenario`` field is ``None``) produces the baseline trace bit for bit.
    The knobs are plain data — tuples, floats, strings — so the trace-cache
    fingerprint covers them automatically and two scenarios that expand to
    the same knobs share one cache entry.

    The scenario layer (:mod:`repro.scenarios`) builds these from composable
    perturbation objects; they can also be set directly.
    """

    #: uniform multiplier on every month's arrival rate (demand surge/lull)
    demand_scale: float = 1.0
    #: per-month arrival-rate multipliers (index = month; missing months = 1.0)
    monthly_demand: Tuple[float, ...] = ()
    #: temporary outage windows: (machine, first_month, last_month) inclusive
    machine_outages: Tuple[Tuple[str, int, int], ...] = ()
    #: machines removed from the fleet for the whole study
    machines_removed: Tuple[str, ...] = ()
    #: fleet timeline changes: (machine, online_since_month) overrides
    machine_online_overrides: Tuple[Tuple[str, int], ...] = ()
    #: multiplier on calibration drift rates (error growth / coherence decay)
    calibration_drift_scale: float = 1.0
    #: fleet-wide multiplier on the external-backlog regime
    backlog_scale: float = 1.0
    #: per-machine backlog multipliers, composed with ``backlog_scale``
    machine_backlog_scales: Tuple[Tuple[str, float], ...] = ()
    #: terminal-status failure rates (None = the simulator's defaults)
    error_probability: Optional[float] = None
    cancel_probability: Optional[float] = None
    #: machine-selection policy forced onto every user (policy swap);
    #: a :class:`~repro.workloads.users.MachineSelectionPolicy` value
    forced_policy: Optional[str] = None
    #: full transpile-based ranking forced onto every user
    #: (``PolicySwap(mode="rank")``): a
    #: :class:`~repro.scheduling.policies.SelectionObjective` value.  Every
    #: job then picks its machine from the equivalence-class rank table
    #: instead of the trace-level policy heuristics.
    ranking_objective: Optional[str] = None
    #: preset optimisation level the rank table transpiles classes at
    ranking_level: int = 3

    def __post_init__(self):
        if self.demand_scale <= 0:
            raise WorkloadError("demand_scale must be positive")
        if any(m < 0 for m in self.monthly_demand):
            raise WorkloadError("monthly demand multipliers must be >= 0")
        if self.calibration_drift_scale < 0:
            raise WorkloadError("calibration_drift_scale must be >= 0")
        if self.backlog_scale <= 0:
            raise WorkloadError("backlog_scale must be positive")
        if any(s <= 0 for _, s in self.machine_backlog_scales):
            raise WorkloadError("machine backlog scales must be positive")
        for probability in (self.error_probability, self.cancel_probability):
            if probability is not None and not 0 <= probability < 1:
                raise WorkloadError("failure probabilities must be in [0, 1)")
        for machine, first, last in self.machine_outages:
            if first > last:
                raise WorkloadError(
                    f"outage window for {machine!r} has first month {first} "
                    f"after last month {last}")
        if self.forced_policy is not None:
            valid = {p.value for p in MachineSelectionPolicy}
            if self.forced_policy not in valid:
                raise WorkloadError(
                    f"unknown forced policy {self.forced_policy!r}; "
                    f"choose one of {sorted(valid)}")
        if self.ranking_objective is not None:
            valid = {o.value for o in SelectionObjective}
            if self.ranking_objective not in valid:
                raise WorkloadError(
                    f"unknown ranking objective {self.ranking_objective!r}; "
                    f"choose one of {sorted(valid)}")
            if self.forced_policy is not None:
                raise WorkloadError(
                    "forced_policy and ranking_objective are mutually "
                    "exclusive: a rank-mode scenario replaces the "
                    "trace-level policy swap entirely")
        if not 0 <= self.ranking_level <= 3:
            raise WorkloadError(
                f"ranking_level must be a preset level 0-3, "
                f"got {self.ranking_level}")

    def is_neutral(self) -> bool:
        """True if the knobs leave the baseline study untouched."""
        reference = ScenarioKnobs()
        if self.monthly_demand and all(value == 1.0
                                       for value in self.monthly_demand):
            # An all-ones overlay is demand-shaping that shapes nothing.
            reference = replace(reference, monthly_demand=self.monthly_demand)
        return self == reference

    def demand_multipliers(self, months: int) -> Optional[List[float]]:
        """Per-month arrival-rate multipliers, or None when neutral."""
        if self.demand_scale == 1.0 and not self.monthly_demand:
            return None
        overlay = list(self.monthly_demand[:months])
        overlay += [1.0] * (months - len(overlay))
        multipliers = [self.demand_scale * value for value in overlay]
        if all(value == 1.0 for value in multipliers):
            return None
        return multipliers

    def apply_to_fleet(self, fleet: Dict[str, Backend]) -> Dict[str, Backend]:
        """Apply the fleet-shaped perturbations to a freshly built fleet."""
        for name in self.machines_removed:
            fleet.pop(name, None)
        for name, month in self.machine_online_overrides:
            backend = fleet.get(name)
            if backend is not None:
                backend.online_since_month = int(month)
        for name, first, last in self.machine_outages:
            backend = fleet.get(name)
            if backend is not None:
                months = set(backend.offline_months)
                months.update(range(int(first), int(last) + 1))
                backend.offline_months = tuple(sorted(months))
        if self.calibration_drift_scale != 1.0:
            scale = self.calibration_drift_scale
            for backend in fleet.values():
                drift = backend.calibration_model.drift
                backend.calibration_model.drift = DriftModel(
                    error_growth_per_hour=drift.error_growth_per_hour * scale,
                    coherence_decay_per_hour=(
                        drift.coherence_decay_per_hour * scale),
                )
        per_machine = dict(self.machine_backlog_scales)
        if self.backlog_scale != 1.0 or per_machine:
            for name, backend in fleet.items():
                scale = self.backlog_scale * per_machine.get(name, 1.0)
                if scale != 1.0:
                    backend.metadata["backlog_scale"] = scale
        if not fleet:
            raise WorkloadError(
                "scenario perturbations removed every machine from the fleet")
        return fleet


@dataclass
class TraceGeneratorConfig:
    """Knobs of the synthetic trace."""

    total_jobs: int = 6000
    months: int = STUDY_MONTHS
    #: ratio between the last month's job rate and the first month's
    growth_ratio: float = 12.0
    seed: int = 7
    distributions: WorkloadDistributions = field(default_factory=WorkloadDistributions)
    compile_model: CompileTimeModel = field(default_factory=CompileTimeModel)
    users: Sequence[UserProfile] = field(default_factory=default_user_population)
    include_simulator: bool = True
    #: declarative what-if perturbations (None = the baseline study)
    scenario: Optional[ScenarioKnobs] = None

    def __post_init__(self):
        # A bool or float seed would be truncated where the streams are
        # seeded but fingerprinted as itself: one trace, several cache keys.
        for name in ("total_jobs", "months", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, numbers.Integral):
                raise WorkloadError(
                    f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise WorkloadError(
                f"seed must be non-negative, got {self.seed}")
        if self.total_jobs < 1:
            raise WorkloadError("total_jobs must be positive")
        if self.months < 1:
            raise WorkloadError("months must be positive")
        if self.growth_ratio <= 0:
            raise WorkloadError("growth_ratio must be positive")

    def jobs_per_month(self) -> List[int]:
        """Exponentially growing monthly job counts.

        The baseline counts sum to ``total_jobs``; scenario demand shaping
        multiplies each month's arrival rate relative to that baseline (a
        surge therefore raises the total while a lull lowers it).
        """
        rate = self.growth_ratio ** (1.0 / max(self.months - 1, 1))
        weights = [rate ** month for month in range(self.months)]
        total_weight = sum(weights)
        counts = [int(round(self.total_jobs * w / total_weight))
                  for w in weights]
        # Fix rounding drift on the busiest month.  A surplus larger than
        # that month's count comes off the preceding months, latest first.
        counts[-1] += self.total_jobs - sum(counts)
        month = len(counts) - 1
        while counts[month] < 0:
            counts[month - 1] += counts[month]
            counts[month] = 0
            month -= 1
        multipliers = (None if self.scenario is None
                       else self.scenario.demand_multipliers(self.months))
        if multipliers is None:
            return counts
        # Multipliers scale the *baseline counts* (not the raw weights), so
        # months a scenario leaves at 1.0 keep the exact baseline schedule
        # and per-scenario deltas are attributable to the perturbation.
        return [max(0, int(round(count * multiplier)))
                for count, multiplier in zip(counts, multipliers)]

    def build_fleet(self) -> Dict[str, Backend]:
        """The study fleet this configuration simulates."""
        fleet = fleet_in_study(seed=self.seed,
                               include_simulator=self.include_simulator)
        if self.scenario is not None:
            fleet = self.scenario.apply_to_fleet(fleet)
        return fleet

    def build_failure_model(self) -> Optional[FailureModel]:
        """The scenario's failure model (None = the simulator's default)."""
        knobs = self.scenario
        if knobs is None or (knobs.error_probability is None
                             and knobs.cancel_probability is None):
            return None
        defaults = FailureModel()
        return FailureModel(
            error_probability=(defaults.error_probability
                               if knobs.error_probability is None
                               else knobs.error_probability),
            cancel_probability=(defaults.cancel_probability
                                if knobs.cancel_probability is None
                                else knobs.cancel_probability),
        )


@dataclass(frozen=True)
class PlannedSubmission:
    """One planned job submission: when it happens and which job it is."""

    submit_time: float
    month: int
    job_index: int


def job_id_for_index(job_index: int) -> str:
    """The deterministic job id of the ``job_index``-th planned submission."""
    return f"job-{job_index + 1:06d}"


def plan_submissions(config: TraceGeneratorConfig) -> List[PlannedSubmission]:
    """Lay out every submission of the study, sorted by submission time.

    The schedule is a pure function of the config seed: monthly job counts
    follow the configured exponential growth, and each job's offset within
    its month is drawn from the root trace-generator stream in a fixed
    order.  Shard runners therefore all agree on the exact same plan.
    """
    rng = RandomSource(config.seed, name="trace_generator")
    submissions: List[PlannedSubmission] = []
    job_index = 0
    for month, count in enumerate(config.jobs_per_month()):
        month_start = month * MONTH_SECONDS
        for _ in range(count):
            offset = rng.uniform(0.0, MONTH_SECONDS)
            submissions.append(PlannedSubmission(
                submit_time=month_start + offset,
                month=month,
                job_index=job_index,
            ))
            job_index += 1
    submissions.sort(key=lambda item: item.submit_time)
    return submissions


#: Circuits per job, from the first, that carry a jittered metric variant.
JITTERED_CIRCUITS = 16

#: Submissions whose job streams and circuit-jitter streams
#: :meth:`JobSynthesizer.synthesise_many` seeds in one vectorised
#: :func:`~repro.core.rng.seed_words` pass.
SYNTHESIS_CHUNK = 1024

#: Lower bounds of the jittered (depth, gates, cx, cx_depth) metrics, as
#: in :meth:`~repro.workloads.circuit_metrics.CircuitMetrics.jittered`.
_JITTER_FLOORS = np.array([1.0, 1.0, 0.0, 0.0])

#: Width of the memoisation buckets of :func:`expected_pending_estimator`.
PENDING_BUCKET_SECONDS = 3600.0


def expected_pending_estimator(
    fleet: Dict[str, Backend],
    bucket_seconds: float = PENDING_BUCKET_SECONDS,
) -> PendingEstimator:
    """A service-free pending-jobs estimator (the external-load expectation).

    Queue-sensitive users see the *expected* backlog of each machine, a pure
    function of the timestamp.  It does not depend on how many studied jobs
    happen to sit in the queue of one shard's service, so machine selection
    is identical for every shard layout.

    Lookups are memoised per ``(backend, coarse time bucket)``: every job
    probes every eligible machine at its submission time, and in the busy
    late months many submissions land in the same hour, so quantising the
    probe to the bucket start stops machine-selection probing from
    recomputing the same external-load expectation thousands of times.  The
    bucketed estimate stays a pure function of the timestamp, so shard
    layouts still agree exactly.
    """
    models = {
        name: ExternalLoadModel(backend=backend)
        for name, backend in fleet.items()
    }
    cache: Dict[Tuple[str, int], float] = {}

    def estimate(backend: Backend, timestamp: float) -> float:
        bucket = int(timestamp // bucket_seconds)
        key = (backend.name, bucket)
        value = cache.get(key)
        if value is None:
            value = models[backend.name].mean_pending_jobs(
                bucket * bucket_seconds)
            cache[key] = value
        return value

    return estimate


class JobSynthesizer:
    """Synthesises study jobs deterministically by global job index.

    All randomness of job ``i`` comes from ``root.spawn(i)``, where ``root``
    is the trace-generator stream of the config seed.  Two synthesizers with
    the same config and fleet therefore produce byte-identical jobs for the
    same index, no matter how many other jobs either one has synthesised —
    the property the sharded study runner relies on.
    """

    def __init__(self, config: TraceGeneratorConfig,
                 fleet: Dict[str, Backend], *,
                 rank_table: Optional["ClassRankTable"] = None):
        self.config = config
        self.fleet = fleet
        self._root = RandomSource(config.seed, name="trace_generator")
        self._pending = expected_pending_estimator(fleet)
        self._eligible: Dict[Tuple[int, int, bool], Tuple[Backend, ...]] = {}
        scenario = config.scenario
        if rank_table is None and scenario is not None \
                and scenario.ranking_objective is not None:
            # Rank-mode study synthesised outside the runner, which ships a
            # prebuilt table: selections compute class summaries inline.
            # Every summary is a pure function, so this is byte-identical
            # to the runner's sharded warm-up — just slower on cold classes.
            from repro.workloads.transpile_classes import ClassRankTable
            rank_table = ClassRankTable(
                objective=scenario.ranking_objective,
                level=scenario.ranking_level)
        self.rank_table = rank_table

    def _build_circuits(self, rng: RandomSource, family: str, width: int,
                        batch_size: int, base_metrics,
                        jitter_words: np.ndarray) -> CircuitBatch:
        """Materialise the job's circuits as a compact columnar batch.

        Only the first min(16, batch) circuits carry jittered metrics; the
        rest of the batch shares ``base_metrics`` exactly, so the batch
        stores just those variants as a ``(k, 5)`` array.  Variant ``i``
        draws its factor from the stream ``rng.child("circuit", i)``, built
        here from row ``i`` of ``jitter_words`` (its precomputed seed
        words) and drawn exactly as
        :meth:`~repro.workloads.circuit_metrics.CircuitMetrics.jittered`
        draws it: ``np.rint`` rounds half to even like ``round``, and the
        products are the same IEEE multiplies.  Deriving the streams draws
        nothing from ``rng``.  The row-path reference synthesiser
        overrides only this hook.
        """
        count = min(batch_size, JITTERED_CIRCUITS)
        draws = [generator_from_words(words).normal(0.0, 0.08)
                 for words in jitter_words[:count]]
        factors = np.maximum(0.5, 1.0 + np.array(draws))
        base = [getattr(base_metrics, name)
                for name in CircuitBatch.METRIC_FIELDS]
        variants = np.empty((count, len(base)), dtype=np.int64)
        variants[:, 0] = base[0]
        variants[:, 1:] = np.maximum(
            np.rint(np.multiply.outer(factors, np.array(base[1:], float))),
            _JITTER_FLOORS)
        return CircuitBatch(f"{family}_{width}_", family, batch_size, base,
                            variants)

    def _eligible_backends(self, month: int, width: int,
                           privileged: bool) -> Tuple[Backend, ...]:
        """The fleet's machines a job of this month, width and access may
        run on, in fleet order; memoised per ``(month, width,
        privileged)``."""
        key = (month, width, privileged)
        eligible = self._eligible.get(key)
        if eligible is None:
            eligible = self._eligible[key] = tuple(
                backend for backend in self.fleet.values()
                if backend.is_online_in_month(month)
                and backend.num_qubits >= width
                and (backend.is_public or privileged))
        return eligible

    def _draw_prefix(self, planned: PlannedSubmission, rng: RandomSource):
        """Replay the fixed draw prefix of one job's random stream ``rng``.

        Everything up to (but excluding) machine selection: the user, the
        privileged draw, the circuit shape, and the eligibility/shrink
        loop.  This is the part of :meth:`synthesise` whose outcome decides
        which transpile equivalence class the job probes, factored out so
        :meth:`class_requirements` — the rank-mode transpile planner — and
        the synthesis path replay *the same code* and can never drift
        apart.  Returns ``None`` when nothing fits, else
        ``(user, privileged, family, width, eligible)`` with ``rng``
        positioned exactly where machine selection would continue.
        """
        config = self.config
        distributions = config.distributions

        user = pick_user(config.users, rng)
        if config.scenario is not None and config.scenario.forced_policy:
            # Policy swap: the user population (and its random draws) is
            # unchanged so scenarios stay comparable job for job; only the
            # selection behaviour is overridden.
            user = replace(user, policy=MachineSelectionPolicy(
                config.scenario.forced_policy))
        privileged = rng.random() < user.privileged_probability

        width = distributions.width.sample(rng)
        family = distributions.family.sample(rng)
        eligible = self._eligible_backends(planned.month, width, privileged)
        if not eligible:
            # Shrink the circuit until something fits (tiny early-fleet months).
            while width > 1 and not eligible:
                width = max(1, width // 2)
                eligible = self._eligible_backends(planned.month, width,
                                                   privileged)
            if not eligible:
                return None
        return user, privileged, family, width, eligible

    def class_requirements(
            self, plans: Sequence[PlannedSubmission]
    ) -> List[Optional[Tuple[str, int, Tuple[str, ...]]]]:
        """The transpile class each planned job will probe, without
        synthesising it: ``(family, width, eligible machine names)``, or
        ``None`` where nothing fits.

        Used by the runner's rank-mode warm-up to enumerate exactly the
        (class, machine) transpiles the study needs.  Cheap: only the draw
        prefix is replayed, on each job's own fresh stream (seeded by
        chunk, as :meth:`synthesise_many` seeds them), so probing job ``i``
        here never perturbs job ``i``'s synthesis.
        """
        requirements = []
        for planned, rng, _ in self._streams(plans, 0):
            prefix = self._draw_prefix(planned, rng)
            if prefix is None:
                requirements.append(None)
                continue
            _, _, family, width, eligible = prefix
            requirements.append(
                (family, width, tuple(b.name for b in eligible)))
        return requirements

    def synthesise(self, planned: PlannedSubmission) -> Optional[Job]:
        """Build the job for one planned submission (None if nothing fits)."""
        return self.synthesise_many([planned])[0]

    def synthesise_many(self, plans: Sequence[PlannedSubmission]
                        ) -> List[Optional[Job]]:
        """Build the job of every planned submission, in plan order.

        Each job's ``spawn(job_index)`` stream and the
        ``child_seed("circuit", i)`` seeds of its first
        :data:`JITTERED_CIRCUITS` circuits come from :meth:`_streams`, so
        no jitter stream is a :class:`RandomSource` of its own.  The jobs
        equal those of one :meth:`synthesise` call each.
        """
        return [self._synthesise(planned, rng, words)
                for planned, rng, words in self._streams(
                    plans, JITTERED_CIRCUITS)]

    def _streams(self, plans: Sequence[PlannedSubmission], lanes: int
                 ) -> Iterator[Tuple[PlannedSubmission, RandomSource,
                                     np.ndarray]]:
        """``(planned, stream, lane words)`` of every planned submission.

        The streams of each chunk of :data:`SYNTHESIS_CHUNK` submissions
        are seeded together by :meth:`~repro.core.rng.RandomSource.
        spawn_many`: every job's ``spawn(job_index)`` stream and the seed
        words of its first ``lanes`` ``child("circuit", i)`` streams, mixed
        in one :func:`~repro.core.rng.seed_words` call.
        """
        for start in range(0, len(plans), SYNTHESIS_CHUNK):
            chunk = plans[start:start + SYNTHESIS_CHUNK]
            streams, words = self._root.spawn_many(
                [planned.job_index for planned in chunk], "circuit", lanes)
            yield from zip(chunk, streams, words)

    def _synthesise(self, planned: PlannedSubmission, rng: RandomSource,
                    jitter_words: np.ndarray) -> Optional[Job]:
        config = self.config
        month = planned.month
        submit_time = planned.submit_time
        distributions = config.distributions

        prefix = self._draw_prefix(planned, rng)
        if prefix is None:
            return None
        user, privileged, family, width, eligible = prefix
        provider = "academic-hub" if privileged else "open"

        # Built only for the selections that read it; the estimator draws
        # nothing, so skipping it changes no stream.
        pending_estimate = None
        if self.rank_table is not None or user.policy.reads_pending:
            pending_estimate = {
                b.name: self._pending(b, submit_time) for b in eligible
            }
        if self.rank_table is not None:
            # Rank mode: every user selects through the batch-ranked
            # equivalence-class table (the full MachineSelector algebra)
            # instead of the trace-level policy heuristics.  No rng draws —
            # the selection is a pure function of the class summaries and
            # the expected pending load.
            backend = self.rank_table.select(family, width, eligible,
                                             pending_estimate)
        else:
            backend = user.select_machine(eligible, rng,
                                          timestamp=submit_time,
                                          pending_estimate=pending_estimate)
        width = min(width, backend.num_qubits)
        if width < 1:
            width = 1

        batch_size = distributions.batch_size.sample(rng)
        batch_size = min(batch_size, backend.max_batch_size)
        shots = min(distributions.shots.sample(rng), backend.max_shots)

        base_metrics = compiled_metrics(family, max(width, 1), backend, rng=rng)
        circuits = self._build_circuits(rng, family, width, batch_size,
                                        base_metrics, jitter_words)

        compile_seconds = config.compile_model.job_seconds(
            base_metrics, batch_size, backend.num_qubits, rng=rng
        )
        job = Job(
            provider=provider,
            backend_name=backend.name,
            circuits=circuits,
            shots=shots,
            submit_time=submit_time,
            compile_seconds=compile_seconds,
            job_id=job_id_for_index(planned.job_index),
            metadata={
                "family": family,
                "month_index": month,
                "user_policy": (
                    f"rank-{self.rank_table.objective.value}"
                    if self.rank_table is not None else user.policy.value),
                "job_index": planned.job_index,
            },
        )
        return job


def plan_transpile_classes(
        config: TraceGeneratorConfig,
        fleet: Dict[str, Backend],
) -> Tuple[List[Tuple[str, int, str]], Dict[str, int]]:
    """Enumerate the (family, width, machine) transpiles a rank study needs.

    Replays the draw prefix of every planned submission (cheap — no circuit
    building, no selection) and unions the (class, eligible machine) pairs
    the selections will probe.  The pair list is sorted, so shard planning
    over it is deterministic for any worker count.

    Returns ``(pairs, stats)`` where ``stats`` counts the amortisation:
    ``probes`` is how many per-job machine rankings the study will perform,
    ``circuits`` would each have paid a transpile in a naive per-circuit
    implementation, and ``pairs`` is what the study actually transpiles.
    """
    synthesizer = JobSynthesizer(config, fleet)
    pairs = set()
    probes = 0
    jobs = 0
    for requirement in synthesizer.class_requirements(
            plan_submissions(config)):
        if requirement is None:
            continue
        family, width, machines = requirement
        jobs += 1
        probes += len(machines)
        for machine in machines:
            pairs.add((family, width, machine))
    ordered = sorted(pairs)
    stats = {
        "jobs": jobs,
        "probes": probes,
        "classes": len({(family, width) for family, width, _ in ordered}),
        "pairs": len(ordered),
    }
    return ordered, stats


def record_for(job: Job, fleet: Dict[str, Backend]) -> JobRecord:
    """Turn a finished job into the trace row the analysis layer consumes."""
    backend = fleet[job.backend_name]
    first = job.circuits[0]
    crossed = False
    if job.start_time is not None:
        crossed = backend.calibration_model.crosses_calibration(
            job.submit_time, job.start_time
        )
    batch_size = job.batch_size
    if isinstance(job.circuits, CircuitBatch):
        # O(variants) aggregate instead of a 900-iteration spec walk; the
        # integer totals are exact, so the means match the loop bit for bit.
        total_depth, total_gates, total_cx, total_cx_depth = \
            job.circuits.totals()
    else:
        total_depth = sum(c.depth for c in job.circuits)
        total_gates = sum(c.num_gates for c in job.circuits)
        total_cx = sum(c.cx_count for c in job.circuits)
        total_cx_depth = sum(c.cx_depth for c in job.circuits)
    mean_depth = int(round(total_depth / batch_size))
    mean_gates = int(round(total_gates / batch_size))
    mean_cx = int(round(total_cx / batch_size))
    mean_cx_depth = int(round(total_cx_depth / batch_size))
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
