"""External-load model: the rest of the world's jobs.

The studied trace covers one research group's ~6000 jobs, but the queue a
job experiences is dominated by *everyone else's* jobs on the shared IBM
machines (Fig. 9 shows tens to thousands of pending jobs).  Simulating every
external user individually over two years is unnecessary for reproducing the
distributions; instead each machine carries a stationary stochastic backlog
model:

* the expected pending-job count scales with the machine's demand weight and
  is 10-100x higher on public machines (Fig. 9),
* the instantaneous backlog is lognormally distributed around that mean with
  heavy upper tails (queues of a day or more — Fig. 3/10),
* a diurnal/weekly modulation makes load time-dependent, and demand grows
  over the two-year window (Fig. 2a's accelerating usage).

Privileged (paid) access sees a reduced effective backlog because fair-share
weighting favours those providers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.exceptions import CloudError
from repro.core.rng import RandomSource
from repro.core.types import AccessLevel
from repro.core.units import DAY_SECONDS, MINUTE_SECONDS
from repro.devices.backend import Backend


#: Scalar or float64 array of timestamps (the model is vectorised over time).
TimeLike = Union[float, np.ndarray]


def diurnal_factor(timestamp: TimeLike) -> TimeLike:
    """Smooth daily + weekly demand modulation (1.0 on average).

    Accepts a scalar or an ndarray of timestamps; the scalar path keeps the
    exact ``math``-library arithmetic the simulator has always used.
    """
    if isinstance(timestamp, np.ndarray):
        day_phase = 2.0 * np.pi * ((timestamp % DAY_SECONDS) / DAY_SECONDS)
        week_phase = 2.0 * np.pi * ((timestamp % (7 * DAY_SECONDS))
                                    / (7 * DAY_SECONDS))
        daily = 1.0 + 0.35 * np.sin(day_phase - 0.8)
        weekly = 1.0 + 0.15 * np.sin(week_phase)
        return np.maximum(0.25, daily * weekly)
    day_phase = 2.0 * math.pi * ((timestamp % DAY_SECONDS) / DAY_SECONDS)
    week_phase = 2.0 * math.pi * ((timestamp % (7 * DAY_SECONDS)) / (7 * DAY_SECONDS))
    daily = 1.0 + 0.35 * math.sin(day_phase - 0.8)
    weekly = 1.0 + 0.15 * math.sin(week_phase)
    return max(0.25, daily * weekly)


def growth_factor(timestamp: TimeLike,
                  doubling_period: float = 420 * DAY_SECONDS) -> TimeLike:
    """Exponential demand growth over the study window (starts at 1.0)."""
    if isinstance(timestamp, np.ndarray):
        return np.exp2(np.maximum(timestamp, 0.0) / doubling_period)
    return 2.0 ** (max(timestamp, 0.0) / doubling_period)


@dataclass
class ExternalLoadModel:
    """Stationary backlog/pending-jobs model for one machine."""

    backend: Backend
    #: mean pending jobs on a *reference* public 5-qubit machine at t=0
    reference_pending_jobs: float = 30.0
    #: mean service seconds of an external job (used to convert jobs <-> work)
    mean_external_job_seconds: float = 150.0
    #: lognormal sigma of the instantaneous backlog around its mean
    backlog_sigma: float = 0.95
    #: multiplier applied to the backlog experienced by privileged submissions
    privileged_discount: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.reference_pending_jobs <= 0:
            raise CloudError("reference_pending_jobs must be positive")
        if self.mean_external_job_seconds <= 0:
            raise CloudError("mean_external_job_seconds must be positive")
        self._rng = RandomSource(self.seed, name=f"load/{self.backend.name}")
        weight = float(self.backend.metadata.get("demand_weight", 1.0))
        access_boost = 1.0 if self.backend.is_public else 0.28
        if self.backend.is_simulator:
            access_boost = 0.02
        size_penalty = 1.0 + 0.004 * self.backend.num_qubits
        # Scenario hook: a regime shift multiplies the machine's external
        # demand (2x backlog_scale => the rest of the world queues twice the
        # work on this machine).  Neutral (absent or 1.0) leaves the
        # baseline model bit-identical.
        regime_scale = float(self.backend.metadata.get("backlog_scale", 1.0))
        if regime_scale <= 0:
            raise CloudError("backlog_scale must be positive")
        self._base_pending = (
            self.reference_pending_jobs * weight * access_boost / size_penalty
            * regime_scale
        )
        # Hot-path constants: the lognormal mean-compensation factors
        # exp(-sigma^2/2) are pure functions of the sigmas, so paying
        # math.exp on every sample would recompute the same two values
        # millions of times per study.  (math.exp is deterministic, so the
        # precomputed values are bit-identical to the inline calls.)
        pending_sigma = self.backlog_sigma * 0.6
        self._pending_compensation = math.exp(-pending_sigma ** 2 / 2)
        self._backlog_compensation = math.exp(-self.backlog_sigma ** 2 / 2)
        if self.backend.is_simulator:
            self._idle_p = 0.6
        elif not self.backend.is_public:
            self._idle_p = 0.10
        else:
            # Busier public machines are rarely idle.
            self._idle_p = max(0.02, 0.15 / (1.0 + self._base_pending / 30.0))

    # -- pending jobs (Fig. 9) -------------------------------------------------------

    def mean_pending_jobs(self, timestamp: TimeLike) -> TimeLike:
        """Expected pending-job count at a point in time.

        Vectorised: an ndarray of timestamps yields an ndarray of expected
        counts (one model evaluation for a whole sampling window).
        """
        if isinstance(timestamp, np.ndarray):
            return np.maximum(
                0.2,
                self._base_pending * diurnal_factor(timestamp)
                * growth_factor(timestamp),
            )
        return max(
            0.2,
            self._base_pending * diurnal_factor(timestamp) * growth_factor(timestamp),
        )

    def sample_pending_jobs(self, timestamp: float,
                            rng: Optional[RandomSource] = None) -> int:
        """Sample an instantaneous pending-job count."""
        rng = rng or self._rng
        mean = self.mean_pending_jobs(timestamp)
        sigma = self.backlog_sigma * 0.6
        sampled = mean * math.exp(rng.normal(0.0, sigma)) \
            * self._pending_compensation
        return max(0, int(round(sampled)))

    # -- backlog seconds (queue wait contribution) -------------------------------------

    def sample_backlog_seconds(
        self,
        timestamp: float,
        access: AccessLevel = AccessLevel.PUBLIC,
        rng: Optional[RandomSource] = None,
    ) -> float:
        """Sample the external work (seconds) ahead of a new submission."""
        rng = rng or self._rng
        mean_jobs = self.mean_pending_jobs(timestamp)
        mean_backlog = mean_jobs * self.mean_external_job_seconds
        sigma = self.backlog_sigma
        backlog = mean_backlog * math.exp(rng.normal(0.0, sigma)) \
            * self._backlog_compensation
        if access is AccessLevel.PRIVILEGED or not self.backend.is_public:
            backlog *= self.privileged_discount
        # A fraction of submissions hit an idle machine (sub-minute waits).
        if rng.random() < self._idle_p:
            backlog = rng.uniform(0.0, MINUTE_SECONDS)
        return max(0.0, backlog)

    def _idle_probability(self) -> float:
        """Probability a submission finds the machine (nearly) idle."""
        return self._idle_p
