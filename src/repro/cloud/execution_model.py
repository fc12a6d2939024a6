"""Execution-time model.

Section VI of the paper finds that NISQ-era job run times are dominated by
*machine overheads* rather than circuit contents: run time grows nearly
linearly with batch size, sub-linearly with shots, and only weakly with
depth/width.  The model here encodes exactly that structure:

``run = base_overhead(machine)
       + sum over circuits [ per_circuit_overhead(machine, width)
                             + shots^alpha * per_shot(machine) * duty(depth) ]``

with ``alpha < 1`` (shots are executed back-to-back with very little
per-shot control overhead) and a mild dependence of the per-circuit cost on
width/depth.  A multiplicative lognormal jitter models run-to-run variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cloud.job import CircuitBatch, Job
from repro.core.exceptions import CloudError
from repro.core.rng import RandomSource
from repro.devices.backend import Backend


@dataclass(frozen=True)
class ExecutionTimeBreakdown:
    """Decomposition of a predicted/simulated job run time (seconds)."""

    base_overhead: float
    circuit_overhead: float
    shot_time: float
    jitter_factor: float

    @property
    def total(self) -> float:
        return (self.base_overhead + self.circuit_overhead + self.shot_time) \
            * self.jitter_factor


class ExecutionTimeModel:
    """Simulates (or deterministically estimates) job execution times."""

    def __init__(self, shots_exponent: float = 0.88,
                 depth_reference: float = 60.0,
                 jitter_sigma: float = 0.12):
        if not 0 < shots_exponent <= 1:
            raise CloudError("shots_exponent must be in (0, 1]")
        if depth_reference <= 0:
            raise CloudError("depth_reference must be positive")
        self.shots_exponent = shots_exponent
        self.depth_reference = depth_reference
        self.jitter_sigma = jitter_sigma

    # -- deterministic expectation ---------------------------------------------------

    def expected_breakdown(self, job: Job, backend: Backend) -> ExecutionTimeBreakdown:
        """Expected run-time breakdown without random jitter."""
        base = backend.base_overhead_seconds
        circuit_overhead = 0.0
        shot_time = 0.0
        shots_factor = job.shots ** self.shots_exponent
        circuits = job.circuits
        if isinstance(circuits, CircuitBatch):
            width_factors = 1.0 + 0.004 * circuits.width_column()
            depth_factors = 1.0 + 0.3 * (circuits.depth_column()
                                         / self.depth_reference)
            overhead_terms = backend.per_circuit_overhead_seconds * width_factors
            shot_terms = (shots_factor * backend.per_shot_seconds) * depth_factors
            # cumsum reproduces the sequential left-to-right addition of the
            # spec loop bit for bit (np.sum's pairwise reduction would not),
            # keeping simulated run times identical to the row-at-a-time path.
            circuit_overhead = float(np.cumsum(overhead_terms)[-1])
            shot_time = float(np.cumsum(shot_terms)[-1])
        else:
            for spec in circuits:
                width_factor = 1.0 + 0.004 * spec.width
                depth_factor = 1.0 + 0.3 * (spec.depth / self.depth_reference)
                circuit_overhead += backend.per_circuit_overhead_seconds \
                    * width_factor
                shot_time += shots_factor * backend.per_shot_seconds \
                    * depth_factor
        return ExecutionTimeBreakdown(
            base_overhead=base,
            circuit_overhead=circuit_overhead,
            shot_time=shot_time,
            jitter_factor=1.0,
        )

    def expected_seconds(self, job: Job, backend: Backend) -> float:
        return self.expected_breakdown(job, backend).total

    # -- stochastic simulation -------------------------------------------------------

    def simulate_seconds(self, job: Job, backend: Backend,
                         rng: Optional[RandomSource] = None) -> float:
        """Run time with run-to-run jitter applied."""
        breakdown = self.expected_breakdown(job, backend)
        if rng is None or self.jitter_sigma == 0:
            return breakdown.total
        jitter = rng.lognormal(0.0, self.jitter_sigma)
        return ExecutionTimeBreakdown(
            base_overhead=breakdown.base_overhead,
            circuit_overhead=breakdown.circuit_overhead,
            shot_time=breakdown.shot_time,
            jitter_factor=jitter,
        ).total

    # -- convenience -----------------------------------------------------------------

    def per_circuit_seconds(self, job: Job, backend: Backend) -> float:
        """Average execution time attributed to one circuit of the job."""
        return self.expected_seconds(job, backend) / job.batch_size
