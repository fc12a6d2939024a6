"""Job and result objects.

Terminology follows Section II-B of the paper: a *job* encapsulates a batch
of circuits submitted together to one machine; each circuit is executed for
a number of *shots*; the *results* are per-circuit bitstring counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import CloudError
from repro.core.types import JobStatus

_JOB_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class CircuitSpec:
    """Structural description of one circuit inside a job.

    The cloud simulator and the analysis layer work from these structural
    features (the same features the paper's runtime predictor uses), not
    from full instruction lists, which keeps two-year traces lightweight.
    """

    name: str
    width: int
    depth: int
    num_gates: int
    cx_count: int
    cx_depth: int
    family: str = "unknown"

    def __post_init__(self):
        if self.width < 1:
            raise CloudError("circuit width must be at least 1 qubit")
        if self.depth < 0 or self.num_gates < 0:
            raise CloudError("circuit depth and gate count must be non-negative")
        if self.cx_count < 0 or self.cx_depth < 0:
            raise CloudError("CX metrics must be non-negative")


def circuit_spec_from_circuit(circuit, family: Optional[str] = None) -> CircuitSpec:
    """Build a :class:`CircuitSpec` from a :class:`~repro.circuits.QuantumCircuit`."""
    summary = circuit.summary()
    return CircuitSpec(
        name=str(summary["name"]),
        width=int(summary["width"]),
        depth=int(summary["depth"]),
        num_gates=int(summary["num_gates"]),
        cx_count=int(summary["cx_count"]),
        cx_depth=int(summary["cx_depth"]),
        family=str(family or circuit.metadata.get("family", "unknown")),
    )


class CircuitBatch:
    """Columnar description of one job's batch of circuits.

    Study jobs batch up to 900 circuits, but only the first
    ``min(16, batch_size)`` structurally differ (per-variant metric jitter);
    every other circuit shares the job's base metrics exactly.  Storing one
    :class:`CircuitSpec` object per circuit is therefore pure overhead at
    ~600k circuits per study.  A batch instead keeps the base metric row
    plus a small ``(variants x 5)`` int64 array, materialises
    :class:`CircuitSpec` rows lazily on indexing/iteration, and answers the
    aggregate questions of the execution model and the trace recorder in
    O(variants) instead of O(batch).
    """

    #: metric columns, in storage order
    METRIC_FIELDS: Tuple[str, ...] = ("width", "depth", "num_gates",
                                      "cx_count", "cx_depth")

    __slots__ = ("name_prefix", "family", "batch_size", "base", "variants",
                 "_width_column", "_depth_column")

    def __init__(self, name_prefix: str, family: str, batch_size: int,
                 base: Sequence[int], variants: np.ndarray):
        if batch_size < 1:
            raise CloudError("a job must contain at least one circuit")
        base_row = tuple(int(v) for v in base)
        if len(base_row) != len(self.METRIC_FIELDS):
            raise CloudError("base metrics must have one value per column")
        variant_rows = np.asarray(variants, dtype=np.int64)
        if variant_rows.ndim != 2 or \
                variant_rows.shape[1] != len(self.METRIC_FIELDS):
            raise CloudError("variant metrics must be a (k, 5) array")
        if not 1 <= variant_rows.shape[0] <= batch_size:
            raise CloudError(
                "a batch needs between 1 and batch_size metric variants")
        widths = np.concatenate([variant_rows[:, 0], [base_row[0]]])
        others = np.concatenate([variant_rows[:, 1:].ravel(),
                                 list(base_row[1:])])
        if int(widths.min()) < 1:
            raise CloudError("circuit width must be at least 1 qubit")
        if int(others.min()) < 0:
            raise CloudError("circuit metrics must be non-negative")
        self.name_prefix = name_prefix
        self.family = family
        self.batch_size = int(batch_size)
        self.base = base_row
        self.variants = variant_rows
        self._width_column: Optional[np.ndarray] = None
        self._depth_column: Optional[np.ndarray] = None

    # -- sequence protocol ---------------------------------------------------------

    @property
    def num_variants(self) -> int:
        return int(self.variants.shape[0])

    def __len__(self) -> int:
        return self.batch_size

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.batch_size))]
        i = int(index)
        if i < 0:
            i += self.batch_size
        if not 0 <= i < self.batch_size:
            raise IndexError("circuit index out of range")
        if i < self.num_variants:
            row = tuple(int(v) for v in self.variants[i])
        else:
            row = self.base
        return CircuitSpec(
            name=f"{self.name_prefix}{i}",
            width=row[0],
            depth=row[1],
            num_gates=row[2],
            cx_count=row[3],
            cx_depth=row[4],
            family=self.family,
        )

    def __iter__(self) -> Iterator[CircuitSpec]:
        return (self[i] for i in range(self.batch_size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircuitBatch):
            return NotImplemented
        return (self.name_prefix == other.name_prefix
                and self.family == other.family
                and self.batch_size == other.batch_size
                and self.base == other.base
                and np.array_equal(self.variants, other.variants))

    def __repr__(self) -> str:
        return (f"CircuitBatch(family={self.family!r}, "
                f"batch_size={self.batch_size}, "
                f"variants={self.num_variants})")

    # -- aggregates (exact integer arithmetic) -------------------------------------

    @property
    def max_width(self) -> int:
        widest_variant = int(self.variants[:, 0].max())
        if self.batch_size > self.num_variants:
            return max(widest_variant, self.base[0])
        return widest_variant

    def totals(self) -> Tuple[int, int, int, int]:
        """(depth, gates, cx, cx_depth) summed over the whole batch."""
        tail = self.batch_size - self.num_variants
        sums = self.variants[:, 1:].sum(axis=0)
        return tuple(int(sums[j]) + self.base[j + 1] * tail
                     for j in range(4))  # type: ignore[return-value]

    # -- per-circuit metric columns (for the vectorised execution model) -----------

    def width_column(self) -> np.ndarray:
        """Per-circuit widths as a float64 column of length ``batch_size``."""
        if self._width_column is None:
            column = np.full(self.batch_size, float(self.base[0]))
            column[:self.num_variants] = self.variants[:, 0]
            self._width_column = column
        return self._width_column

    def depth_column(self) -> np.ndarray:
        """Per-circuit depths as a float64 column of length ``batch_size``."""
        if self._depth_column is None:
            column = np.full(self.batch_size, float(self.base[1]))
            column[:self.num_variants] = self.variants[:, 1]
            self._depth_column = column
        return self._depth_column


#: What a job may carry as its circuits: an explicit spec list (hand-built
#: jobs, scheduling experiments) or the compact columnar batch produced by
#: the study synthesiser.
CircuitsLike = Union[List[CircuitSpec], CircuitBatch]


@dataclass
class Job:
    """A batch of circuits submitted to one machine."""

    provider: str
    backend_name: str
    circuits: CircuitsLike
    shots: int
    submit_time: float
    compile_seconds: float = 0.0
    job_id: str = field(default_factory=lambda: f"job-{next(_JOB_COUNTER):06d}")
    status: JobStatus = JobStatus.INITIALIZING
    queue_enter_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    pending_ahead: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.circuits:
            raise CloudError("a job must contain at least one circuit")
        if self.shots < 1:
            raise CloudError("shots must be at least 1")

    @property
    def batch_size(self) -> int:
        return len(self.circuits)

    @property
    def total_trials(self) -> int:
        """Total machine trials contributed by the job (batch x shots)."""
        return self.batch_size * self.shots

    @property
    def max_width(self) -> int:
        if isinstance(self.circuits, CircuitBatch):
            return self.circuits.max_width
        return max(spec.width for spec in self.circuits)

    @property
    def mean_depth(self) -> float:
        if isinstance(self.circuits, CircuitBatch):
            return self.circuits.totals()[0] / self.batch_size
        return sum(spec.depth for spec in self.circuits) / self.batch_size

    @property
    def total_gates(self) -> int:
        if isinstance(self.circuits, CircuitBatch):
            return self.circuits.totals()[1]
        return sum(spec.num_gates for spec in self.circuits)

    @property
    def total_cx(self) -> int:
        if isinstance(self.circuits, CircuitBatch):
            return self.circuits.totals()[2]
        return sum(spec.cx_count for spec in self.circuits)

    @property
    def queue_seconds(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def run_seconds(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def mark_queued(self, time: float) -> None:
        self.status = JobStatus.QUEUED
        self.queue_enter_time = time

    def mark_running(self, time: float) -> None:
        self.status = JobStatus.RUNNING
        self.start_time = time

    def mark_finished(self, time: float, status: JobStatus) -> None:
        if not status.is_terminal:
            raise CloudError(f"{status} is not a terminal status")
        self.status = status
        self.end_time = time


@dataclass
class JobResult:
    """Classical results returned to the client once a job completes."""

    job_id: str
    backend_name: str
    status: JobStatus
    per_circuit_counts: List[Dict[str, int]] = field(default_factory=list)
    queue_seconds: float = 0.0
    run_seconds: float = 0.0

    @property
    def success(self) -> bool:
        return self.status is JobStatus.DONE

    def counts(self, index: int = 0) -> Dict[str, int]:
        if not self.per_circuit_counts:
            raise CloudError("job returned no counts")
        if not 0 <= index < len(self.per_circuit_counts):
            raise CloudError(
                f"circuit index {index} out of range "
                f"({len(self.per_circuit_counts)} circuits)"
            )
        return self.per_circuit_counts[index]
