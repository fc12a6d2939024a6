"""Study-scale machine ranking over transpile equivalence classes.

The rank-mode policy scenarios (``PolicySwap(mode="rank")``) make every
user pick machines the way a live :class:`~repro.scheduling.policies.
MachineSelector` would: transpile the circuit for each eligible machine,
estimate success probability, trade it off against the expected wait.
Doing that per circuit is ~600k transpiles; doing it per *equivalence
class* (:func:`~repro.workloads.circuit_metrics.structural_fingerprint`)
is a few hundred — every draw of one (family, width) template shares a
structure, so one pinned transpile per (class, machine, level) serves the
whole study.

:class:`ClassRankTable` is the result of that amortisation: a plain-data
map from (family, width, machine) to its
:class:`~repro.transpiler.cache.TranspileSummary`, plus the selection rule
itself.  The table is built by the runner (cold classes sharded across the
worker pool, warm ones served from the on-disk
:class:`~repro.transpiler.cache.TranspileCache`) and shipped to synthesis
workers inside the task payload; anything a worker finds missing it
computes inline from the same pure function, so the selection is
byte-identical for any worker or shard count, cached or not.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.devices.backend import Backend
from repro.scheduling.policies import (
    SelectionObjective,
    objective_weight,
    rank_candidates,
)
from repro.transpiler.cache import (
    DEFAULT_RANK_SEED,
    TranspileSummary,
    summarise_transpile,
)
from repro.workloads.circuit_metrics import (
    class_fingerprint,
    representative_circuit,
)

__all__ = [
    "ClassRankTable",
    "TranspilePair",
    "compute_class_summary",
]

#: One (equivalence class, machine) transpile unit of work.
TranspilePair = Tuple[str, int, str]  # (family, width, machine)


def compute_class_summary(family: str, width: int, backend: Backend,
                          level: int,
                          seed: int = DEFAULT_RANK_SEED) -> TranspileSummary:
    """Transpile the (family, width) class representative on ``backend``.

    A pure function of its arguments: the representative circuit is built
    from a pinned RNG stream and the transpile/ESP are pinned to epoch
    zero, so every process computes the same summary.
    """
    circuit = representative_circuit(family, width)
    return summarise_transpile(
        circuit, backend, level, seed=seed, family=family,
        class_fp=class_fingerprint(family, width))


class ClassRankTable:
    """The batch-ranked MachineSelector of one rank-mode study.

    Holds the class summaries and the objective, and answers the only
    question synthesis asks: *given this (family, width) and these eligible
    machines with these pending estimates, which machine does a ranking
    user pick?*  Scoring runs through
    :func:`repro.scheduling.policies.rank_candidates` — the same algebra as
    the interactive selector — with the per-machine expected pending count
    standing in for the wait estimate (the normalisation makes the score
    scale-free, so the unit does not matter).

    Entries missing from the table are computed inline and memoised; the
    computation is a pure function, so a sparse table selects exactly like
    a complete one.
    """

    def __init__(self, objective: str = SelectionObjective.BALANCED.value,
                 level: int = 3, seed: int = DEFAULT_RANK_SEED,
                 fidelity_weight: float = 0.6,
                 summaries: Sequence[TranspileSummary] = ()):
        self.objective = SelectionObjective(objective)
        self.level = int(level)
        self.seed = int(seed)
        self.fidelity_weight = float(fidelity_weight)
        self.weight = objective_weight(self.objective, self.fidelity_weight)
        self._entries: Dict[TranspilePair, TranspileSummary] = {}
        self.inline_computes = 0
        self.add(summaries)

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, summaries: Iterable[TranspileSummary]) -> None:
        for summary in summaries:
            self._entries[(summary.family, summary.width,
                           summary.machine)] = summary

    def summary_for(self, family: str, width: int,
                    backend: Backend) -> TranspileSummary:
        """The class summary for one machine (computed inline on a miss)."""
        pair = (family, width, backend.name)
        summary = self._entries.get(pair)
        if summary is None:
            summary = compute_class_summary(family, width, backend,
                                            self.level, seed=self.seed)
            self._entries[pair] = summary
            self.inline_computes += 1
        return summary

    def select(self, family: str, width: int, eligible: Sequence[Backend],
               pending_estimate: Optional[Dict[str, float]] = None
               ) -> Backend:
        """The machine a ranking user picks for one job."""
        by_name = {backend.name: backend for backend in eligible}
        choices = rank_candidates(
            ((s.machine, s.estimated_success, s.cx_total, s.cx_depth)
             for s in (self.summary_for(family, width, backend)
                       for backend in eligible)),
            expected_wait_minutes=pending_estimate,
            fidelity_weight=self.weight,
        )
        return by_name[choices[0].machine]
