"""User behaviour models.

Section IV-C/V-A of the paper attributes the unequal load distribution to
user-defined heuristics: users pick machines by popularity, by perceived
quality, by queue length, or simply by habit.  A :class:`UserProfile`
captures one such behaviour; the default population mixes them so that the
resulting load distribution reproduces the Fig. 9 skew (public machines
carrying most of the demand, unequal load even among twins).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.exceptions import WorkloadError
from repro.core.rng import RandomSource
from repro.devices.backend import Backend


class MachineSelectionPolicy(enum.Enum):
    """How a user picks the machine for a job."""

    POPULARITY = "popularity"          # follow the crowd (demand weights)
    SMALLEST_FIT = "smallest_fit"      # smallest machine the circuit fits on
    BEST_FIDELITY = "best_fidelity"    # lowest average CX error right now
    LEAST_QUEUE = "least_queue"        # shortest expected pending queue
    BALANCED = "balanced"              # weighted fidelity/queue trade-off
    RANDOM = "random"                  # uniformly random eligible machine

    @property
    def reads_pending(self) -> bool:
        """Whether selection reads the expected pending-job estimate."""
        return self in (MachineSelectionPolicy.LEAST_QUEUE,
                        MachineSelectionPolicy.BALANCED)


@dataclass(frozen=True)
class UserProfile:
    """A class of users sharing a machine-selection behaviour."""

    name: str
    policy: MachineSelectionPolicy
    #: relative share of jobs generated by this user class
    weight: float = 1.0
    #: probability the user has privileged access
    privileged_probability: float = 0.5

    def __post_init__(self):
        if self.weight <= 0:
            raise WorkloadError("user weight must be positive")
        if not 0 <= self.privileged_probability <= 1:
            raise WorkloadError("privileged_probability must be in [0, 1]")

    def select_machine(
        self,
        eligible: Sequence[Backend],
        rng: RandomSource,
        timestamp: float = 0.0,
        pending_estimate: Optional[Dict[str, float]] = None,
    ) -> Backend:
        """Pick a machine from the eligible list according to the policy."""
        if not eligible:
            raise WorkloadError("no eligible machine for this job")
        backends = list(eligible)
        if self.policy is MachineSelectionPolicy.RANDOM:
            return rng.choice(backends)
        if self.policy is MachineSelectionPolicy.SMALLEST_FIT:
            smallest = min(b.num_qubits for b in backends)
            candidates = [b for b in backends if b.num_qubits == smallest]
            return rng.choice(candidates)
        if self.policy is MachineSelectionPolicy.BEST_FIDELITY:
            # The argmin of (CX error, name), where a simulator scores 0.0.
            # Every machine that cannot read 0.0 reads a positive error, so
            # the lowest-named zero-error machine wins without a probe.
            zero_error = [b for b in backends if b.is_simulator
                          or b.calibration_model.cx_error_is_zero]
            if zero_error:
                return min(zero_error, key=lambda b: b.name)
            return min(
                backends,
                key=lambda b: (b.average_cx_error_at(timestamp), b.name),
            )
        if self.policy is MachineSelectionPolicy.LEAST_QUEUE:
            pending = pending_estimate or {}
            return min(
                backends,
                key=lambda b: (pending.get(b.name, float(b.metadata.get(
                    "demand_weight", 1.0))), b.name),
            )
        if self.policy is MachineSelectionPolicy.BALANCED:
            # The trace-level counterpart of SelectionObjective.BALANCED
            # (scheduling/policies.py): normalised CX error and expected
            # queue combined with the selector's default fidelity weight.
            pending = pending_estimate or {}
            errors = {
                b.name: (0.0 if b.is_simulator else
                         b.average_cx_error_at(timestamp))
                for b in backends
            }
            waits = {
                b.name: pending.get(b.name,
                                    float(b.metadata.get("demand_weight", 1.0)))
                for b in backends
            }
            max_error = max(errors.values()) or 1.0
            max_wait = max(waits.values()) or 1.0
            return min(
                backends,
                key=lambda b: (0.6 * errors[b.name] / max_error
                               + 0.4 * waits[b.name] / max_wait, b.name),
            )
        # POPULARITY: weight by demand.
        weights = [float(b.metadata.get("demand_weight", 1.0)) for b in backends]
        total = sum(weights)
        if total <= 0:
            return rng.choice(backends)
        probabilities = [w / total for w in weights]
        return rng.choice(backends, p=probabilities)


def default_user_population() -> List[UserProfile]:
    """The mixed user population used by the study trace generator."""
    return [
        UserProfile("crowd-follower", MachineSelectionPolicy.POPULARITY,
                    weight=4.0, privileged_probability=0.45),
        UserProfile("minimalist", MachineSelectionPolicy.SMALLEST_FIT,
                    weight=2.0, privileged_probability=0.5),
        UserProfile("fidelity-seeker", MachineSelectionPolicy.BEST_FIDELITY,
                    weight=2.0, privileged_probability=0.7),
        UserProfile("queue-dodger", MachineSelectionPolicy.LEAST_QUEUE,
                    weight=1.5, privileged_probability=0.6),
        UserProfile("explorer", MachineSelectionPolicy.RANDOM,
                    weight=0.5, privileged_probability=0.4),
    ]


def pick_user(population: Sequence[UserProfile], rng: RandomSource) -> UserProfile:
    """Sample a user profile proportionally to its weight."""
    profiles = list(population)
    if not profiles:
        raise WorkloadError("user population is empty")
    total = sum(p.weight for p in profiles)
    probabilities = [p.weight / total for p in profiles]
    return rng.choice(profiles, p=probabilities)
