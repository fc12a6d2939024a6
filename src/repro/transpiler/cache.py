"""Equivalence-class transpile caching.

Per-circuit transpilation is far too slow for a ~600k-circuit study, but the
study's circuits are drawn from a handful of parameterised templates: every
draw of one (family, width) template has the same gate *structure* and
differs only in rotation angles, which never change a layout, routing or
gate-cancellation decision in the pass library.  The whole workload
therefore collapses into a few hundred structural equivalence classes
(:func:`repro.workloads.circuit_metrics.structural_fingerprint`), and each
class needs exactly one transpile per backend and preset level.

This module owns that amortisation at the transpiler layer:

* :func:`backend_fingerprint` — a content hash of everything about a machine
  that can change a transpile or its fidelity estimate (topology, basis,
  calibration regime), so cache entries survive exactly as long as they are
  valid;
* :func:`summarise_transpile` — one pinned, deterministic transpile of a
  class representative plus its ESP, reduced to the plain-data
  :class:`TranspileSummary` that machine ranking consumes;
* :class:`TranspileCache` — an on-disk store of summaries
  (``transpile-<key>.json``) in the same
  :class:`~repro.core.cacheroot.CacheRoot` as the trace cache; the root
  lists, prunes and counts ``transpile-`` entries with every other kind,
  under one byte budget.

Determinism contract: a summary's ranking fields are pure functions of
``(structural class, backend fingerprint, level, seed)``.  Pass timings are
wall-clock and ride along for telemetry only — they must never feed a
ranking decision or a fingerprint, so a cached and a freshly computed
summary rank byte-identically (JSON float round-trips are exact).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.core.cacheroot import CacheRoot
from repro.devices.backend import Backend
from repro.fidelity.estimator import estimate_success_probability
from repro.transpiler.presets import transpile

__all__ = [
    "TranspileCache",
    "TranspileSummary",
    "backend_fingerprint",
    "summarise_transpile",
    "transpile_cache_key",
]

#: Timestamp every class transpile is pinned to: ranking compares machines
#: under their epoch-zero calibration, independent of when a job happens to
#: be submitted, so one summary serves the whole study.
PINNED_COMPILE_TIME = 0.0

#: Seed of the stochastic passes during class transpilation (the historical
#: :class:`~repro.scheduling.policies.MachineSelector` default).
DEFAULT_RANK_SEED = 11


def backend_fingerprint(backend: Backend) -> str:
    """Content hash of the transpile-relevant identity of a machine.

    Covers the coupling map, basis gates and the full calibration regime
    (profile medians, seed, period, drift rates) — everything that can move
    a layout/routing decision or an ESP estimate.  Queue state, batch
    limits and fleet-timeline fields are deliberately excluded: they change
    which machine a job *may* use, never what a transpile produces.
    """
    model = backend.calibration_model
    profile = model.profile
    payload = {
        "name": backend.name,
        "qubits": backend.coupling_map.num_qubits,
        "edges": backend.coupling_map.edges,
        "basis": list(backend.basis_gates),
        "simulator": backend.is_simulator,
        "calibration": {
            "seed": model._rng_root.seed,
            "period": model.calibration_period,
            "offset": model.calibration_offset,
            "profile": {
                f: getattr(profile, f)
                for f in sorted(profile.__dataclass_fields__)
            },
            "drift": [model.drift.error_growth_per_hour,
                      model.drift.coherence_decay_per_hour],
        },
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:24]


@dataclass(frozen=True)
class TranspileSummary:
    """One transpiled equivalence class on one machine, reduced to the
    plain data machine ranking needs.

    ``pass_timings`` is wall-clock telemetry (Chrome-trace pass spans, the
    ``repro_transpile_pass_seconds`` histogram, the Fig. 5 bench) and is
    excluded from ranking and from equality-sensitive consumers.
    """

    family: str
    width: int
    machine: str
    level: int
    seed: int
    class_fingerprint: str
    backend_fingerprint: str
    estimated_success: float
    cx_total: int
    cx_depth: int
    compiled_size: int
    compiled_depth: int
    swap_count: int
    pass_timings: Tuple[Tuple[str, float], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "width": self.width,
            "machine": self.machine,
            "level": self.level,
            "seed": self.seed,
            "class_fingerprint": self.class_fingerprint,
            "backend_fingerprint": self.backend_fingerprint,
            "estimated_success": self.estimated_success,
            "cx_total": self.cx_total,
            "cx_depth": self.cx_depth,
            "compiled_size": self.compiled_size,
            "compiled_depth": self.compiled_depth,
            "swap_count": self.swap_count,
            "pass_timings": [[name, seconds]
                             for name, seconds in self.pass_timings],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TranspileSummary":
        return cls(
            family=str(payload["family"]),
            width=int(payload["width"]),
            machine=str(payload["machine"]),
            level=int(payload["level"]),
            seed=int(payload["seed"]),
            class_fingerprint=str(payload["class_fingerprint"]),
            backend_fingerprint=str(payload["backend_fingerprint"]),
            estimated_success=float(payload["estimated_success"]),
            cx_total=int(payload["cx_total"]),
            cx_depth=int(payload["cx_depth"]),
            compiled_size=int(payload["compiled_size"]),
            compiled_depth=int(payload["compiled_depth"]),
            swap_count=int(payload["swap_count"]),
            pass_timings=tuple((str(name), float(seconds))
                               for name, seconds
                               in payload.get("pass_timings", [])),
        )


def summarise_transpile(
    circuit: QuantumCircuit,
    backend: Backend,
    level: int,
    seed: int = DEFAULT_RANK_SEED,
    family: str = "",
    class_fp: Optional[str] = None,
) -> TranspileSummary:
    """Transpile one class representative and reduce it to a summary.

    The transpile is pinned to :data:`PINNED_COMPILE_TIME`, and the ESP
    reads the calibration snapshot the pass manager installed for it, so
    the ranking fields are a pure function of the arguments — every worker,
    process and run computes the same floats.
    """
    if class_fp is None:
        from repro.workloads.circuit_metrics import structural_fingerprint
        class_fp = structural_fingerprint(circuit)
    result = transpile(circuit, backend, optimization_level=level,
                       seed=seed, compile_time=PINNED_COMPILE_TIME)
    estimate = estimate_success_probability(
        result.circuit, result.properties["calibration"])
    return TranspileSummary(
        family=family or circuit.name,
        width=circuit.num_qubits,
        machine=backend.name,
        level=level,
        seed=seed,
        class_fingerprint=class_fp,
        backend_fingerprint=backend_fingerprint(backend),
        estimated_success=estimate.probability,
        cx_total=estimate.cx_metrics.cx_total,
        cx_depth=estimate.cx_metrics.cx_depth,
        compiled_size=result.circuit.size,
        compiled_depth=result.circuit.depth(),
        swap_count=result.swap_count,
        pass_timings=tuple((t.pass_name, t.seconds) for t in result.timings),
    )


def transpile_cache_key(class_fp: str, backend_fp: str, level: int,
                        seed: int = DEFAULT_RANK_SEED) -> str:
    """The cache key of one (class, backend, level) transpile.

    The package version is included so releases that change pass behaviour
    invalidate stale summaries automatically.
    """
    from repro import __version__

    digest = hashlib.sha256(
        f"{class_fp}|{backend_fp}|{level}|{seed}|{__version__}".encode())
    return digest.hexdigest()[:24]


class TranspileCache:
    """The transpile summaries of a cache root, one JSON file per key.

    ``root`` is a directory or a shared
    :class:`~repro.core.cacheroot.CacheRoot` — the trace cache's, in the
    runner — which owns the atomic write, recency, listing, pruning and
    the counts that :meth:`stats` reports for the ``transpile`` kind.
    """

    def __init__(self, root: Union[str, Path, CacheRoot]):
        self.cache_root = CacheRoot.of(root)
        self.root = self.cache_root.path

    def path_for(self, key: str) -> Path:
        return self.cache_root.entry_path("transpile", key, ".json")

    def get(self, key: str) -> Optional[TranspileSummary]:
        """The cached summary for ``key``, or None on a miss.

        A corrupt entry (truncated write, hand-edited) counts as a miss and
        is overwritten by the recomputed summary.
        """
        path = self.path_for(key)
        try:
            summary = TranspileSummary.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, TypeError, KeyError):
            self.cache_root.miss("transpile")
            return None
        self.cache_root.hit("transpile", path)
        return summary

    def put(self, key: str, summary: TranspileSummary) -> Path:
        """Store ``summary`` under ``key`` atomically."""
        text = json.dumps(summary.as_dict(), sort_keys=True)
        return self.cache_root.write("transpile", key, ".json",
                                     lambda scratch: scratch.write_text(text))

    def stats(self) -> Dict[str, int]:
        return self.cache_root.counts("transpile")
