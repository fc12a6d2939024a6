"""Core primitives shared by every subsystem of the reproduction.

The :mod:`repro.core` package holds the small, dependency-free building
blocks used throughout the library: status enums, exception hierarchy,
time/unit helpers and seeded random-number handling.
"""

from repro.core.exceptions import (
    ReproError,
    CircuitError,
    TranspilerError,
    DeviceError,
    CloudError,
    AnalysisError,
    PredictionError,
    WorkloadError,
)
from repro.core.types import (
    AccessLevel,
    JobStatus,
    MachineGeneration,
    TERMINAL_STATUSES,
)
from repro.core.units import (
    MINUTE_SECONDS,
    HOUR_SECONDS,
    DAY_SECONDS,
    seconds_to_minutes,
    minutes_to_seconds,
    hours_to_seconds,
    days_to_seconds,
    format_duration,
)
from repro.core.env import env_int
from repro.core.lazy import lazy_exports

# ``rng`` is the only numpy import under ``core``; the modules that need no
# numpy (the cache root, the exceptions) import this package too.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.rng": ("RandomSource", "derive_seed"),
})

__all__ = [
    "ReproError",
    "CircuitError",
    "TranspilerError",
    "DeviceError",
    "CloudError",
    "AnalysisError",
    "PredictionError",
    "WorkloadError",
    "AccessLevel",
    "JobStatus",
    "MachineGeneration",
    "TERMINAL_STATUSES",
    "MINUTE_SECONDS",
    "HOUR_SECONDS",
    "DAY_SECONDS",
    "seconds_to_minutes",
    "minutes_to_seconds",
    "hours_to_seconds",
    "days_to_seconds",
    "format_duration",
    "RandomSource",
    "derive_seed",
    "env_int",
]
