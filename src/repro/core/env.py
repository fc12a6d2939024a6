"""Environment-variable helpers shared by the CLI and the bench harness."""

from __future__ import annotations

import os
from typing import Optional


def env_int(name: str, default: Optional[int]) -> Optional[int]:
    """The integer value of environment variable ``name``.

    Unset or malformed values fall back to ``default`` — the harness knobs
    (``REPRO_BENCH_JOBS`` and friends) should never crash a run over a typo.
    A ``None`` default tells an unset variable from a set one.
    """
    try:
        return int(os.environ[name])
    except (KeyError, ValueError):
        return default
