"""Recorded digests of two small studies.

A change to job synthesis that moves a single machine choice changes the
trace.  These goldens pin the decoded column values of the seed-7 study
at 200 jobs / 2 months, and of its ``policy-swap`` scenario (every user
BALANCED), to digests recorded before the per-epoch CX-error scalar
replaced calibration snapshots in machine selection.  The digests are
taken over ``TraceDataset.column`` values rather than ``.npz`` bytes, so
they do not depend on how the columns are compressed or laid out.
"""

import hashlib
from dataclasses import fields

import pytest

from repro.runner import run_study
from repro.scenarios import builtin_scenarios
from repro.workloads import TraceGeneratorConfig
from repro.workloads.trace import JobRecord

CONFIG = TraceGeneratorConfig(total_jobs=200, months=2, seed=7)

RECORDED = {
    "baseline":
        "0e4259803deb7ab9ddb8eca31850c8779f3a0c2a88b26dd47f4c44679eb911b4",
    "policy-swap":
        "38813ed77776c558d89ea6c3e95f9149748288c312ecd25f8b2b780f4c9cecdc",
}


def column_digest(trace) -> str:
    """SHA-256 over the row count and every column's decoded values."""
    digest = hashlib.sha256(str(len(trace)).encode())
    for field in fields(JobRecord):
        digest.update(f"\n{field.name}=".encode())
        digest.update(repr(trace.column(field.name)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scenario", sorted(RECORDED))
def test_study_matches_recorded_digest(scenario):
    config = CONFIG if scenario == "baseline" else \
        builtin_scenarios()[scenario].apply_to(CONFIG)
    trace = run_study(config=config, workers=1, use_cache=False).trace
    assert len(trace) == CONFIG.total_jobs
    assert column_digest(trace) == RECORDED[scenario]
