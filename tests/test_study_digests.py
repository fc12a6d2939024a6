"""Recorded digests of small studies.

A change to job synthesis that moves a single machine choice changes the
trace.  These goldens pin the decoded column values of the seed-7 study
at 200 jobs / 2 months, and of its ``policy-swap`` scenario (every user
BALANCED), to digests recorded before the per-epoch CX-error scalar
replaced calibration snapshots in machine selection.  Two more pin
studies where every user is BEST_FIDELITY and the hosted simulator is
removed, so CX errors decide the choices: at 200 jobs / 2 months, and at
400 jobs / 12 months, over a fleet that grows through month 11.  (The
edgeless ``ibmq_armonk`` joins in month 9 but takes no job there: no
job of that study is 1 qubit wide.)  Those were recorded before
BEST_FIDELITY learnt to stop at a zero-error machine.  The digests are taken over ``TraceDataset.column``
values rather than ``.npz`` bytes, so they do not depend on how the
columns are compressed or laid out.
"""

import hashlib
from dataclasses import fields, replace

import pytest

from repro.runner import run_study
from repro.scenarios import builtin_scenarios
from repro.workloads import TraceGeneratorConfig
from repro.workloads.generator import ScenarioKnobs
from repro.workloads.trace import JobRecord

CONFIG = TraceGeneratorConfig(total_jobs=200, months=2, seed=7)
NO_SIMULATOR_BEST_FIDELITY = ScenarioKnobs(
    forced_policy="best_fidelity", machines_removed=("ibmq_qasm_simulator",))

CONFIGS = {
    "baseline": CONFIG,
    "policy-swap": builtin_scenarios()["policy-swap"].apply_to(CONFIG),
    "best-fidelity-no-simulator":
        replace(CONFIG, scenario=NO_SIMULATOR_BEST_FIDELITY),
    "best-fidelity-no-simulator-12-months":
        replace(CONFIG, total_jobs=400, months=12,
                scenario=NO_SIMULATOR_BEST_FIDELITY),
}

RECORDED = {
    "baseline":
        "0e4259803deb7ab9ddb8eca31850c8779f3a0c2a88b26dd47f4c44679eb911b4",
    "policy-swap":
        "38813ed77776c558d89ea6c3e95f9149748288c312ecd25f8b2b780f4c9cecdc",
    "best-fidelity-no-simulator":
        "5e9786edfb6c21e5b9ba26268ffeffd1bf3ee71dba96120ddf30c319fc9335e7",
    "best-fidelity-no-simulator-12-months":
        "f02a077850f4c6f6f720561caba2271592047feb9cf3fb85bac9f7799ded8df6",
}


def column_digest(trace) -> str:
    """SHA-256 over the row count and every column's decoded values."""
    digest = hashlib.sha256(str(len(trace)).encode())
    for field in fields(JobRecord):
        digest.update(f"\n{field.name}=".encode())
        digest.update(repr(trace.column(field.name)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_study_matches_recorded_digest(case):
    config = CONFIGS[case]
    trace = run_study(config=config, workers=1, use_cache=False).trace
    assert len(trace) == config.total_jobs
    assert column_digest(trace) == RECORDED[case]
