"""Self-test of the benchmark at reduced scale (200 jobs / 2 months).

Runs every workload untraced and traced with one op per client
(``--seconds 1``) and checks that each run prints every metric
``BENCHMARK.json`` names, with its unit, plus ``error_rate`` on the
details line.  In the traced runs, a metric of a layer that does work on
the workload must read above 0 and one of an idle layer must read 0.
Then it checks that a wrong recorded digest fails the command.  Run from
the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every check holds.  Failed ops are reported but are not a
self-test failure: the benchmark counts them, it does not hide them.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

from run import IDLE_LAYERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work" / "selftest"


def _bench(*args: str):
    """Run the benchmark; returns (exit code, details, result)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7",
         "--seconds", "1", "--reduced", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    result = json.loads(lines[-1]) if lines else {}
    return completed.returncode, details, result


#: measured per-layer values that are 0 by definition on a workload
MEASURED_ZERO = {
    "paper-study": {"cache.hit_ratio"},  # a cold op's lookups all miss
    "whatif-cold": {"cache.hit_ratio"},
    "whatif-warm": set(),
}


def _layer_problems(workload, result):
    """Work-doing layers read above 0, idle ones read 0."""
    problems = []
    for name, metric in result.get("metrics", {}).items():
        value = metric.get("value")
        if not isinstance(value, (int, float)):
            continue  # reported by _metric_problems
        if name in IDLE_LAYERS[workload] | MEASURED_ZERO[workload]:
            if value != 0:
                problems.append(f"{name}: {value} on a layer that reads 0 "
                                "here")
        elif not value > 0:
            problems.append(f"{name}: {value} on a layer that does work")
    return problems


def _metric_problems(result, expected):
    problems = []
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} "
                        "missing or unexpected")
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"expected {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    by_trace = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace, expected in by_trace.items():
            label = f"{workload} --trace {trace}"
            code, details, result = _bench("--workload", workload,
                                           "--trace", str(trace))
            found = [f"{label}: {problem}"
                     for problem in _metric_problems(result, expected)]
            if trace:
                found += [f"{label}: {problem}"
                          for problem in _layer_problems(workload, result)]
            if code != 0 or result.get("correct") is not True:
                found.append(f"{label}: exit {code}, "
                             f"correct={result.get('correct')}")
            if details.get("error_rate", {}).get("unit") != "ratio":
                found.append(f"{label}: no error_rate ratio on the "
                             "details line")
            problems += found
            print(f"{label}: {'ok' if not found else 'FAILED'} "
                  f"({result.get('attempted')} ops, "
                  f"{result.get('failed')} failed)")

    WORK.mkdir(parents=True, exist_ok=True)
    wrong = json.loads((HERE / "digests.json").read_text())
    wrong["paper-study"]["200x2@7"]["trace"] = "0" * 64
    wrong_path = WORK / "wrong-digests.json"
    wrong_path.write_text(json.dumps(wrong))
    code, _, result = _bench("--workload", "paper-study", "--trace", "0",
                             "--digests", str(wrong_path))
    if code == 0 or result.get("correct") is not False:
        problems.append(f"a wrong recorded digest did not fail the command "
                        f"(exit {code}, correct={result.get('correct')})")
    print(f"wrong recorded digest: exit {code}, "
          f"correct={result.get('correct')}")

    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
