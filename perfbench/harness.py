"""Shared plumbing of the benchmark: the checkout, program processes,
digests, the host record and small statistics helpers.

Everything the benchmark writes lives under ``.perfbench-work/`` at the
root of the checkout; program processes get that directory's ``tmp/`` as
``TMPDIR`` and the checkout's ``src/`` as ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RECORDED_DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: pool workers of every program process: the benchmark host has 2 cores
WORKERS = 2
#: the what-if suite: a baseline, a demand perturbation and a rank-mode
#: policy whose machine choice transpiles level-3 equivalence classes
SCENARIOS = ("baseline", "demand-surge", "policy-rank")


class BenchError(Exception):
    """The benchmark cannot run: no program here, or a broken set-up."""


def check_checkout() -> None:
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run the "
                         "benchmark from the root of a checkout")


def import_program() -> None:
    """Make the checkout's ``repro`` package importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(tmp: Path) -> Dict[str, str]:
    """The environment of a program process: this checkout's source, a
    private temp dir, and no ``REPRO_*`` knobs leaking in from outside."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def repro_argv(*args: object) -> List[str]:
    return [sys.executable, "-m", "repro", *(str(arg) for arg in args)]


# -- program processes ---------------------------------------------------------------


@dataclass
class Finished:
    """How one program process ended."""

    pid: int
    returncode: Optional[int]
    seconds: float
    peak_rss_mb: float        # the process or any descendant it waited for
    cpu_s: float              # user + system seconds of the same processes
    timed_out: bool


class Child:
    """A program process in its own process group.

    :meth:`wait` reaps it with ``wait4`` — whose ``ru_maxrss`` covers the
    process and every descendant it reaped (its pool workers) — kills the
    whole group if the deadline passes first, and always leaves no process
    of the group behind.
    """

    def __init__(self, argv: Sequence[str], *, env: Dict[str, str],
                 stdout: Path, stderr: Path):
        self.started = time.perf_counter()
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            self.proc = subprocess.Popen(
                list(argv), cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, start_new_session=True)
        self.timed_out = False
        self.finished: Optional[Finished] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        """Whether the process still runs; one that has exited is reaped
        here, and :meth:`wait` then returns how it ended."""
        if self.finished is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._finish(status, usage)
        return self.finished is None

    def kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _expire(self) -> None:
        self.timed_out = True
        self.kill_group()

    def wait(self, deadline: float) -> Finished:
        if self.finished is not None:
            return self.finished
        timer = threading.Timer(max(0.0, deadline), self._expire)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        return self._finish(status, usage)

    def _finish(self, status: int, usage) -> Finished:
        seconds = time.perf_counter() - self.started
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.kill_group()
        _await_group_exit(self.proc.pid)
        self.finished = Finished(
            pid=self.proc.pid,
            returncode=None if self.timed_out else self.proc.returncode,
            seconds=seconds,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            timed_out=self.timed_out)
        return self.finished


def _await_group_exit(pgid: int, limit: float = 10.0) -> None:
    """Wait until no process of a killed group is left."""
    end = time.monotonic() + limit
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


def run_child(argv: Sequence[str], *, env: Dict[str, str], logs: Path,
              deadline: float) -> Finished:
    """Run one program process to its end (or its deadline)."""
    return Child(argv, env=env, stdout=logs.with_suffix(".out"),
                 stderr=logs.with_suffix(".err")).wait(deadline)


def tail(path: Path, lines: int = 20) -> str:
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


# -- ops -------------------------------------------------------------------------------

#: An op during which the hypervisor took more than this share of the
#: host's CPU time ran in a steal phase.  On the 2-vCPU host the benchmark
#: was sized on, quiet ops saw under 1% steal; in its steal phases (4-8%
#: of a whole run) ops ran up to 60% slower, which measures the host, not
#: the program.
STEAL_PHASE = 0.02


@dataclass
class OpResult:
    """One op: its wall-clock, its outputs' digests, and why it failed."""

    label: str
    seconds: float
    peak_rss_mb: float
    failure: Optional[str] = None
    rows: int = 0
    digests: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    #: share of the host's CPU time stolen while the op ran
    steal: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def stolen(self) -> bool:
        """Whether the op ran in a steal phase."""
        return self.steal is not None and self.steal > STEAL_PHASE


def closed_loop(window: float, op: Callable[[int], OpResult],
                max_ops: Optional[int] = None) -> List[OpResult]:
    """One client: the next op starts when the previous one has ended.

    Ops are issued until the ops taken outside a steal phase fill the
    measured window (or ``max_ops`` ran); the last op may run past it by up
    to half an op.  An op in a steal phase is replaced by another, so that
    it is re-run rather than timed, but the loop never runs longer than a
    third of the window beyond it.
    """
    results: List[OpResult] = []
    started = time.perf_counter()
    while True:
        before = cpu_ticks()
        result = op(len(results))
        result.steal = steal_share(before, cpu_ticks())
        results.append(result)
        elapsed = time.perf_counter() - started
        counted = sum(done.seconds for done in results if not done.stolen)
        reach = result.seconds / 2
        if (len(results) == max_ops or counted + reach >= window
                or elapsed + reach >= window * 4 / 3):
            return results


def timed_metrics(results: List[OpResult], clients: int = 1
                  ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """``op_p50_s`` and ``jobs_per_s`` of closed loops, and their details.

    Ops that ran in a steal phase are left out of both unless every op
    did; then all of them count and ``timed_in_steal_phase`` says so.
    ``op_p50_s`` is the median over the ops that succeeded (over all ops
    when none did).  ``jobs_per_s`` is the checked rows of the succeeded
    ops over the seconds of all counted ops, times the clients that ran
    their loops side by side.
    """
    quiet = [result for result in results if not result.stolen]
    sample = quiet or results
    ok = [result for result in sample if result.ok]
    seconds = [result.seconds for result in ok or sample]
    metrics = {
        "op_p50_s": median(seconds),
        "jobs_per_s": clients * sum(result.rows for result in ok)
        / sum(result.seconds for result in sample),
    }
    return metrics, {
        "op_p50_s_samples": len(seconds),
        "timed_in_steal_phase": not quiet,
        "ops_in_steal_phase": {result.label: result.steal
                               for result in results if result.stolen},
        "op_seconds": {result.label: result.seconds for result in results},
        # CPU seconds of a CLI op's processes: flat when a slower op only
        # waited for the host, higher when the host ran it slower
        "op_cpu_seconds": {result.label: result.extra["cpu_s"]
                           for result in results if "cpu_s" in result.extra},
    }


# -- outputs ---------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


def first_json(text: str) -> Dict[str, object]:
    """The JSON object a CLI command prints first on its stdout."""
    start = text.find("{")
    if start < 0:
        raise ValueError("no JSON object in the command output")
    payload, _ = json.JSONDecoder().raw_decode(text[start:])
    return payload


class DigestBook:
    """Output digests of one run.

    Every op's digests must equal the first op's, and — when the benchmark
    carries a recording for this workload, scale and seed — the recorded
    ones.  Any difference is kept as a mismatch and fails the command.
    """

    def __init__(self, workload: str, scale_key: str,
                 recorded_path: Path = RECORDED_DIGESTS):
        try:
            book = json.loads(Path(recorded_path).read_text())
        except FileNotFoundError:
            book = {}
        self.recorded = book.get(workload, {}).get(scale_key)
        self.scale_key = scale_key
        self.first: Optional[Dict[str, object]] = None
        self.mismatches: List[Dict[str, object]] = []

    def check(self, label: str, digests: Dict[str, object]) -> bool:
        ok = True
        if self.first is None:
            self.first = dict(digests)
        elif digests != self.first:
            self.mismatches.append({"op": label, "against": "first op",
                                    "expected": self.first, "got": digests})
            ok = False
        if self.recorded is not None and digests != self.recorded:
            self.mismatches.append({"op": label, "against": "recorded",
                                    "expected": self.recorded,
                                    "got": digests})
            ok = False
        return ok

    def report(self) -> Dict[str, object]:
        return {"scale": self.scale_key, "digests": self.first,
                "recorded": self.recorded is not None,
                "mismatches": self.mismatches}


class OutputChecks:
    """The output checks of one run, and the failures of its ops."""

    def __init__(self, ctx, workload):
        self.book = DigestBook(workload.name, ctx.scale_key(workload),
                               ctx.digests_path)
        self.failures: List[Dict[str, object]] = []

    def op(self, result: OpResult) -> OpResult:
        """Check one op's digests; record it if it failed either way."""
        if result.ok and not self.book.check(result.label, result.digests):
            result.failure = "output digests differ"
        if not result.ok:
            self.failures.append({
                "op": result.label, "reason": result.failure,
                **{key: result.extra[key] for key in ("job", "job_state")
                   if key in result.extra}})
        return result


# -- host record -----------------------------------------------------------------------


def cpu_ticks() -> Optional[List[int]]:
    """The host's CPU time counters from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]]


@dataclass
class HostSample:
    loadavg: Sequence[float] = field(default_factory=os.getloadavg)
    ticks: Optional[List[int]] = field(default_factory=cpu_ticks)


def steal_share(before: Optional[List[int]],
                after: Optional[List[int]]) -> Optional[float]:
    """The share of the host's CPU time the hypervisor took between two
    :func:`cpu_ticks` samples (None where the kernel reports no steal)."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [late - early for early, late in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _revision() -> Dict[str, str]:
    """The checkout's git commit; outside git, a digest of its source."""
    try:
        completed = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=30)
        if completed.returncode == 0:
            return {"commit": completed.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"source_digest": digest.hexdigest()[:16]}


def host_record(before: HostSample, after: HostSample) -> Dict[str, object]:
    """nproc, versions, the revision, and the load average and steal
    around the run.  The load average counts the program's own processes;
    steal is what marks a busy host."""
    import numpy

    share = steal_share(before.ticks, after.ticks)
    steal = None if share is None else {
        "ticks_before": before.ticks[7], "ticks_after": after.ticks[7],
        "share_of_run": share, "steal_phase": share > STEAL_PHASE}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_revision(),
        "loadavg_before": list(before.loadavg),
        "loadavg_after": list(after.loadavg),
        "steal": steal,
    }


# -- statistics ------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")
