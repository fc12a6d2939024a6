"""Tests for the equivalence-class transpile cache and rank-mode studies.

The load-bearing properties:

* structural/class fingerprints are pure — stable across processes and
  hash seeds (no ``id()`` or dict-order leakage into the bytes);
* the :class:`~repro.transpiler.cache.TranspileCache` round-trips
  summaries exactly (float-exact JSON), treats corruption as a miss, and
  prunes LRU-first;
* rank-mode studies are byte-identical for any worker / shard /
  transpile-shard count, with the cache cold, warm, or disabled — the
  cache and the pool only change *where* a transpile runs, never what
  the ranking sees.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.circuits.library import ghz_circuit
from repro.core.exceptions import ReproError, ScenarioError
from repro.devices import build_backend
from repro.runner.executor import run_study
from repro.runner.sharding import plan_transpile_shards
from repro.scenarios import PolicySwap, Scenario
from repro.scheduling.policies import (
    MachineSelector,
    SelectionObjective,
    rank_candidates,
    rank_summaries,
)
from repro.transpiler.cache import (
    DEFAULT_RANK_SEED,
    TranspileCache,
    summarise_transpile,
    transpile_cache_key,
)
from repro.workloads.circuit_metrics import (
    class_fingerprint,
    representative_circuit,
    structural_fingerprint,
)
from repro.workloads.generator import (
    ScenarioKnobs,
    TraceGeneratorConfig,
    plan_transpile_classes,
)
from repro.workloads.transpile_classes import (
    ClassRankTable,
    compute_class_summary,
)

_FP_SNIPPET = """\
import sys
sys.path.insert(0, {src!r})
from repro.workloads.circuit_metrics import class_fingerprint
from repro.transpiler.cache import backend_fingerprint
from repro.devices import build_backend
print(class_fingerprint("qft", 5))
print(class_fingerprint("random", 9))
print(backend_fingerprint(build_backend("ibmq_athens", seed=3)))
"""


def _rank_config(jobs=60, months=3, objective="balanced"):
    return TraceGeneratorConfig(
        total_jobs=jobs, months=months, seed=7,
        scenario=ScenarioKnobs(ranking_objective=objective))


def _trace_bytes(result):
    columns = sorted(result.trace.column_names) \
        if hasattr(result.trace, "column_names") else None
    if columns is None:
        columns = ["job_id", "machine", "user_policy", "submit_time",
                   "start_time", "end_time", "status"]
    return [(name, list(result.trace.column(name))) for name in columns]


class TestFingerprints:
    def test_structural_fingerprint_abstracts_parameters(self):
        # Two widths of the same family differ; the same build is stable.
        assert class_fingerprint("qft", 4) != class_fingerprint("qft", 5)
        assert class_fingerprint("qft", 4) == class_fingerprint("qft", 4)

    def test_fingerprints_stable_across_processes(self):
        """No id()/hash-seed/dict-order leakage into the fingerprints."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        snippet = _FP_SNIPPET.format(src=src)
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
            ).stdout.splitlines()
            for seed in ("0", "4242")
        ]
        assert runs[0] == runs[1]
        local = [class_fingerprint("qft", 5), class_fingerprint("random", 9)]
        assert runs[0][:2] == local

    def test_structural_fingerprint_matches_metrics_stream(self):
        circuit = representative_circuit("qft", 5)
        assert structural_fingerprint(circuit) == class_fingerprint("qft", 5)


class TestTranspileCache:
    def test_round_trip_is_exact(self, tmp_path):
        backend = build_backend("ibmq_athens", seed=3)
        summary = compute_class_summary("qft", 4, backend, level=3)
        cache = TranspileCache(tmp_path)
        key = transpile_cache_key(summary.class_fingerprint,
                                  summary.backend_fingerprint,
                                  summary.level, summary.seed)
        cache.put(key, summary)
        restored = cache.get(key)
        # Frozen dataclass equality covers every float bit-for-bit: JSON
        # round-trips repr-exact floats.
        assert restored == summary
        assert cache.stats()["hits"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TranspileCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for("deadbeef").write_text("{not json")
        assert cache.get("deadbeef") is None
        assert cache.stats()["misses"] == 1

    def test_prune_is_lru(self, tmp_path):
        import os

        backend = build_backend("ibmq_athens", seed=3)
        cache = TranspileCache(tmp_path)
        keys = []
        for width in (2, 3, 4):
            summary = compute_class_summary("ghz", width, backend, level=1)
            key = transpile_cache_key(summary.class_fingerprint,
                                      summary.backend_fingerprint, 1,
                                      summary.seed)
            cache.put(key, summary)
            keys.append(key)
        # Pin distinct mtimes (puts land within one filesystem tick),
        # making the first entry the most recently used.
        for age, key in enumerate(keys):
            os.utime(cache.path_for(key), (1000.0 - age, 1000.0 - age))
        root = cache.cache_root
        evicted = root.prune(root.entries()[-1].size_bytes * 2)
        assert evicted
        assert cache.stats()["evictions"] == len(evicted)
        survivors = {entry.key for entry in root.entries()}
        assert keys[0] in survivors

    def test_cache_key_separates_levels(self):
        assert transpile_cache_key("a" * 24, "b" * 24, 2) \
            != transpile_cache_key("a" * 24, "b" * 24, 3)


#: (family, width, machine) classes pinned by the compiled-fields golden:
#: every family on line (athens), T (lima), bowtie (ibmqx2), Falcon
#: (casablanca, guadalupe, paris, toronto), heavy-hex (rochester, manhattan),
#: Melbourne, Tokyo and the simulator.
_GOLDEN_CLASSES = (
    ("qft", 3, "ibmq_athens"), ("qft", 5, "ibmq_lima"),
    ("qft", 7, "ibmq_casablanca"), ("qft", 4, "ibmqx2"),
    ("qft", 6, "ibmq_qasm_simulator"), ("qft", 9, "ibmq_manhattan"),
    ("ghz", 5, "ibmq_athens"), ("ghz", 3, "ibmq_lima"),
    ("ghz", 7, "ibmq_casablanca"), ("ghz", 12, "ibmq_guadalupe"),
    ("ghz", 16, "ibmq_manhattan"), ("ghz", 10, "ibmq_qasm_simulator"),
    ("bv", 4, "ibmq_athens"), ("bv", 5, "ibmq_lima"),
    ("bv", 6, "ibmq_casablanca"), ("bv", 9, "ibmq_paris"),
    ("bv", 8, "ibmq_rochester"), ("bv", 7, "ibmq_qasm_simulator"),
    ("qaoa", 5, "ibmq_athens"), ("qaoa", 4, "ibmq_lima"),
    ("qaoa", 6, "ibmq_casablanca"), ("qaoa", 8, "ibmq_toronto"),
    ("qaoa", 6, "ibmq_manhattan"), ("qaoa", 5, "ibmq_qasm_simulator"),
    ("vqe", 5, "ibmq_athens"), ("vqe", 3, "ibmq_lima"),
    ("vqe", 7, "ibmq_casablanca"), ("vqe", 10, "ibmq_guadalupe"),
    ("vqe", 8, "ibmq_manhattan"), ("vqe", 4, "ibmq_qasm_simulator"),
    ("random", 2, "ibmq_athens"), ("random", 5, "ibmq_lima"),
    ("random", 4, "ibmq_casablanca"), ("random", 6, "ibmq_16_melbourne"),
    ("random", 7, "ibmq_20_tokyo"), ("random", 6, "ibmq_qasm_simulator"),
)

#: sha256 over those classes' summaries at levels 1 and 3, pass timings
#: excluded.  Ranking reads only the ESP and the CX counts, so this is the
#: one check on ``compiled_size``, ``compiled_depth`` and ``swap_count``.
_GOLDEN_SUMMARIES_SHA256 = (
    "8bab00a07ecfc44fb5df2403817b2188cb5553bff3b380914e020965d4c6b173")


class TestCompiledFieldsGolden:
    def test_class_summaries_match_golden(self):
        backends = {}
        summaries = []
        for level in (1, 3):
            for family, width, machine in _GOLDEN_CLASSES:
                if machine not in backends:
                    backends[machine] = build_backend(machine, seed=3)
                fields = compute_class_summary(
                    family, width, backends[machine], level).as_dict()
                del fields["pass_timings"]
                summaries.append(fields)
        digest = hashlib.sha256(
            json.dumps(summaries, sort_keys=True).encode()).hexdigest()
        assert digest == _GOLDEN_SUMMARIES_SHA256


class TestClassTranspileWork:
    def test_level3_summary_scans_circuit_and_calibration_sparingly(
            self, monkeypatch):
        from repro.circuits.circuit import QuantumCircuit
        from repro.devices.calibration import CalibrationModel

        circuit = representative_circuit("qft", 5)
        backend = build_backend("ibmq_athens", seed=3)
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(QuantumCircuit, "depth")
        count(QuantumCircuit, "gate_counts")
        count(CalibrationModel, "snapshot_at")
        summarise_transpile(circuit, backend, 3)
        # depth: the Depth pass (depth and cx_depth), the ESP's cx_depth
        # and compiled_depth; gate_counts: compiled_size; one calibration
        # snapshot serves both the layout passes and the ESP.
        assert calls["depth"] <= 4
        assert calls["gate_counts"] <= 1
        assert calls["snapshot_at"] == 1


class TestRanking:
    def test_rank_candidates_orders_by_score_then_name(self):
        choices = rank_candidates([
            ("m_b", 0.9, 10, 5),
            ("m_a", 0.9, 12, 6),
            ("m_c", 0.1, 3, 2),
        ])
        assert [c.machine for c in choices] == ["m_a", "m_b", "m_c"]

    def test_rank_candidates_rejects_empty(self):
        with pytest.raises(ReproError):
            rank_candidates([])

    def test_cached_selector_matches_live_selector(self, tmp_path):
        backends = [build_backend(name, seed=2)
                    for name in ("ibmq_athens", "ibmq_casablanca")]
        circuit = ghz_circuit(3)
        live = MachineSelector(SelectionObjective.FIDELITY)
        cached = MachineSelector(SelectionObjective.FIDELITY,
                                 cache=TranspileCache(tmp_path))
        expected = live.evaluate(circuit, backends)
        for _ in range(2):  # second pass runs fully from the cache
            choices = cached.evaluate(circuit, backends)
            assert [(c.machine, c.estimated_success, c.score)
                    for c in choices] \
                == [(c.machine, c.estimated_success, c.score)
                    for c in expected]

    def test_rank_summaries_equals_rank_candidates(self):
        backend = build_backend("ibmq_athens", seed=3)
        summary = compute_class_summary("ghz", 3, backend, level=2)
        by_summary = rank_summaries([summary])
        by_tuple = rank_candidates([(summary.machine,
                                     summary.estimated_success,
                                     summary.cx_total, summary.cx_depth)])
        assert by_summary == by_tuple

    def test_sparse_table_selects_like_complete(self):
        backends = [build_backend(name, seed=2)
                    for name in ("ibmq_athens", "ibmq_casablanca")]
        summaries = [compute_class_summary("ghz", 3, backend, level=3)
                     for backend in backends]
        complete = ClassRankTable(objective="balanced", level=3,
                                  summaries=summaries)
        sparse = ClassRankTable(objective="balanced", level=3)
        assert complete.select("ghz", 3, backends).name \
            == sparse.select("ghz", 3, backends).name
        assert sparse.inline_computes == len(backends)


class TestTranspileSharding:
    def test_round_robin_partition(self):
        pairs = [("qft", w, "ibmq_athens") for w in range(2, 12)]
        shards = plan_transpile_shards(pairs, 3)
        assert sorted(p for shard in shards for p in shard.pairs) \
            == sorted(pairs)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_shards_dropped(self):
        pairs = [("qft", 3, "ibmq_athens")]
        assert len(plan_transpile_shards(pairs, 4)) == 1


class TestRankStudyDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("rank-cache")
        result = run_study(config=_rank_config(), workers=1,
                           cache_dir=root)
        return root, result

    def test_cold_run_reports_amortisation(self, reference):
        _, result = reference
        stats = result.transpile
        assert stats["cold"] == stats["pairs"] > 0
        # Even at this tiny scale each class serves several jobs; the
        # >=10x dedup target holds at paper scale (the test below).
        assert stats["probes"] > stats["pairs"] >= stats["classes"]
        assert result.trace.metadata.get("seed") == 7

    def test_paper_scale_plan_dedups_tenfold(self):
        # Planning replays only the draw prefix of each submission, so the
        # 6000-job study is checked without transpiling a class.
        config = _rank_config(jobs=6000, months=28)
        _, stats = plan_transpile_classes(config, config.build_fleet())
        assert stats["jobs"] == 6000
        assert stats["probes"] >= 10 * stats["pairs"], stats

    def test_warm_cache_is_byte_identical(self, reference):
        root, cold = reference
        for path in Path(root).glob("trace-*"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        warm = run_study(config=_rank_config(), workers=1, cache_dir=root)
        assert warm.transpile["cold"] == 0
        assert warm.transpile["warm"] == cold.transpile["pairs"]
        assert _trace_bytes(warm) == _trace_bytes(cold)

    def test_cache_off_and_sharded_are_byte_identical(self, reference):
        _, cold = reference
        for workers, shards in ((1, 2), (2, 3)):
            events = []
            rerun = run_study(config=_rank_config(), workers=workers,
                              num_shards=shards, on_event=events.append)
            assert _trace_bytes(rerun) == _trace_bytes(cold)
            # The transpile stage fans out to the synthesis shard count.
            assert [event.detail["shards"] for event in events
                    if event.kind == "transpile-queued"] == [shards]

    def test_rank_policy_lands_in_the_trace(self, reference):
        _, result = reference
        assert set(result.trace.column("user_policy")) == {"rank-balanced"}


class TestTranspileSpans:
    def test_rank_study_emits_class_and_pass_spans(self):
        from repro.telemetry import Tracer, set_tracer

        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            run_study(config=_rank_config(jobs=20, months=1), workers=1)
        finally:
            set_tracer(previous)
        spans = tracer.spans()
        names = [span["name"] for span in spans]
        assert "study.transpile" in names
        class_spans = [s for s in spans if s["name"] == "transpile.class"]
        assert class_spans
        pass_spans = [s for s in spans
                      if s["name"].startswith("transpile.pass.")]
        assert pass_spans
        # Pass spans replay inside their class span's window.
        eps = 1e-6
        for class_span in class_spans:
            end = class_span["start"] + class_span["duration"]
            children = [
                s for s in pass_spans
                if s["args"].get("family") == class_span["args"]["family"]
                and s["args"].get("width") == class_span["args"]["width"]
                and s["args"].get("machine")
                == class_span["args"]["machine"]
            ]
            assert children
            for child in children:
                assert child["start"] >= class_span["start"] - eps
                assert child["start"] + child["duration"] <= end + eps
        tracer.chrome_trace()  # must export cleanly


class TestPolicySwapRankMode:
    def test_rank_mode_sets_ranking_knobs(self):
        swap = PolicySwap(policy="fidelity", mode="rank", level=2)
        config = swap.apply(TraceGeneratorConfig(total_jobs=10, months=1))
        assert config.scenario.ranking_objective == "fidelity"
        assert config.scenario.ranking_level == 2
        assert config.scenario.forced_policy is None

    def test_trace_mode_unchanged(self):
        config = PolicySwap(policy="queue").apply(
            TraceGeneratorConfig(total_jobs=10, months=1))
        assert config.scenario.forced_policy == "least_queue"
        assert config.scenario.ranking_objective is None

    def test_rank_mode_rejects_user_policies(self):
        with pytest.raises(ScenarioError):
            PolicySwap(policy="least_queue", mode="rank").apply(
                TraceGeneratorConfig(total_jobs=10, months=1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError):
            PolicySwap(policy="balanced", mode="compile").apply(
                TraceGeneratorConfig(total_jobs=10, months=1))

    def test_rank_scenarios_have_distinct_fingerprints(self):
        from repro.runner.cache import config_fingerprint

        base = TraceGeneratorConfig(total_jobs=10, months=1)
        scenarios = [
            Scenario("a", perturbations=(PolicySwap(policy="balanced"),)),
            Scenario("b", perturbations=(
                PolicySwap(policy="balanced", mode="rank"),)),
            Scenario("c", perturbations=(
                PolicySwap(policy="fidelity", mode="rank"),)),
        ]
        prints = {config_fingerprint(s.apply_to(base)) for s in scenarios}
        assert len(prints) == 3

    def test_default_seed_is_shared(self):
        # The table and the selector must agree on the pinned seed, or the
        # cached and live paths would key different entries.
        assert ClassRankTable().seed == DEFAULT_RANK_SEED
        assert summarise_transpile.__defaults__[0] == DEFAULT_RANK_SEED
