"""Tuner instrumentation: per-stage spans and search metrics."""

from __future__ import annotations

import pytest

from repro.clsim.faults import FaultInjector, FaultPlan
from repro.errors import SearchInterrupted
from repro.obs import MetricsRegistry, Observability
from repro.tuner.cache import MeasurementCache
from repro.tuner.search import SearchEngine, TuningConfig, TuningStats


def run_search(obs, budget=60, seed=0, cache=None):
    engine = SearchEngine(
        "tahiti", "d", TuningConfig(budget=budget, seed=seed),
        cache=cache, obs=obs,
    )
    return engine, engine.run()


class TestTuneTrace:
    def test_stages_appear_as_spans_under_one_trace(self):
        obs = Observability(seed=0)
        _, result = run_search(obs)
        assert len(obs.traces) == 1
        trace = obs.traces[0]
        root = trace.root
        assert root.name == "tune"
        assert root.attributes["device"] == "tahiti"
        assert root.attributes["precision"] == "d"
        assert root.attributes["finalists"] == len(result.finalists)
        assert root.attributes["best_gflops"] == round(result.best.gflops, 6)
        names = trace.span_names()
        for stage in ("tune.stage1", "tune.refine", "tune.stage2",
                      "tune.verify"):
            assert stage in names, f"missing stage span {stage}"
        s1 = trace.find("tune.stage1")[0]
        assert s1.attributes["generated"] > 0

    def test_trace_is_deterministic_per_seed(self):
        def run():
            obs = Observability(seed=3)
            run_search(obs, seed=3)
            return [t.to_dict() for t in obs.traces]

        assert run() == run()

    def test_untraced_search_is_unchanged(self):
        _, traced = run_search(Observability(seed=0))
        _, plain = run_search(None)
        assert plain.best.params == traced.best.params
        assert plain.best.gflops == traced.best.gflops


class TestSearchMetrics:
    def test_stats_mirror_into_the_registry(self):
        obs = Observability(seed=0)
        engine, _ = run_search(obs)
        for field in ("generated", "measured", "cache_misses"):
            metric = obs.metrics.get(f"tuner_{field}_total")
            assert metric.value == getattr(engine.stats, field)
        assert obs.metrics.get("tuner_generated_total").value > 0

    def test_cache_hits_appear_on_a_warm_second_run(self):
        obs = Observability(seed=0)
        cache = MeasurementCache()
        engine1, _ = run_search(obs, cache=cache)
        engine2, _ = run_search(obs, cache=cache)
        assert engine2.stats.cache_hits > 0
        # The registry is cumulative across both engines.
        assert obs.metrics.get("tuner_cache_hits_total").value \
            == engine1.stats.cache_hits + engine2.stats.cache_hits
        assert obs.metrics.get("tuner_generated_total").value \
            == engine1.stats.generated + engine2.stats.generated

    def test_fault_classes_mirror_as_a_labeled_series(self):
        obs = Observability(seed=0)
        engine = SearchEngine(
            "tahiti", "d", TuningConfig(budget=120, seed=7),
            injector=FaultInjector(
                FaultPlan.parse("build:0.1,launch:0.1", seed=7)
            ),
            obs=obs,
        )
        engine.run()
        assert engine.stats.faults_by_class, "fault plan injected nothing"
        metric = obs.metrics.get("tuner_faults_total")
        for kind, count in engine.stats.faults_by_class.items():
            assert metric.labels(kind=kind).value == count


class TestTuningStatsBinding:
    def test_bind_preserves_existing_values(self):
        stats = TuningStats()
        stats.generated = 10
        stats.count_fault("build")
        registry = MetricsRegistry()
        stats.bind_registry(registry)
        assert registry.get("tuner_generated_total").value == 10
        assert registry.get("tuner_faults_total").labels(kind="build").value == 1
        stats.generated += 5
        stats.count_fault("build")
        assert registry.get("tuner_generated_total").value == 15
        assert registry.get("tuner_faults_total").labels(kind="build").value == 2

    def test_second_bind_is_cumulative_not_backwards(self):
        registry = MetricsRegistry()
        first = TuningStats()
        first.bind_registry(registry)
        first.generated = 100
        fresh = TuningStats()  # zeroed: must not drag the total down
        fresh.bind_registry(registry)
        fresh.generated = 7
        assert registry.get("tuner_generated_total").value == 107

    def test_in_place_dict_mutation_is_exported(self):
        # The fields are the only store: writes that bypass the
        # ``count_*`` helpers still reach the registry.
        stats = TuningStats()
        registry = MetricsRegistry()
        stats.bind_registry(registry)
        stats.faults_by_class["timing"] = 3
        stats.static_rejects_by_rule["device.occupancy"] = 2
        assert registry.get("tuner_faults_total").labels(kind="timing").value == 3
        assert registry.get("tuner_static_rejects_total") \
            .labels(rule="device.occupancy").value == 2

    def test_serialization_stays_clean_after_binding(self):
        stats = TuningStats()
        stats.bind_registry(MetricsRegistry())
        stats.generated = 3
        for d in (stats.as_dict(), stats.comparable_dict()):
            assert d["generated"] == 3
            assert not any(k.startswith("_") for k in d)
        clone = TuningStats.from_dict(stats.as_dict())
        assert clone.generated == 3


class TestResumedSearchMetrics:
    def test_totals_sum_the_pre_restore_and_restored_stats(self, tmp_path):
        path = str(tmp_path / "search.ckpt")
        config = TuningConfig(budget=250, verify_finalists=1, top_k=8)

        def injector():
            return FaultInjector(FaultPlan.parse("build:0.1,launch:0.1", seed=7))

        interrupted = SearchEngine("tahiti", "d", config, injector=injector(),
                                   checkpoint_path=path, checkpoint_every=40)
        interrupted.abort_after = 120
        with pytest.raises(SearchInterrupted):
            interrupted.run()

        obs = Observability(seed=0)
        engine = SearchEngine("tahiti", "d", config, injector=injector(),
                              checkpoint_path=path, resume=True, obs=obs)
        pre_restore = engine.stats
        engine.run()
        assert engine.stats is not pre_restore
        assert engine.stats.resumed > 0
        for name in TuningStats.COUNTER_FIELDS:
            assert obs.metrics.get(f"tuner_{name}_total").value \
                == getattr(pre_restore, name) + getattr(engine.stats, name), name
        assert engine.stats.faults_by_class, "fault plan injected nothing"
        faults = obs.metrics.get("tuner_faults_total")
        for kind, count in engine.stats.faults_by_class.items():
            assert faults.labels(kind=kind).value \
                == pre_restore.faults_by_class.get(kind, 0) + count
