"""Full searches under injected faults: same winner, flakes quarantined.

The acceptance property of the chaos layer: with a seeded plan injecting
>= 10% transient faults, the staged search completes, retries absorb the
flakes, persistently flaky candidates are quarantined, and both serial
and parallel searches select the *identical winner* as a fault-free run.
"""

import pytest

from repro.clsim.faults import FaultInjector, FaultPlan, FaultRule
from repro.tuner.cache import MeasurementCache
from repro.tuner.resilience import ResilienceConfig
from repro.tuner.search import SearchEngine, TuningConfig

QUICK = TuningConfig(budget=200, verify_finalists=1, top_k=8)

#: >= 10% total transient fault rate across build/launch/device-lost.
TRANSIENT_PLAN = FaultPlan.parse(
    "build:0.05,launch:0.04,device_lost:0.03", seed=11
)


def _engine(spec, *, injector=None, workers=1, **kwargs):
    resilience = (
        ResilienceConfig(max_retries=4, backoff_s=0.0)
        if injector is not None else None
    )
    return SearchEngine(
        spec, "d", QUICK,
        injector=injector, resilience=resilience, workers=workers, **kwargs,
    )


class TestWinnerIdentity:
    def test_faulted_search_selects_the_fault_free_winner(self, tahiti):
        clean = _engine(tahiti).run()
        faulted = _engine(
            tahiti, injector=FaultInjector(TRANSIENT_PLAN)
        ).run()
        assert faulted.best.params == clean.best.params
        assert faulted.best.gflops == clean.best.gflops
        assert faulted.best.size == clean.best.size
        # The chaos layer actually did something.
        assert faulted.stats.retries > 0
        assert sum(faulted.stats.faults_by_class.values()) > 0

    def test_serial_and_parallel_agree_under_faults(self, tahiti):
        inj = FaultInjector(TRANSIENT_PLAN)
        serial = _engine(tahiti, injector=inj).run()
        parallel = _engine(tahiti, injector=inj, workers=4).run()
        assert parallel.best.params == serial.best.params
        assert parallel.stats.comparable_dict() == serial.stats.comparable_dict()
        assert [mk.params for mk in parallel.finalists] == [
            mk.params for mk in serial.finalists
        ]

    def test_fault_free_resilient_run_is_bit_identical(self, tahiti):
        """The resilience layer alone (no injector) changes nothing."""
        plain = SearchEngine(tahiti, "d", QUICK).run()
        resilient = SearchEngine(
            tahiti, "d", QUICK, resilience=ResilienceConfig()
        ).run()
        assert resilient.best.params == plain.best.params
        assert resilient.best.gflops == plain.best.gflops
        # Every score, not only the winner's: median-of-k over equal
        # clean samples is the sample itself.
        assert [(mk.params, mk.size, mk.gflops) for mk in resilient.finalists] \
            == [(mk.params, mk.size, mk.gflops) for mk in plain.finalists]
        assert [(mk.size, mk.gflops) for mk in resilient.best_series] \
            == [(mk.size, mk.gflops) for mk in plain.best_series]
        assert resilient.stats.retries == 0
        assert resilient.stats.faults_by_class == {}


class TestQuarantine:
    def test_zero_retry_budget_quarantines_flaky_candidates(self, tahiti):
        """With no retries every injected transient immediately exhausts
        its budget: the candidate is demoted, the search survives."""
        inj = FaultInjector(FaultPlan.parse("launch:0.15", seed=3))
        engine = SearchEngine(
            tahiti, "d", QUICK,
            injector=inj, resilience=ResilienceConfig(max_retries=0),
        )
        result = engine.run()
        assert result.best is not None
        assert engine.stats.failed_transient > 0
        assert engine.stats.quarantined > 0
        assert len(engine.quarantine) == engine.stats.quarantined
        # Quarantined candidates never appear among the finalists.
        from repro.tuner.cache import params_digest

        for mk in result.finalists:
            assert params_digest(mk.params) not in engine.quarantine

    def test_quarantined_counts_survive_stats_round_trip(self, tahiti):
        from repro.tuner.search import TuningStats

        inj = FaultInjector(FaultPlan.parse("launch:0.15", seed=3))
        engine = SearchEngine(
            tahiti, "d", QUICK,
            injector=inj, resilience=ResilienceConfig(max_retries=0),
        )
        engine.run()
        restored = TuningStats.from_dict(engine.stats.as_dict())
        assert restored == engine.stats
        assert restored.faults_by_class == engine.stats.faults_by_class


class TestCacheHygiene:
    def test_injected_failures_never_pollute_the_cache(self, tahiti):
        cache = MeasurementCache()
        _engine(
            tahiti, injector=FaultInjector(TRANSIENT_PLAN), cache=cache
        ).run()
        for entry in cache._entries.values():
            assert entry.failure not in ("transient", "timeout")
        # A warm fault-free run over the same cache still selects the
        # fault-free winner: nothing plan-made was persisted.
        clean = _engine(tahiti).run()
        warm = _engine(tahiti, cache=cache).run()
        assert warm.best.params == clean.best.params
        assert warm.best.gflops == clean.best.gflops

    def test_build_log_round_trips_through_cache(self, tahiti):
        """A real (non-injected) build failure's log is cached and
        replayed on the warm run.  The static gate would prune these
        candidates before they ever reach the cache, so it is disabled —
        the subject here is cache hygiene, not gating."""
        cache = MeasurementCache()
        SearchEngine(tahiti, "d", QUICK, cache=cache, static_gate=False).run()
        logged = [
            e for e in cache._entries.values()
            if e.failure == "build" and e.build_log
        ]
        assert logged, "expected at least one cached build failure with a log"
        import json

        blob = {k: e.to_jsonable() for k, e in cache._entries.items()}
        from repro.tuner.cache import CachedMeasurement

        restored = {
            k: CachedMeasurement.from_jsonable(v)
            for k, v in json.loads(json.dumps(blob)).items()
        }
        assert restored == cache._entries


class TestVerifyUnderFaults:
    def test_verify_retries_transient_build_faults(self, tahiti):
        """Finalist verification runs the whole clsim stack under the
        injector; transient faults there are retried, not fatal."""
        inj = FaultInjector(FaultPlan.parse("build:0.5", seed=2))
        clean = _engine(tahiti).run()
        engine = SearchEngine(
            tahiti, "d", QUICK,
            injector=inj,
            resilience=ResilienceConfig(max_retries=12, backoff_s=0.0),
        )
        faulted = engine.run()
        assert faulted.best.params == clean.best.params
        # Pinned: verification folds its retries and faults into the
        # same tally as every measurement.
        assert engine.stats.comparable_dict() == {
            "generated": 301, "measured": 300, "failed_generation": 0,
            "failed_build": 0, "failed_launch": 0, "failed_validation": 0,
            "failed_transient": 0, "refined": 100, "static_rejects": 1,
            "static_rejects_by_rule": {"device.workgroup-size": 1},
            "retries": 338, "timeouts": 0, "quarantined": 0,
            "faults_by_class": {"build": 338}, "cache_hits": 0,
            "cache_misses": 0, "resumed": 0, "checkpoints": 0,
            "strategy": "exhaustive", "strategy_proposals": 200,
            "strategy_refits": 0, "strategy_transfer_seeds": 0,
            "strategy_early_stop": "", "strategy_importance": {},
        }

    def test_persistent_verify_build_fault_skips_the_finalist(self, tahiti):
        """A finalist whose verification build fails for good is a failed
        candidate, like one failing in stage 1: the search counts it and
        verifies the next-ranked finalist instead of raising."""
        inj = FaultInjector(FaultPlan(seed=1, rules=(
            FaultRule(kind="build", rate=0.5, transient=False),
        )))
        config = TuningConfig(budget=200, verify_finalists=3, top_k=8)
        engine = SearchEngine(
            tahiti, "d", config,
            injector=inj, resilience=ResilienceConfig(backoff_s=0.0),
        )
        result = engine.run()
        assert engine.stats.failed_validation == 0
        assert result.best.params != result.finalists[0].params

    def test_result_corruption_fails_validation(self, tahiti):
        """Silent NaN corruption is invisible to timing but caught by the
        functional verify stage (the paper's numerical testing)."""
        inj = FaultInjector(FaultPlan.parse("result:1.0", seed=0))
        config = TuningConfig(budget=200, verify_finalists=2, top_k=8)
        engine = SearchEngine(
            tahiti, "d", config,
            injector=inj, resilience=ResilienceConfig(backoff_s=0.0),
        )
        try:
            engine.run()
        except Exception:
            pass  # every finalist may fail verification; that's fine
        assert engine.stats.failed_validation > 0


class TestTelemetry:
    def test_render_stats_reports_resilience_line(self, tahiti):
        from repro.tuner.analysis import render_stats

        engine = _engine(tahiti, injector=FaultInjector(TRANSIENT_PLAN))
        engine.run()
        text = render_stats(engine.stats)
        assert "resilience" in text
        assert "retries" in text and "quarantined" in text

    def test_clean_stats_omit_resilience_line(self, tahiti):
        from repro.tuner.analysis import render_stats

        engine = _engine(tahiti)
        engine.run()
        assert "resilience" not in render_stats(engine.stats)

    def test_fingerprint_depends_on_fault_plan(self, tahiti):
        bare = SearchEngine(tahiti, "d", QUICK)
        faulted = _engine(tahiti, injector=FaultInjector(TRANSIENT_PLAN))
        reseeded = _engine(
            tahiti, injector=FaultInjector(TRANSIENT_PLAN.with_seed(99))
        )
        prints = {
            bare._fingerprint(),
            faulted._fingerprint(),
            reseeded._fingerprint(),
        }
        assert len(prints) == 3


class TestCli:
    def test_tune_with_injected_faults_and_stats_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        stats_path = tmp_path / "stats.json"
        rc = main([
            "tune", "tahiti", "--budget", "150",
            "--inject-faults", "build:0.05,launch:0.05",
            "--fault-seed", "7",
            "--max-retries", "4",
            "--stats-json", str(stats_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan" in out
        stats = json.loads(stats_path.read_text())
        assert "retries" in stats and "faults_by_class" in stats

    def test_tune_rejects_bad_fault_spec(self):
        from repro.cli import main

        with pytest.raises(ValueError):
            main(["tune", "tahiti", "--budget", "50",
                  "--inject-faults", "nonsense"])
