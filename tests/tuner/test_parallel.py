"""Deterministic parallel candidate evaluation."""

import pytest

from repro.errors import TuningError
from repro.tuner.cache import MeasurementCache
from repro.tuner.parallel import CandidateEvaluator, EvalTask, evaluate_candidate
from repro.tuner.search import SearchEngine, TuningConfig

from tests.conftest import make_params

QUICK = TuningConfig(budget=200, verify_finalists=1, top_k=8)


def _tasks(engine, n=40):
    from repro.codegen.space import enumerate_space

    params = list(enumerate_space(engine.spec, "d", limit=n))
    return [EvalTask(p, engine.base_shape(p)) for p in params]


class TestEvaluator:
    def test_results_keep_task_order(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK)
        tasks = _tasks(engine)
        serial = CandidateEvaluator(tahiti, workers=1).evaluate(tasks)
        with CandidateEvaluator(tahiti, workers=4) as pool:
            parallel = pool.evaluate(tasks)
        assert [o.params for o in parallel] == [o.params for o in serial]
        assert parallel == serial  # values identical, not just ordering

    def test_failures_cross_as_data_not_exceptions(self, bulldozer):
        from repro.codegen.algorithms import Algorithm

        pl = make_params(algorithm=Algorithm.PL, shared_b=True)
        outcome = evaluate_candidate(bulldozer, EvalTask(pl, (64, 64, 64)))
        assert not outcome.ok
        assert outcome.failure == "launch"
        assert outcome.gflops is None

    def test_pool_survives_close_and_reuse(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK)
        tasks = _tasks(engine, n=8)
        pool = CandidateEvaluator(tahiti, workers=2)
        first = pool.evaluate(tasks)
        pool.close()
        second = pool.evaluate(tasks)  # lazily re-opens
        pool.close()
        assert first == second


class TestSerialParallelDeterminism:
    """Same seed + budget: serial and parallel searches are equivalent."""

    def test_same_winner_and_stats(self, tahiti):
        serial = SearchEngine(tahiti, "d", QUICK, workers=1).run()
        parallel = SearchEngine(tahiti, "d", QUICK, workers=4).run()
        assert parallel.best.params == serial.best.params
        assert parallel.best.gflops == serial.best.gflops
        assert parallel.best.size == serial.best.size
        # All stats identical modulo wall-clock fields.
        assert parallel.stats.comparable_dict() == serial.stats.comparable_dict()
        # Identical finalist ranking, not merely the same winner.
        assert [mk.params for mk in parallel.finalists] == [
            mk.params for mk in serial.finalists
        ]

    def test_same_winner_with_cache_attached(self, tahiti):
        serial = SearchEngine(
            tahiti, "d", QUICK, cache=MeasurementCache(), workers=1
        ).run()
        parallel = SearchEngine(
            tahiti, "d", QUICK, cache=MeasurementCache(), workers=3
        ).run()
        assert parallel.best.params == serial.best.params
        assert parallel.stats.comparable_dict() == serial.stats.comparable_dict()

    def test_worker_count_does_not_leak_into_stats(self, tahiti):
        results = [
            SearchEngine(tahiti, "d", QUICK, workers=w).run() for w in (1, 2, 5)
        ]
        dicts = [r.stats.comparable_dict() for r in results]
        assert dicts[0] == dicts[1] == dicts[2]

    def test_cpu_device_parallel_matches_serial(self, sandybridge):
        config = TuningConfig(budget=120, verify_finalists=0, top_k=5)
        serial = SearchEngine(sandybridge, "d", config).run()
        parallel = SearchEngine(sandybridge, "d", config, workers=4).run()
        assert parallel.best.params == serial.best.params


class TestStatsObservability:
    def test_stage_timings_and_throughput_populated(self, tahiti):
        result = SearchEngine(tahiti, "d", QUICK).run()
        s = result.stats
        assert s.stage1_s > 0
        assert s.stage2_s > 0
        assert s.elapsed_s >= s.stage1_s
        assert s.candidates_per_s > 0
        d = s.as_dict()
        for key in ("pruned", "cache_hit_rate", "candidates_per_s",
                    "stage1_s", "refine_s", "stage2_s", "verify_s"):
            assert key in d

    def test_comparable_dict_drops_wall_clock(self, tahiti):
        result = SearchEngine(tahiti, "d", QUICK).run()
        comparable = result.stats.comparable_dict()
        for key in ("elapsed_s", "stage1_s", "refine_s", "stage2_s", "verify_s"):
            assert key not in comparable
        assert comparable["measured"] == result.stats.measured

    def test_stats_dict_round_trip(self, tahiti):
        from repro.tuner.search import TuningStats

        result = SearchEngine(tahiti, "d", QUICK).run()
        restored = TuningStats.from_dict(result.stats.as_dict())
        assert restored == result.stats

    def test_tuning_stats_table_renders(self, tahiti):
        from repro.bench.harness import tuning_stats_table

        result = SearchEngine(tahiti, "d", QUICK).run()
        table = tuning_stats_table([result])
        text = table.render()
        assert "cand/s" in text and "tahiti" in text
        assert table.column("generated") == [str(result.stats.generated)]

    def test_render_stats_mentions_cache_and_stages(self, tahiti):
        from repro.tuner.analysis import render_stats

        result = SearchEngine(tahiti, "d", QUICK, cache=MeasurementCache()).run()
        text = render_stats(result.stats)
        assert "hit rate" in text
        assert "stage1" in text
        assert "candidates/s" in text


class TestErrors:
    def test_workers_floor_at_one(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK, workers=0)
        assert engine.workers == 1

    def test_empty_space_still_raises_tuning_error(self, tahiti):
        from repro.codegen.space import SpaceRestrictions

        # An unsatisfiable space: no algorithms survive.
        with pytest.raises(TuningError):
            SearchEngine(
                tahiti, "d", TuningConfig(budget=5, include_seeds=False),
                SpaceRestrictions(algorithms=()),
                workers=2,
            ).run()
