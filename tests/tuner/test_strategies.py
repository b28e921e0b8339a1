"""Pluggable search strategies: contract, determinism, transfer, resume."""

import itertools
import json

import pytest

from repro.codegen.space import SpaceRestrictions, enumerate_space, seed_candidates
from repro.devices.catalog import CATALOG, get_device_spec, nearest_devices
from repro.devices.specs import DeviceSpec
from repro.errors import SearchInterrupted
from repro.tuner.cache import MeasurementCache
from repro.tuner.pretuned import pretuned_params
from repro.tuner.search import SearchEngine, TuningConfig
from repro.tuner.strategies import (
    STRATEGIES,
    Observation,
    ParamSpace,
    make_strategy,
    transfer_seeds,
)
from repro.tuner.strategies.base import derive_rng

ADAPTIVE = ("random", "annealing", "pso", "surrogate")

QUICK = TuningConfig(budget=150, verify_finalists=1, top_k=8)


def _quick(strategy, **kw):
    return TuningConfig(
        budget=150, verify_finalists=1, top_k=8, strategy=strategy, **kw
    )


def _drive(strategy, score):
    """Run a strategy to completion against a synthetic objective."""
    proposed = 0
    while True:
        batch = strategy.ask(32)
        if not batch:
            return proposed
        proposed += len(batch)
        strategy.tell([Observation(p, gflops=score(p)) for p in batch])


class TestParamSpace:
    def test_encode_decode_roundtrip_on_enumerated_candidates(self, tahiti):
        space = ParamSpace(tahiti, "s")
        for params in itertools.islice(enumerate_space(tahiti, "s"), 200):
            decoded = space.decode(space.encode(params))
            assert decoded is not None
            assert space.admissible(params)

    def test_decode_rejects_out_of_range_and_infeasible(self, tahiti):
        space = ParamSpace(tahiti, "s")
        assert space.decode([999] * len(space)) is None

    def test_restrictions_shrink_the_axes(self, tahiti):
        full = ParamSpace(tahiti, "s")
        restricted = ParamSpace(
            tahiti, "s", SpaceRestrictions(power_of_two_only=True)
        )
        assert restricted.axis_sizes() < full.axis_sizes()
        rng = derive_rng("t", 0)
        p = restricted.random_params(rng)
        for v in (p.mwg, p.nwg, p.kwg, p.kwi):
            assert v & (v - 1) == 0

    def test_allowed_flags_are_searched(self, tahiti):
        # The fuzz corpus's restrictions allow both values of each flag:
        # random draws reach all four (images, guard) pairs, and every
        # flagged kernel keeps ROW layouts.
        space = ParamSpace(tahiti, "d", SpaceRestrictions(
            allow_images=True, allow_guarded=True))
        rng = derive_rng("t", 2)
        points = (space.decode(space.random_point(rng)) for _ in range(3000))
        drawn = [p for p in points if p is not None]
        assert {(p.use_images, p.guard_edges) for p in drawn} == set(
            itertools.product((False, True), repeat=2))
        for p in drawn:
            if p.use_images or p.guard_edges:
                assert (p.layout_a.value, p.layout_b.value) == ("ROW", "ROW")
            assert space.decode(space.encode(p)) == p

    @pytest.mark.parametrize("flag", ["images", "guarded"])
    def test_forced_flag_is_pinned_with_row_layouts(self, tahiti, flag):
        space = ParamSpace(tahiti, "d", SpaceRestrictions(
            **{f"forced_{flag}": True}))
        assert len(space) == len(ParamSpace(tahiti, "d"))
        rng = derive_rng("t", 3)
        for _ in range(20):
            p = space.random_params(rng)
            assert (p.use_images, p.guard_edges) == (
                flag == "images", flag == "guarded")
            assert (p.layout_a.value, p.layout_b.value) == ("ROW", "ROW")

    def test_perturb_moves_stay_in_range(self, tahiti):
        space = ParamSpace(tahiti, "s")
        rng = derive_rng("t", 1)
        idx = space.random_point(rng)
        for _ in range(50):
            idx = space.perturb(rng, idx, strength=3)
            assert all(
                0 <= i < size for i, size in zip(idx, space.axis_sizes())
            )

    def test_features_align_with_names(self, tahiti):
        space = ParamSpace(tahiti, "s")
        p = seed_candidates(tahiti, "s")[0]
        assert len(space.features(p)) == len(space.FEATURE_NAMES)


class TestStrategyContract:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_budget_is_respected(self, tahiti, name):
        space = ParamSpace(tahiti, "s")
        st = make_strategy(name, space, seed=3, budget=70)
        proposed = _drive(st, lambda p: float(p.mwg))
        assert proposed <= 70
        assert st.proposed == proposed

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_proposals_are_fresh_and_admissible(self, tahiti, name):
        space = ParamSpace(tahiti, "s")
        st = make_strategy(name, space, seed=5, budget=120)
        seen = set()
        while True:
            batch = st.ask(32)
            if not batch:
                break
            for p in batch:
                assert space.admissible(p)
                assert p.cache_key() not in seen
                seen.add(p.cache_key())
            st.tell([Observation(p, gflops=1.0) for p in batch])

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_same_seed_same_proposal_sequence(self, tahiti, name):
        space = ParamSpace(tahiti, "s")
        runs = []
        for _ in range(2):
            st = make_strategy(name, space, seed=7, budget=100)
            keys = []
            while True:
                batch = st.ask(16)
                if not batch:
                    break
                keys.extend(p.cache_key() for p in batch)
                st.tell([Observation(p, gflops=float(p.nwg)) for p in batch])
            runs.append(keys)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_state_dict_roundtrips_through_json(self, tahiti, name):
        space = ParamSpace(tahiti, "s")
        st = make_strategy(name, space, seed=9, budget=120)
        for _ in range(2):
            batch = st.ask(16)
            st.tell([Observation(p, gflops=float(p.kwg)) for p in batch])
        clone = make_strategy(name, space, seed=9, budget=120)
        clone.load_state_dict(json.loads(json.dumps(st.state_dict())))
        original = st.ask(16)
        restored = clone.ask(16)
        assert [p.cache_key() for p in original] == [
            p.cache_key() for p in restored
        ]

    def test_unknown_strategy_lists_registry(self, tahiti):
        with pytest.raises(KeyError, match="annealing"):
            make_strategy("gradient-descent", ParamSpace(tahiti, "s"))

    def test_exhaustive_matches_enumeration_order(self, tahiti):
        space = ParamSpace(tahiti, "s")
        st = make_strategy("exhaustive", space, seed=0, budget=100)
        proposed = []
        while True:
            batch = st.ask(32)
            if not batch:
                break
            proposed.extend(batch)
            st.tell([Observation(p, gflops=1.0) for p in batch])
        expected = list(itertools.islice(enumerate_space(tahiti, "s"), 100))
        assert [p.cache_key() for p in proposed] == [
            p.cache_key() for p in expected
        ]

    def test_failure_observations_do_not_become_best(self, tahiti):
        space = ParamSpace(tahiti, "s")
        st = make_strategy("random", space, seed=2, budget=40)
        batch = st.ask(8)
        st.tell([Observation(p, failure="static:rule") for p in batch])
        assert st.best_observed is None
        assert all(st.seen(p) for p in batch)


class TestSerialParallelDeterminism:
    """Same seed: serial and 3-worker searches pick the same winner."""

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_same_winner_and_stats(self, tahiti, name):
        serial = SearchEngine(tahiti, "d", _quick(name), workers=1).run()
        parallel = SearchEngine(tahiti, "d", _quick(name), workers=3).run()
        assert serial.best.params == parallel.best.params
        assert serial.best.gflops == parallel.best.gflops
        assert (
            serial.stats.comparable_dict() == parallel.stats.comparable_dict()
        )


class TestTransferWarmStart:
    def test_nearest_devices_excludes_self_and_orders_sensibly(self):
        for name in CATALOG:
            ranked = nearest_devices(name, k=3)
            assert name not in ranked
            assert len(ranked) == 3
        # The Kepler boards are each other's closest neighbours, as are
        # the two CPUs — the transfer table reflects hardware reality.
        assert nearest_devices("kepler", 1) == ["gtx680"]
        assert nearest_devices("gtx680", 1) == ["kepler"]
        assert nearest_devices("sandybridge", 1) == ["bulldozer"]

    def test_transfer_seeds_come_from_neighbour_winners(self):
        spec = get_device_spec("kepler")
        space = ParamSpace(spec, "s")
        seeds = transfer_seeds(space)
        assert seeds
        assert all(space.admissible(p) for p in seeds)
        # The first seed is the tuned winner of the closest neighbour
        # that ships a pretuned entry at this precision.
        for neighbour in nearest_devices("kepler", k=3):
            try:
                winner = pretuned_params(neighbour, "s")
            except KeyError:
                continue
            assert seeds[0] == winner
            break
        else:
            pytest.fail("no catalogued neighbour with a pretuned entry")

    def test_fallback_when_device_not_in_catalog(self, tahiti):
        from dataclasses import replace

        stranger = replace(tahiti, codename="prototype-gpu")
        space = ParamSpace(stranger, "s")
        assert transfer_seeds(space) == []
        # The engine runs fine without a neighbour: empty warm start.
        result = SearchEngine(
            stranger, "s", _quick("annealing", transfer=True)
        ).run()
        assert result.best.gflops > 0
        assert result.stats.strategy_transfer_seeds == 0

    def test_transfer_seeds_counted_in_stats(self):
        result = SearchEngine(
            "kepler", "s", _quick("annealing", transfer=True)
        ).run()
        assert result.stats.strategy_transfer_seeds > 0


class TestResume:
    @pytest.mark.parametrize("name", ["annealing", "surrogate"])
    def test_mid_search_resume_matches_uninterrupted(self, tmp_path, name):
        config = _quick(name)
        baseline = SearchEngine("tahiti", "d", config).run()

        ckpt = str(tmp_path / "ckpt.json")
        engine = SearchEngine("tahiti", "d", config, checkpoint_path=ckpt)
        engine.abort_after = 64
        with pytest.raises(SearchInterrupted):
            engine.run()
        payload = json.load(open(ckpt))
        assert payload["consumed"] >= 64  # legacy key retained
        assert payload["strategy_state"]["name"] == name

        resumed = SearchEngine(
            "tahiti", "d", config, checkpoint_path=ckpt, resume=True
        ).run()
        assert resumed.best.params == baseline.best.params
        assert resumed.best.gflops == baseline.best.gflops
        assert resumed.stats.resumed >= 64

    def test_checkpoint_fingerprint_separates_strategies(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        engine = SearchEngine("tahiti", "d", _quick("pso"), checkpoint_path=ckpt)
        engine.abort_after = 64
        with pytest.raises(SearchInterrupted):
            engine.run()
        # A different strategy must not adopt the pso checkpoint.
        other = SearchEngine(
            "tahiti", "d", _quick("annealing"), checkpoint_path=ckpt, resume=True
        )
        assert other._load_checkpoint() is None


class TestSurrogate:
    def _warm_cache(self, tmp_path):
        cache = MeasurementCache(str(tmp_path / "cache.json"))
        SearchEngine(
            "tahiti", "s",
            TuningConfig(budget=400, verify_finalists=1, top_k=8),
            cache=cache,
        ).run()
        cache.save()
        return cache

    def test_trained_from_warm_cache_ranks_cached_winner_on_top(self, tmp_path):
        cache = self._warm_cache(tmp_path)
        rows = cache.training_rows("tahiti", "s")
        assert len(rows) > 100
        measured = [(p, g) for p, g in rows if g is not None]
        truth = {p.cache_key(): g for p, g in measured}
        best_params, best_gflops = max(measured, key=lambda r: r[1])

        space = ParamSpace(get_device_spec("tahiti"), "s")
        st = make_strategy("surrogate", space, seed=0, budget=100, prior=rows)
        assert st.ensure_fitted()  # trained purely from the cache
        ranked = st.rank([p for p, _ in measured])
        # The forest smooths over bootstrap samples, so demand the robust
        # property: the cached winner sits at the very top of the
        # ranking, and the model's first pick is a near-winner.
        winner_rank = next(
            i for i, p in enumerate(ranked)
            if p.cache_key() == best_params.cache_key()
        )
        assert winner_rank <= max(5, len(measured) // 50)
        assert truth[ranked[0].cache_key()] >= 0.95 * best_gflops
        mean, _ = st.predict(best_params)
        assert mean == pytest.approx(best_gflops, rel=0.25)

    def test_cache_prior_costs_no_measurements(self, tmp_path):
        cache = self._warm_cache(tmp_path)
        engine = SearchEngine(
            "tahiti", "s",
            TuningConfig(
                budget=64, verify_finalists=1, top_k=8, strategy="surrogate"
            ),
            cache=cache,
        )
        strategy = engine._make_strategy()
        assert len(strategy.prior) > 100
        assert strategy.proposed == 0

    def test_early_stops_when_predicted_gain_flattens(self, tahiti):
        space = ParamSpace(
            tahiti, "s", SpaceRestrictions(power_of_two_only=True)
        )
        st = make_strategy(
            "surrogate", space, seed=1, budget=4000, min_train=16, patience=2
        )
        # A flat objective gives the model zero expected improvement
        # everywhere, so the strategy should give the budget back.
        proposed = _drive(st, lambda p: 100.0)
        assert st.early_stop_reason == "predicted gain flattened"
        assert proposed < 4000

    def test_importance_lands_in_stats_and_families(self):
        result = SearchEngine(
            "tahiti", "s",
            TuningConfig(
                budget=300, verify_finalists=1, top_k=8, strategy="surrogate"
            ),
        ).run()
        importance = result.stats.strategy_importance
        assert importance
        assert abs(sum(importance.values()) - 1.0) < 1e-6
        from repro.tuner.analysis import _FAMILIES

        assert set(importance) <= set(_FAMILIES)

    def test_importance_matches_paper_section_iii_claims(self):
        """The model should rediscover Section III/IV structure: the
        work-distribution parameters (blocking + work-group shape) and
        the local-memory family carry the bulk of the variance on
        Tahiti, where the paper credits LDS staging for SGEMM's jump
        (2646 -> 3047 GFlop/s)."""
        result = SearchEngine(
            "tahiti", "s",
            TuningConfig(
                budget=400, verify_finalists=1, top_k=8, strategy="surrogate"
            ),
        ).run()
        importance = result.stats.strategy_importance
        core = (
            importance.get("blocking", 0.0)
            + importance.get("workgroup shape", 0.0)
            + importance.get("local memory", 0.0)
        )
        assert core > 0.5
        assert importance.get("local memory", 0.0) > 0.0

    def test_surrogate_sensitivity_rows_scale_with_importance(self):
        from repro.tuner.analysis import surrogate_sensitivities

        rows = surrogate_sensitivities(
            {"blocking": 0.6, "local memory": 0.4}, reference=1000.0
        )
        assert [r.family for r in rows] == ["blocking", "local memory"]
        assert rows[0].loss(1000.0) == pytest.approx(0.6)
        assert rows[1].loss(1000.0) == pytest.approx(0.4)


class TestStatsAndRendering:
    def test_render_stats_includes_strategy_line(self):
        result = SearchEngine("tahiti", "d", _quick("annealing")).run()
        from repro.tuner.analysis import render_stats

        text = render_stats(result.stats)
        assert "strategy" in text
        assert "annealing" in text

    def test_strategy_metrics_mirrored(self):
        from repro.obs import Observability

        obs = Observability(seed=0)
        result = SearchEngine(
            "tahiti", "d", _quick("pso"), obs=obs
        ).run()
        mirror = obs.metrics.get("tuner_strategy_proposals_total")
        assert mirror is not None
        assert mirror.value == result.stats.strategy_proposals

    def test_record_provenance(self):
        from repro.tuner.results import TunedKernelRecord

        result = SearchEngine(
            "kepler", "s", _quick("surrogate", transfer=True)
        ).run()
        record = TunedKernelRecord.from_result(result)
        assert record.strategy == "surrogate"
        assert record.transferred
        legacy = TunedKernelRecord(
            device="tahiti", precision="s",
            params=record.params, gflops=1.0, size=64,
        )
        assert legacy.strategy == "exhaustive"
        assert not legacy.transferred


class TestEvaluatorDedup:
    def test_duplicate_tasks_collapse_to_one_evaluation(self, tahiti):
        from repro.tuner.parallel import CandidateEvaluator, EvalTask

        params = seed_candidates(tahiti, "s")[0]
        task = EvalTask(params, (1024, 1024, 1024))
        outcomes = CandidateEvaluator(tahiti).evaluate([task, task, task])
        assert len(outcomes) == 3
        assert outcomes[0] == outcomes[1] == outcomes[2]
