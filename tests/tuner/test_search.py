"""The staged search engine."""

import numpy as np
import pytest

from repro.codegen.algorithms import Algorithm
from repro.codegen.space import SpaceRestrictions
from repro.devices import get_device_spec
from repro.errors import LaunchError, TuningError, ValidationError
from repro.tuner import search
from repro.tuner.search import SearchEngine, TuningConfig, tune

from tests.conftest import make_params

QUICK = TuningConfig(budget=250, verify_finalists=1, top_k=8)


class TestBaseSize:
    def test_gpu_formula(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK)
        p = make_params(mwg=96, nwg=32, kwg=48)  # LCM = 96
        assert engine.base_size(p) == (4096 // 96) * 96  # paper's formula

    def test_cpu_formula(self, sandybridge):
        engine = SearchEngine(sandybridge, "d", QUICK)
        p = make_params(mwg=64, nwg=32, kwg=64)  # LCM = 64
        assert engine.base_size(p) == (1536 // 64) * 64

    def test_pipelined_minimum(self, tahiti):
        engine = SearchEngine(
            tahiti, "d",
            TuningConfig(budget=10, base_size_gpu=64),
        )
        p = make_params(algorithm=Algorithm.PL, shared_b=True, kwg=64,
                        kwi=2, mwg=64, nwg=64, mdimc=16, ndimc=16)
        # base would round to 64 = one Kwg; PL needs two.
        assert engine.base_size(p) >= 2 * p.kwg


class TestSweepSizes:
    def test_multiples_of_lcm_up_to_cap(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK)
        p = make_params(mwg=96, nwg=32, kwg=48)
        sizes = engine.sweep_sizes(p)
        assert all(n % p.lcm == 0 for n in sizes)
        assert max(sizes) <= QUICK.max_sweep_size
        assert sizes == sorted(set(sizes))


class TestMeasure:
    def test_measure_returns_positive_gflops(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK)
        assert engine.measure(make_params(), 64) > 0

    def test_measure_surfaces_quirk_failures(self, bulldozer):
        engine = SearchEngine(bulldozer, "d", QUICK)
        pl = make_params(algorithm=Algorithm.PL, shared_b=True)
        with pytest.raises(LaunchError):
            engine.measure(pl, 64)


class TestVerify:
    def test_verify_accepts_correct_kernel(self, tahiti):
        engine = SearchEngine(tahiti, "d", QUICK)
        engine.verify(make_params(), np.random.default_rng(0))

    def test_verify_rejects_corrupted_executor(self, tahiti, monkeypatch):
        """If the simulator computed garbage, the tuner must notice."""
        import repro.clsim.executor as executor

        original = executor._execute_fast

        def corrupt(plan, arrays, alpha, beta):
            original(plan, arrays, alpha, beta)
            arrays.c += 1.0  # inject a wrong result

        monkeypatch.setattr(executor, "_execute_fast", corrupt)
        monkeypatch.setattr(executor, "_execute_workgroups", corrupt)
        engine = SearchEngine(tahiti, "d", QUICK)
        with pytest.raises(ValidationError, match="wrong results"):
            engine.verify(make_params(), np.random.default_rng(0))


class TestRun:
    def test_run_produces_consistent_result(self, tahiti):
        result = SearchEngine(tahiti, "d", QUICK).run()
        assert result.device == "tahiti"
        assert result.precision == "d"
        assert result.best_gflops > 0
        assert result.best in result.finalists[:1] or result.best_gflops <= result.finalists[0].gflops
        assert result.stats.generated >= result.stats.measured
        assert result.best_series  # per-size sweep of the winner
        assert 0 < result.efficiency(tahiti) <= tahiti.model.boost_factor

    def test_run_is_deterministic(self, tahiti):
        a = SearchEngine(tahiti, "s", QUICK).run()
        b = SearchEngine(tahiti, "s", QUICK).run()
        assert a.best.params == b.best.params
        assert a.best.gflops == b.best.gflops

    def test_empty_quarantine_hashes_no_candidate(self, tahiti, monkeypatch):
        """Without a fault plan nothing is ever demoted, so the quarantine
        lookup never digests a candidate."""
        digests = []
        monkeypatch.setattr(search, "params_digest", digests.append)
        result = SearchEngine(tahiti, "d", QUICK).run()
        assert result.stats.measured > 0
        assert digests == []

    def test_bulldozer_counts_pl_dgemm_launch_failures(self, bulldozer):
        """The quirk shows up as launch failures without the static gate
        and as per-rule static rejects with it — same candidates, same
        winner, no measurement spent in the gated run."""
        cfg = TuningConfig(budget=500, verify_finalists=0)
        result = SearchEngine(bulldozer, "d", cfg, static_gate=False).run()
        assert result.stats.failed_launch > 0
        assert result.best.params.algorithm is not Algorithm.PL

        gated = SearchEngine(bulldozer, "d", cfg).run()
        assert gated.stats.failed_launch == 0
        assert gated.stats.static_rejects == result.stats.failed_launch
        assert gated.stats.static_rejects_by_rule == {
            "device.quirk-pl-dgemm": result.stats.failed_launch
        }
        assert gated.best.params == result.best.params

    def test_bulldozer_sgemm_has_no_launch_failures(self, bulldozer):
        cfg = TuningConfig(budget=500, verify_finalists=0)
        result = SearchEngine(bulldozer, "s", cfg).run()
        assert result.stats.failed_launch == 0

    def test_restrictions_are_respected(self, tahiti):
        restrictions = SpaceRestrictions(forced_algorithm=Algorithm.DB)
        result = tune(tahiti, "d", QUICK, restrictions)
        assert result.best.params.algorithm is Algorithm.DB
        for mk in result.finalists:
            assert mk.params.algorithm is Algorithm.DB

    def test_bigger_budget_never_hurts(self, tahiti):
        small = tune(tahiti, "d", TuningConfig(budget=100, verify_finalists=0))
        large = tune(tahiti, "d", TuningConfig(budget=1500, verify_finalists=0))
        assert large.best_gflops >= small.best_gflops * 0.999

    def test_invalid_precision_rejected(self, tahiti):
        with pytest.raises(TuningError, match="precision"):
            SearchEngine(tahiti, "x", QUICK)

    def test_device_name_resolution(self):
        result = tune("tahiti", "d", TuningConfig(budget=50, verify_finalists=0))
        assert result.device == "tahiti"

    def test_progress_callback_invoked(self, tahiti):
        calls = []
        tune(tahiti, "d", TuningConfig(budget=30, verify_finalists=0),
             progress=lambda i, mk: calls.append(i))
        assert len(calls) > 0
        assert calls == sorted(calls)
