"""Retry, watchdog, robust aggregation, and quarantine policies."""

import functools
import time

import pytest

from repro.clsim.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import MeasurementTimeout, TransientError
from repro.tuner.parallel import EvalTask, evaluate_candidate
from repro.tuner.resilience import (
    Quarantine,
    ResilienceConfig,
    call_with_timeout,
    robust_aggregate,
    run_with_retry,
)

from tests.conftest import make_params

FAST = ResilienceConfig(backoff_s=0.0)


class TestRunWithRetry:
    def test_returns_first_success(self):
        calls = []
        result = run_with_retry(lambda a: calls.append(a) or 42, FAST)
        assert result == 42
        assert calls == [0]

    def test_retries_transient_until_clean(self):
        def flaky(attempt):
            if attempt < 2:
                raise TransientError("flake", fault_kind="launch")
            return "ok"

        absorbed = []
        assert run_with_retry(flaky, FAST, on_fault=absorbed.append) == "ok"
        assert absorbed == ["launch", "launch"]

    def test_exhausted_budget_propagates(self):
        def always(attempt):
            raise TransientError("flake", fault_kind="build")

        absorbed = []
        with pytest.raises(TransientError):
            run_with_retry(always, FAST, on_fault=absorbed.append)
        # max_retries=2 -> 3 attempts, every fault observed incl. the last.
        assert absorbed == ["build"] * 3

    def test_non_transient_errors_pass_straight_through(self):
        with pytest.raises(ValueError):
            run_with_retry(lambda a: (_ for _ in ()).throw(ValueError()), FAST)


class TestWatchdog:
    def test_none_timeout_runs_inline(self):
        assert call_with_timeout(lambda: 7, None) == 7

    def test_fast_call_passes(self):
        assert call_with_timeout(lambda: 7, 5.0) == 7

    def test_hang_is_killed(self):
        with pytest.raises(MeasurementTimeout):
            call_with_timeout(lambda: time.sleep(2.0), 0.05)

    def test_inner_exception_propagates(self):
        def boom():
            raise TransientError("inner")

        with pytest.raises(TransientError):
            call_with_timeout(boom, 5.0)


class TestRobustAggregate:
    def test_identical_samples_return_exact_value(self):
        # A plain mean is not exact here: sum([0.1] * 3) / 3 != 0.1.
        for value in (123.456, 0.1):
            rate, outliers = robust_aggregate([value] * 3)
            assert rate == value
            assert outliers == 0

    def test_single_spike_is_rejected(self):
        # A timing spike multiplies time by 8x -> divides the rate by 8.
        rate, outliers = robust_aggregate([100.0, 100.0, 100.0 / 8])
        assert rate == 100.0
        assert outliers == 1

    def test_mild_jitter_is_averaged(self):
        rate, outliers = robust_aggregate([99.0, 100.0, 101.0])
        assert rate == pytest.approx(100.0)
        assert outliers == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            robust_aggregate([])


class TestQuarantine:
    def test_demote_and_membership(self):
        q = Quarantine()
        assert "abc" not in q
        assert q.demote("abc")
        assert "abc" in q
        assert len(q) == 1
        # Re-demoting is idempotent and reports "not new".
        assert not q.demote("abc")
        assert len(q) == 1


def _plan(**rule_overrides) -> FaultInjector:
    defaults = dict(kind="build", rate=1.0)
    defaults.update(rule_overrides)
    return FaultInjector(FaultPlan(seed=1, rules=(FaultRule(**defaults),)))


@functools.lru_cache(maxsize=None)
def _sampled_candidates():
    """Every 12th of 600 enumerated tahiti/s candidates: 50 kernels."""
    from repro.codegen.space import enumerate_space
    from repro.devices.catalog import get_device_spec

    space = enumerate_space(get_device_spec("tahiti"), "s", limit=600, seed=3)
    return list(space)[::12]


class TestResilientEvaluation:
    """evaluate_candidate owns one candidate's failure story."""

    def _task(self, tahiti):
        p = make_params()
        return EvalTask(p, (64, 64, 64))

    @pytest.mark.parametrize("index", range(50))
    def test_clean_run_matches_plain_measurement(self, tahiti, index):
        task = EvalTask(_sampled_candidates()[index], (1024, 1024, 1024))
        plain = evaluate_candidate(tahiti, task)
        resilient = evaluate_candidate(tahiti, task, True, None, FAST)
        assert resilient.gflops == plain.gflops
        assert resilient.retries == 0 and resilient.faults == ()

    def test_transient_faults_retry_to_the_clean_value(self, tahiti):
        task = self._task(tahiti)
        clean = evaluate_candidate(tahiti, task, True, None, FAST)
        # 60% transient build faults: some attempts flake, retry recovers,
        # and the final rate equals the fault-free one exactly.
        inj = _plan(rate=0.6)
        out = evaluate_candidate(
            tahiti, task, True, inj,
            ResilienceConfig(max_retries=10, backoff_s=0.0),
        )
        assert out.ok
        assert out.gflops == clean.gflops
        if out.retries:
            assert set(out.faults) == {"build"}

    def test_exhausted_transient_budget_is_flagged_injected(self, tahiti):
        out = evaluate_candidate(
            tahiti, self._task(tahiti), True, _plan(rate=1.0), FAST
        )
        assert out.failure == "transient"
        assert out.injected
        assert out.retries == FAST.max_retries
        assert out.faults == ("build",) * (FAST.max_retries + 1)

    def test_persistent_build_fault_carries_log(self, tahiti):
        out = evaluate_candidate(
            tahiti, self._task(tahiti), True,
            _plan(rate=1.0, transient=False), FAST,
        )
        assert out.failure == "build"
        assert out.injected
        assert "fault plan" in out.build_log

    def test_hang_is_killed_and_counted_as_timeout(self, tahiti):
        inj = _plan(kind="hang", rate=1.0, hang_seconds=0.5)
        config = ResilienceConfig(
            max_retries=1, backoff_s=0.0, measure_timeout_s=0.05
        )
        t0 = time.perf_counter()
        out = evaluate_candidate(
            tahiti, self._task(tahiti), True, inj, config
        )
        assert out.failure == "timeout"
        assert out.injected
        # The watchdog cut both attempts short of the 0.5 s hangs.
        assert time.perf_counter() - t0 < 0.5

    def test_timing_spikes_rejected_as_outliers(self, tahiti):
        task = self._task(tahiti)
        clean = evaluate_candidate(tahiti, task, True, None, FAST)
        inj = _plan(kind="timing", rate=0.3, magnitude=8.0)
        config = ResilienceConfig(backoff_s=0.0, samples=5)
        out = evaluate_candidate(tahiti, task, True, inj, config)
        assert out.ok
        # Spiked samples were discarded, not averaged in: as long as a
        # majority of the 5 samples is clean the rate is exact.
        if out.faults:
            assert set(out.faults) == {"timing"}
            assert out.gflops == clean.gflops


class TestLockOrderUnderParallelEvaluation:
    def test_threaded_evaluator_has_no_lock_inversions(self, tahiti):
        """Dynamic witness for the `host.lock.order` static rule: a
        threaded batch evaluation (pool creation, shared-cache access,
        quarantine updates) acquires repro locks in one global order."""
        from repro.testing.sanitize import LockOrderRecorder
        from repro.tuner.parallel import CandidateEvaluator

        recorder = LockOrderRecorder()
        with recorder:
            tasks = [
                EvalTask(make_params(), (64, 64, 64)),
                EvalTask(make_params(mwg=32), (64, 64, 64)),
                EvalTask(make_params(nwg=32), (64, 64, 64)),
            ]
            with CandidateEvaluator(tahiti, workers=2,
                                    injector=_plan(rate=0.3)) as ev:
                outcomes = ev.evaluate(tasks)
        assert len(outcomes) == len(tasks)
        recorder.assert_consistent()
