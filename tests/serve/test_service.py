"""GemmService: admission, breakers, the ladder, and quarantine recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clsim.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import AdmissionError, InvalidBatchError, InvalidRequestError
from repro.gemm.reference import reference_gemm, relative_error
from repro.serve import (
    BreakerState, GemmCall, GemmService, IncidentLog, ServiceConfig,
)


def injector(seed, *rules):
    return FaultInjector(FaultPlan(seed=seed, rules=tuple(rules)))


@pytest.fixture
def problem(rng):
    a = rng.standard_normal((48, 32))
    b = rng.standard_normal((32, 40))
    return a, b


def batch_of(members):
    """Serve ``(a, b)`` as a batch of ``members`` identical requests."""
    def serve(service, a, b):
        return service.submit_batch([GemmCall(a, b)] * members)
    return serve


#: The request paths, each returning a list of results: a stand-alone
#: request, and 1- and 3-member batches (one logical tick each).
SERVE_PATHS = pytest.mark.parametrize(
    "serve",
    [lambda service, a, b: [service.submit(a, b)], batch_of(1), batch_of(3)],
    ids=["submit", "batch1", "batch3"],
)


class TestCleanPath:
    def test_clean_request_served_by_the_tuned_rung(self, problem):
        service = GemmService("tahiti", "d")
        a, b = problem
        result = service.submit(a, b, alpha=1.5)
        assert result.rung == "tuned"
        assert result.device == "tahiti"
        assert not result.degraded
        assert result.verified  # verify_rate defaults to 1.0
        expected = reference_gemm("N", "N", 1.5, a, b, 0.0)
        assert relative_error(result.c, expected) < 1e-12
        assert service.counters.served_by_rung == {"tuned": 1}

    def test_service_is_deterministic(self, problem):
        a, b = problem

        def run():
            service = GemmService("tahiti", "d")
            outs = [service.submit(a, b).c for _ in range(5)]
            return outs, service.counters.as_dict()

        outs1, counters1 = run()
        outs2, counters2 = run()
        assert counters1 == counters2
        for o1, o2 in zip(outs1, outs2):
            np.testing.assert_array_equal(o1, o2)

    def test_describe_mentions_the_ladder_and_breakers(self):
        service = GemmService("tahiti", "d")
        text = service.describe()
        assert "tuned" in text and "reference" in text
        assert "breaker[tahiti]" in text


class TestBetaZero:
    def test_nan_c_with_beta_zero_is_not_read(self, problem):
        # BLAS semantics: beta == 0 means C is never read, so a NaN-filled
        # C must neither poison the result nor be blamed on the kernel.
        service = GemmService("tahiti", "d")
        a, b = problem
        c = np.full((a.shape[0], b.shape[1]), np.nan)
        result = service.submit(a, b, c, alpha=1.5, beta=0.0)
        assert result.rung == "tuned"
        assert not result.degraded
        expected = reference_gemm("N", "N", 1.5, a, b, 0.0)
        assert relative_error(result.c, expected) < 1e-12
        assert service.counters.corruption_caught == 0
        assert service.counters.quarantined == 0
        assert service.quarantined == ()
        # The next clean request still lands on the tuned kernel.
        assert service.submit(a, b).rung == "tuned"


class TestNonFiniteOperands:
    def test_nan_operand_is_rejected_not_blamed_on_the_kernel(self, problem):
        service = GemmService("tahiti", "d")
        a, b = problem
        poisoned = a.copy()
        poisoned[3, 5] = np.nan
        with pytest.raises(InvalidRequestError) as exc:
            service.submit(poisoned, b)
        assert exc.value.argument == "a"
        assert service.counters.invalid == 1
        assert service.counters.corruption_caught == 0
        assert service.counters.quarantined == 0
        assert service.quarantined == ()
        # The next clean request still lands on the tuned kernel.
        result = service.submit(a, b)
        assert result.rung == "tuned"
        assert not result.degraded


class TestProductOverflow:
    def test_overflowing_product_is_not_blamed_on_the_kernel(self, rng):
        # Finite fp32 operands whose product overflows: every rung
        # honestly returns Inf, so verification must pass it instead of
        # quarantining the tuned kernel.
        service = GemmService("tahiti", "s")
        big = np.full((64, 64), 1e20, dtype=np.float32)
        with np.errstate(over="ignore"):
            result = service.submit(big, big)
        assert result.rung == "tuned"
        assert result.verified
        assert np.isinf(result.c).all()
        assert service.counters.corruption_caught == 0
        assert service.counters.quarantined == 0
        assert service.quarantined == ()
        a = rng.standard_normal((64, 64)).astype(np.float32)
        result = service.submit(a, a)
        assert result.rung == "tuned"
        assert not result.degraded


class TestAdmission:
    def test_backlog_overflow_sheds_with_a_typed_error(self, problem):
        config = ServiceConfig(max_backlog_s=0.0)
        service = GemmService("tahiti", "d", config=config)
        a, b = problem
        service.submit(a, b, arrival_dt_s=0.0)  # leaves a non-zero backlog
        with pytest.raises(AdmissionError):
            service.submit(a, b, arrival_dt_s=0.0)
        assert service.counters.shed == 1
        assert service.log.by_kind("shed")
        # Draining the backlog (a quiet period) re-admits traffic.
        result = service.submit(a, b, arrival_dt_s=10.0)
        assert result.rung == "tuned"

    def test_refused_batches_do_not_advance_the_tick(self, problem):
        # The tick drives breaker cool-downs and the canary schedule; a
        # batch refused before serving must leave it where it was.
        service = GemmService("tahiti", "d")
        a, b = problem
        with pytest.raises(InvalidBatchError, match="empty batch"):
            service.submit_batch([])
        for ids in ([7], [7, 8, 9]):
            with pytest.raises(InvalidBatchError, match="request ids"):
                service.submit_batch([GemmCall(a, b)] * 2, request_ids=ids)
        assert service._tick == 0


class TestBreakers:
    @SERVE_PATHS
    def test_persistent_launch_failure_trips_the_device_breaker(
            self, problem, serve):
        config = ServiceConfig(
            breaker_failure_threshold=3, breaker_cooldown=5,
            breaker_probe_successes=2,
        )
        service = GemmService(
            "tahiti", "d", config=config,
            fault_injector=injector(3, FaultRule(kind="launch", rate=1.0)),
        )
        a, b = problem
        # Request 1: tuned and direct both fail (2 failures); request 2's
        # first failure reaches the threshold and trips the breaker.  A
        # batch launch is one attempt, whatever its size.
        r1 = serve(service, a, b)
        r2 = serve(service, a, b)
        assert {r.rung for r in r1 + r2} == {"reference"}
        expected = reference_gemm("N", "N", 1.0, a, b, 0.0)
        for r in r2:
            assert relative_error(r.c, expected) < 1e-12
        assert service.breakers["tahiti"].state is BreakerState.OPEN
        assert service.counters.breaker_trips == 1
        assert len(service.log.by_kind("breaker_trip")) == 1
        # While open, device rungs are skipped without being attempted.
        for r in serve(service, a, b):
            assert any("circuit breaker open" in why
                       for _, why in r.degradations)

    @SERVE_PATHS
    def test_breaker_recovers_once_the_device_heals(self, problem, serve):
        config = ServiceConfig(
            breaker_failure_threshold=2, breaker_cooldown=3,
            breaker_probe_successes=2,
        )
        service = GemmService(
            "tahiti", "d", config=config,
            fault_injector=injector(3, FaultRule(kind="launch", rate=1.0)),
        )
        a, b = problem
        serve(service, a, b)  # trips at the second rung failure
        assert service.breakers["tahiti"].state is BreakerState.OPEN
        service.fault_injector = None  # the fault storm ends
        while service.breakers["tahiti"].state is not BreakerState.CLOSED:
            results = serve(service, a, b)
        assert {r.rung for r in results} == {"tuned"}
        # The incident log explains the recovery: one probe, one close.
        assert len(service.log.by_kind("breaker_probe")) == 1
        assert len(service.log.by_kind("breaker_close")) == 1


class TestQuarantineLifecycle:
    def test_corruption_quarantine_canary_readmission(self, problem):
        config = ServiceConfig(canary_interval=10, canary_passes=2)
        service = GemmService(
            "tahiti", "d", config=config,
            fault_injector=injector(3, FaultRule(kind="result", rate=1.0)),
        )
        a, b = problem
        expected = reference_gemm("N", "N", 1.0, a, b, 0.0)

        # Every device rung silently corrupts; Freivalds catches each,
        # quarantines the rung, and the reference rung serves the answer.
        result = service.submit(a, b)
        assert result.rung == "reference"
        assert relative_error(result.c, expected) < 1e-12
        assert service.counters.corruption_caught == 2
        assert service.quarantined == ("tahiti:direct", "tahiti:tuned")
        assert len(service.log.by_kind("quarantine")) == 2

        # While quarantined, requests keep landing on the reference rung.
        assert service.submit(a, b).rung == "reference"

        # The corruption clears; canaries at ticks 10 and 20 must each
        # pass before the kernels are trusted again (canary_passes=2).
        service.fault_injector = None
        for _ in range(service._tick, 19):
            assert service.submit(a, b).rung == "reference"
        result = service.submit(a, b)  # tick 20: canaries re-admit first
        assert service.quarantined == ()
        assert result.rung == "tuned"
        assert service.counters.readmitted == 2
        assert service.counters.canaries_run == 4
        assert len(service.log.by_kind("canary_pass")) == 4
        assert len(service.log.by_kind("readmit")) == 2

    def test_corrupt_batch_member_is_reserved_below(self, problem):
        # Result faults roll per kernel launch and each batch member is
        # its own launch, so a low rate corrupts some members of one
        # batch and spares the others.
        service = GemmService(
            "tahiti", "d",
            fault_injector=injector(0, FaultRule(kind="result", rate=0.4)),
        )
        a, b = problem
        expected = reference_gemm("N", "N", 1.0, a, b, 0.0)
        results = service.submit_batch([GemmCall(a, b)] * 3,
                                       request_ids=[1, 2, 3])
        rungs = [r.rung for r in results]
        assert "tuned" in rungs and rungs != ["tuned"] * 3
        for r in results:
            assert relative_error(r.c, expected) < 1e-12
            assert r.batch_size == 3
        corrupt = [r for r in results if r.rung != "tuned"]
        # Each corrupt member was caught, blamed on the tuned rung, and
        # re-served by a rung below it; the clean members kept tuned.
        assert service.counters.corruption_caught >= len(corrupt)
        assert "tahiti:tuned" in service.quarantined
        for r in corrupt:
            assert r.degraded
            assert r.degradations[0] == (
                "tahiti:tuned", "result corruption caught; re-serving")
            assert any(i.request_id == r.request_id
                       and i.rung == "tuned"
                       for i in service.log.by_kind("corruption"))
        for r in results:
            if r.rung == "tuned":
                assert r.verified and not r.degraded

    def test_failing_canaries_keep_the_kernel_quarantined(self, problem):
        config = ServiceConfig(canary_interval=5, canary_passes=2)
        service = GemmService(
            "tahiti", "d", config=config,
            fault_injector=injector(3, FaultRule(kind="result", rate=1.0)),
        )
        a, b = problem
        for _ in range(12):  # crosses two canary intervals, still corrupt
            assert service.submit(a, b).rung == "reference"
        assert service.quarantined == ("tahiti:direct", "tahiti:tuned")
        assert service.counters.readmitted == 0
        assert service.log.by_kind("canary_fail")


class TestIncidentLogPersistence:
    def test_round_trip(self, tmp_path):
        log = IncidentLog()
        log.record(1, "shed", detail="backlog")
        log.record(2, "quarantine", device="tahiti", rung="tuned")
        path = str(tmp_path / "incidents.json")
        log.save(path)
        loaded = IncidentLog.load(path)
        assert loaded is not None
        assert [i.to_dict() for i in loaded] == [i.to_dict() for i in log]
        assert loaded.kind_counts() == {"shed": 1, "quarantine": 1}

    def test_corrupt_file_loads_as_none(self, tmp_path):
        path = tmp_path / "incidents.json"
        path.write_text("{not json")
        assert IncidentLog.load(str(path)) is None

    def test_unknown_kind_is_rejected(self):
        log = IncidentLog()
        with pytest.raises(ValueError):
            log.record(1, "mystery")
