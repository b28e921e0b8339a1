"""Async scheduler: fairness, coalescing identity, deadlines, drain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clsim.faults import CANNED_PLANS, FaultInjector
from repro.errors import AdmissionError, InvalidRequestError, ReproError
from repro.gemm.multidev import MultiDeviceGemm
from repro.gemm.routine import GemmRoutine
from repro.obs import Observability
from repro.serve import GemmService, ServiceConfig
from repro.serve.breaker import BreakerState
from repro.serve.sched import (
    AsyncScheduler,
    FairQueue,
    QueuedRequest,
    SchedulerConfig,
    TenantConfig,
)

from tests.conftest import make_params


def small_service(**config_kw):
    """One-device service with explicit params (for bitwise identity)."""
    return GemmService(
        "tahiti", "d", config=ServiceConfig(**config_kw),
        params={"tahiti": make_params()},
    )


def make_request(rid, tenant, predicted_s=1.0):
    return QueuedRequest(
        rid=rid, tenant=tenant, call=None, arrival_s=0.0, enqueued_s=0.0,
        predicted_s=predicted_s, finish_tag=0.0,
    )


class TestTenantConfig:
    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="weight"):
            TenantConfig("t", weight=0.0)

    def test_capacity_must_hold_one(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            TenantConfig("t", queue_capacity=0)

    def test_duplicate_tenants_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FairQueue([TenantConfig("t"), TenantConfig("t")])

    def test_at_least_one_tenant(self):
        with pytest.raises(ValueError, match="at least one"):
            FairQueue([])


class TestFairQueueSFQ:
    def test_weighted_share_under_symmetric_backlog(self):
        # A weight-3 tenant backlogged against a weight-1 tenant gets
        # three quarters of the dispatches.
        fq = FairQueue([TenantConfig("a", weight=3.0), TenantConfig("b")])
        for i in range(40):
            fq.admit("a", make_request(i, "a"))
            fq.admit("b", make_request(100 + i, "b"))
        picks = [fq.select().tenant for _ in range(40)]
        assert picks.count("a") == 30
        assert picks.count("b") == 10

    def test_equal_weights_interleave(self):
        fq = FairQueue([TenantConfig("a"), TenantConfig("b")])
        for i in range(6):
            fq.admit("a", make_request(i, "a"))
            fq.admit("b", make_request(100 + i, "b"))
        picks = [fq.select().tenant for _ in range(12)]
        # Never more than two consecutive dispatches from one tenant.
        for i in range(len(picks) - 2):
            assert len(set(picks[i:i + 3])) > 1

    def test_idle_tenant_cannot_bank_credit(self):
        # b stays idle while a consumes service; when b arrives its tag
        # starts at the current virtual time, not at zero.
        fq = FairQueue([TenantConfig("a"), TenantConfig("b")])
        for i in range(10):
            fq.admit("a", make_request(i, "a"))
        for _ in range(9):
            fq.select()
        fq.admit("b", make_request(99, "b"))
        assert fq["b"].queue[0].finish_tag >= fq.vtime

    def test_retry_after_scales_with_share(self):
        fq = FairQueue([TenantConfig("a", weight=1.0),
                        TenantConfig("b", weight=1.0)])
        fq.admit("a", make_request(1, "a", predicted_s=1.0))
        fq.admit("b", make_request(2, "b", predicted_s=1.0))
        # Two equal-weight backlogged tenants: each owns half the drain
        # rate, so the head request clears in ~2x its service time.
        assert fq.retry_after_s("a") == pytest.approx(2.0)


class TestCoalescingIdentity:
    def test_batch_members_bitwise_identical_to_standalone(self, rng):
        # The acceptance property behind coalescing: a request served
        # inside a coalesced batch returns the *bit-identical* matrix a
        # stand-alone GemmRoutine call would have produced — including
        # members that mix transposes, alphas, and betas.
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("x"),
                                         TenantConfig("y")])
        members = [
            # (a, b, c, alpha, beta, transa, transb) — all (32, 48, 16)
            (rng.standard_normal((32, 16)),
             rng.standard_normal((16, 48)), None, 1.0, 0.0, "N", "N"),
            (rng.standard_normal((16, 32)),
             rng.standard_normal((16, 48)), None, 2.5, 0.0, "T", "N"),
            (rng.standard_normal((32, 16)),
             rng.standard_normal((48, 16)),
             rng.standard_normal((32, 48)), 1.0, 0.7, "N", "T"),
            (rng.standard_normal((16, 32)),
             rng.standard_normal((48, 16)),
             rng.standard_normal((32, 48)), -1.25, 0.5, "T", "T"),
        ]
        tickets = [
            sched.submit("x" if i % 2 else "y", a, b, c, alpha=alpha,
                         beta=beta, transa=ta, transb=tb, arrival_s=0.0)
            for i, (a, b, c, alpha, beta, ta, tb) in enumerate(members)
        ]
        sched.pump()
        assert [t.batch_size for t in tickets] == [4, 4, 4, 4]
        routine = GemmRoutine("tahiti", make_params(),
                              measurement_noise=False)
        for ticket, (a, b, c, alpha, beta, ta, tb) in zip(tickets, members):
            standalone = routine(a, b, c, alpha=alpha, beta=beta,
                                 transa=ta, transb=tb)
            assert np.array_equal(ticket.result.c, standalone.c)

    def test_large_requests_are_not_coalesced(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("x")],
                               SchedulerConfig(shard=False))
        big = [sched.submit("x", rng.standard_normal((160, 160)),
                            rng.standard_normal((160, 160)), arrival_s=0.0)
               for _ in range(3)]
        sched.pump()
        assert all(t.batch_size == 1 for t in big)


class TestFairnessUnderSkew:
    def test_no_starvation_under_ten_to_one_skew(self, rng):
        # The issue's property test: one tenant offering 10x the load
        # of another must not starve it.  The light tenant's requests
        # all complete even though the heavy tenant keeps every queue
        # slot it can grab occupied for the whole run.
        service = small_service()
        sched = AsyncScheduler(
            service,
            [TenantConfig("heavy", queue_capacity=48, shed_retries=0),
             TenantConfig("light", queue_capacity=48, shed_retries=0)],
            SchedulerConfig(coalesce=False, shard=False, hedge=False),
        )
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        for i in range(150):  # heavy: 10x the requests, 10x the rate
            sched.submit("heavy", a, b, arrival_s=i * 1e-5)
        for i in range(15):
            sched.submit("light", a, b, arrival_s=i * 1e-4)
        sched.pump()
        heavy, light = sched.queues["heavy"], sched.queues["light"]
        assert light.served == light.submitted == 15
        assert light.hard_shed == 0
        assert heavy.served > 0
        # Fair queueing kept the light tenant's tail short: it never
        # waits behind more than its fair share of the heavy backlog.
        assert max(light.latencies_s) <= max(heavy.latencies_s)


class TestShedAccounting:
    def test_shed_then_retried_counts_separately(self, rng):
        # Requests that were shed but eventually served land in
        # shed_retried; nothing shows up in hard_shed and nothing is
        # double-counted.
        service = small_service()
        sched = AsyncScheduler(
            service,
            [TenantConfig("t", queue_capacity=1, shed_retries=1)],
            SchedulerConfig(coalesce=False),
        )
        a = rng.standard_normal((24, 24))
        tickets = [sched.submit("t", a, a, arrival_s=0.0) for _ in range(3)]
        sched.pump()
        state = sched.queues["t"]
        # Capacity 1: request 1 serves, 2 and 3 shed at t=0 and retry;
        # at the retry instant only one slot is free, so request 2 is
        # re-admitted (shed -> retried -> served) while request 3 burns
        # its single retry and hard-sheds.
        assert sorted(t.status for t in tickets) == ["served", "served",
                                                     "shed"]
        assert state.served == 2
        assert state.shed_events == 3
        assert state.shed_retried == 1
        assert state.hard_shed == 1
        assert service.counters.shed == 3
        assert service.counters.shed_retried == 1
        served_after_shed = [t for t in tickets
                             if t.status == "served" and t.sheds > 0]
        assert len(served_after_shed) == 1
        hard = next(t for t in tickets if t.status == "shed")
        assert hard.sheds == 2
        # No double counting across the terminal buckets.
        assert state.served + state.hard_shed + state.cancelled == 3

    def test_out_of_retries_is_a_hard_shed(self, rng):
        service = small_service()
        sched = AsyncScheduler(
            service,
            [TenantConfig("t", queue_capacity=1, shed_retries=0)],
            SchedulerConfig(coalesce=False),
        )
        a = rng.standard_normal((24, 24))
        tickets = [sched.submit("t", a, a, arrival_s=0.0) for _ in range(3)]
        sched.pump()
        state = sched.queues["t"]
        statuses = sorted(t.status for t in tickets)
        assert statuses == ["served", "shed", "shed"]
        assert state.hard_shed == 2
        assert state.shed_retried == 0
        assert service.counters.shed_retried == 0
        shed = [t for t in tickets if t.status == "shed"]
        assert all(t.retry_after_s > 0 for t in shed)
        # Terminal accounting is exhaustive: every submission is
        # exactly one of served / hard-shed / cancelled.
        assert state.served + state.hard_shed + state.cancelled == 3


class TestDeadlines:
    def test_hopeless_deadline_cancelled_not_dispatched(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a = rng.standard_normal((64, 64))
        ticket = sched.submit("t", a, a, deadline_s=1e-12, arrival_s=0.0)
        sched.pump()
        assert ticket.status == "cancelled"
        assert ticket.result is None
        assert service.counters.cancelled == 1
        assert service.counters.completed == 0
        assert "deadline_cancel" in {i.kind for i in service.log}

    def test_tenant_default_deadline_applies(self, rng):
        service = small_service()
        sched = AsyncScheduler(
            service, [TenantConfig("t", deadline_s=1e-12)]
        )
        a = rng.standard_normal((64, 64))
        ticket = sched.submit("t", a, a, arrival_s=0.0)
        sched.pump()
        assert ticket.status == "cancelled"

    def test_feasible_deadline_served(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a = rng.standard_normal((64, 64))
        ticket = sched.submit("t", a, a, deadline_s=10.0, arrival_s=0.0)
        sched.pump()
        assert ticket.status == "served"
        assert not ticket.result.deadline_missed


class TestHedging:
    def test_degraded_serve_against_half_open_breaker_hedges(self, rng):
        service = small_service()
        sched = AsyncScheduler(service,
                               [TenantConfig("t", hedge_budget=1)],
                               SchedulerConfig(coalesce=False))
        # Arrange the risky window by hand: the device breaker is
        # half-open and the tuned kernel is quarantined, so the serve
        # degrades to the direct rung.
        service.breakers["tahiti"].state = BreakerState.HALF_OPEN
        tuned = next(r for r in service.ladder.rungs if r.name == "tuned")
        service._quarantine(tuned, -1)
        a = rng.standard_normal((48, 48))
        t1 = sched.submit("t", a, a, arrival_s=0.0)
        t2 = sched.submit("t", a, a, arrival_s=0.0)
        sched.pump()
        # One hedge fired, then the budget was exhausted.
        assert service.counters.hedges == 1
        assert t1.hedged and not t2.hedged
        assert sched.queues["t"].hedges_left == 0
        assert "hedge" in {i.kind for i in service.log}

    def test_no_hedge_when_breakers_closed(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a = rng.standard_normal((48, 48))
        ticket = sched.submit("t", a, a, arrival_s=0.0)
        sched.pump()
        assert service.counters.hedges == 0
        assert not ticket.hedged


class TestSharding:
    def test_large_nn_request_sharded_across_the_fleet(self, rng):
        service = GemmService(["tahiti", "cypress"], "d")
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a = rng.standard_normal((320, 64))
        b = rng.standard_normal((64, 320))
        ticket = sched.submit("t", a, b, arrival_s=0.0)
        sched.pump()
        assert ticket.sharded
        assert ticket.result.rung == "sharded"
        assert ticket.result.device == "fleet"
        assert np.max(np.abs(ticket.result.c - a @ b)) < 1e-10
        assert service.counters.sharded == 1
        assert service.counters.requests == 1
        assert service.counters.completed == 1

    def test_transposed_large_requests_take_the_ladder(self, rng):
        service = GemmService(["tahiti", "cypress"], "d")
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a = rng.standard_normal((64, 320))
        ticket = sched.submit("t", a, rng.standard_normal((64, 320)),
                              transa="T", arrival_s=0.0)
        sched.pump()
        assert not ticket.sharded
        assert ticket.result.rung != "sharded"

    def test_single_device_service_never_shards(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        assert service.fleet is None
        a = rng.standard_normal((320, 320))
        ticket = sched.submit("t", a, a, arrival_s=0.0)
        sched.pump()
        assert not ticket.sharded

    def test_hot_swap_reaches_the_shard_fleet(self, rng):
        service = GemmService(["tahiti", "cypress"], "d")
        sched = AsyncScheduler(service, [TenantConfig("t")])
        shipped = service.ladder.primary_rung("tahiti").params
        swapped = make_params(mwg=32, nwg=32, mdimc=8, ndimc=8)
        assert swapped != shipped
        before = [s.codename for s in service.fleet.specs]
        sched.request_hot_swap("tahiti", swapped)
        a = rng.standard_normal((320, 64))
        b = rng.standard_normal((64, 320))
        ticket = sched.submit("t", a, b, arrival_s=0.0)
        sched.pump()
        assert ticket.sharded
        assert service.fleet.routines["tahiti"].params == swapped
        assert [s.codename for s in service.fleet.specs] == before
        # The tahiti share ran the swapped kernel: the sharded time is
        # the time of a fleet built around it, not of the shipped one.
        fresh = {
            p: MultiDeviceGemm(before, "d", {"tahiti": p},
                               measurement_noise=False)(a, b).wall_seconds
            for p in (shipped, swapped)
        }
        assert fresh[shipped] != fresh[swapped]
        assert ticket.result.service_s == fresh[swapped]

    def test_sharded_requests_reach_the_latency_histograms(self, rng):
        service = GemmService(["tahiti", "cypress"], "d",
                              obs=Observability(seed=0))
        sched = AsyncScheduler(service, [TenantConfig("t")])
        big = rng.standard_normal((320, 320))
        small = rng.standard_normal((48, 48))
        tickets = [sched.submit("t", big, big, arrival_s=0.0)
                   for _ in range(3)]
        tickets.append(sched.submit("t", small, small, arrival_s=0.0))
        sched.pump()
        assert [t.sharded for t in tickets] == [True, True, True, False]
        completed = service.counters.completed
        assert completed == 4
        for name in ("serve_service_seconds", "serve_queue_wait_seconds"):
            assert service.obs.metrics.get(name).count == completed
        assert service.obs.metrics.get("serve_service_seconds").sum == sum(
            t.result.service_s for t in tickets)

    def test_membership_changes_reach_the_shard_fleet(self):
        service = GemmService(["tahiti", "cypress", "cayman"], "d")
        AsyncScheduler(service, [TenantConfig("t")])

        def members():
            return [s.codename for s in service.fleet.specs]

        assert members() == ["tahiti", "cypress", "cayman"]
        service.suspend_device("tahiti")
        assert members() == ["cypress", "cayman"]
        # A resumed device rejoins in ladder order: after the incumbents.
        service.resume_device("tahiti")
        assert members() == list(service.serving_devices)
        assert members() == ["cypress", "cayman", "tahiti"]
        service.suspend_device("cayman")
        service.retire_device("cayman")
        service.retire_device("cypress")
        assert members() == ["tahiti"]
        service.admit_device("cypress")
        assert members() == ["tahiti", "cypress"]
        assert members() == list(service.serving_devices)


class TestHotSwap:
    def test_swap_applies_at_a_dispatch_boundary(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        better = make_params(mwg=32, nwg=32, mdimc=8, ndimc=8)
        sched.request_hot_swap("tahiti", better)
        a = rng.standard_normal((64, 64))
        ticket = sched.submit("t", a, a, arrival_s=0.0)
        sched.pump()
        assert ticket.status == "served"
        assert service.counters.hot_swaps == 1
        tuned = next(r for r in service.ladder.rungs if r.name == "tuned")
        assert tuned.params == better

    def test_statically_refused_swap_keeps_the_old_kernel(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        old = next(r for r in service.ladder.rungs
                   if r.name == "tuned").params
        # Constructible but provably unsafe on tahiti: the shared tiles
        # overflow the device's local memory.
        sched.request_hot_swap(
            "tahiti",
            make_params(shared_a=True, shared_b=True, mwg=128, nwg=128,
                        kwg=64, mdimc=16, ndimc=16),
        )
        a = rng.standard_normal((64, 64))
        ticket = sched.submit("t", a, a, arrival_s=0.0)
        sched.pump()
        assert ticket.status == "served"
        assert service.counters.hot_swaps == 0
        assert len(sched.swap_errors) == 1
        assert sched.swap_errors[0][0] == "tahiti"
        tuned = next(r for r in service.ladder.rungs if r.name == "tuned")
        assert tuned.params == old


class TestDrainAndValidation:
    def test_drain_completes_queued_work_then_refuses(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a = rng.standard_normal((32, 32))
        tickets = [sched.submit("t", a, a, arrival_s=i * 1e-5)
                   for i in range(5)]
        outcomes = sched.drain()
        assert all(t.done for t in tickets)
        assert outcomes.get("served") == 5
        assert sum(outcomes.values()) == len(sched.tickets)
        with pytest.raises(AdmissionError, match="draining"):
            sched.submit("t", a, a)

    def test_unknown_tenant_rejected(self, rng):
        sched = AsyncScheduler(small_service(), [TenantConfig("t")])
        a = rng.standard_normal((8, 8))
        with pytest.raises(ReproError, match="unknown tenant"):
            sched.submit("nope", a, a)

    def test_invalid_request_never_queued(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        with pytest.raises(InvalidRequestError):
            sched.submit("t", rng.standard_normal((8, 4)),
                         rng.standard_normal((8, 8)))
        assert service.counters.invalid == 1
        assert sched.queues["t"].invalid == 1
        assert sched.queues.queued == 0

    def test_nan_operand_rejected_before_any_kernel_runs(self, rng):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")])
        a, b = rng.standard_normal((16, 8)), rng.standard_normal((8, 12))
        poisoned = a.copy()
        poisoned[0, 0] = np.nan
        with pytest.raises(InvalidRequestError) as exc:
            sched.submit("t", poisoned, b)
        assert exc.value.argument == "a"
        assert sched.queues.queued == 0
        ticket = sched.submit("t", a, b)
        sched.drain()
        assert ticket.status == "served"
        assert ticket.result.rung == "tuned"
        assert service.counters.quarantined == 0
        assert service.counters.corruption_caught == 0

    def test_fp32_overflow_rejected_at_submit_not_dispatch(self, rng):
        # A finite fp64 operand that overflows fp32 becomes Inf in the
        # service's dtype: it must be refused at submit, so dispatch
        # (which may co-batch it with other tenants) never sees it.
        service = GemmService(
            "tahiti", "s", params={"tahiti": make_params(precision="s")},
        )
        sched = AsyncScheduler(service, [TenantConfig("x"), TenantConfig("y"),
                                         TenantConfig("z")])
        a, b = rng.standard_normal((16, 8)), rng.standard_normal((8, 12))
        with pytest.raises(InvalidRequestError) as exc:
            sched.submit("x", np.full((16, 8), 1e39), b)
        assert exc.value.argument == "a"
        with pytest.raises(InvalidRequestError) as exc:
            sched.submit("x", a, np.full((8, 12), -1e39))
        assert exc.value.argument == "b"
        assert sched.queues.queued == 0
        tickets = [sched.submit(t, a, b) for t in ("x", "y", "z")]
        outcomes = sched.drain()
        assert outcomes == {"served": 3}
        assert [t.result.rung for t in tickets] == ["tuned"] * 3
        assert service.counters.invalid == 2
        assert service.counters.quarantined == 0

    def test_fp32_product_overflow_is_served_by_the_tuned_kernel(self, rng):
        # Finite fp32 operands whose product overflows give Inf on every
        # rung; verification in the coalesced dispatch path must pass it,
        # quarantine nothing, and leave the next requests on `tuned`.
        service = GemmService(
            "tahiti", "s", params={"tahiti": make_params(precision="s")},
        )
        sched = AsyncScheduler(service, [TenantConfig("x"), TenantConfig("y")])
        big = np.full((64, 64), 1e20, dtype=np.float32)
        a = rng.standard_normal((64, 64)).astype(np.float32)
        with np.errstate(over="ignore"):
            poisoned = sched.submit("x", big, big)
            first = sched.submit("y", a, a)  # co-batched with the overflow
            sched.pump()
        assert service.counters.batches == 1
        assert poisoned.result.rung == first.result.rung == "tuned"
        assert np.isinf(poisoned.result.c).all()
        assert service.counters.quarantined == 0
        assert service.counters.corruption_caught == 0
        tickets = [sched.submit(t, a, a) for t in ("x", "y")]
        assert sched.drain() == {"served": 4}
        assert [t.result.rung for t in tickets] == ["tuned"] * 2


class TestDeterminism:
    def test_chaos_schedule_is_bit_identical(self):
        # Same seeds, same workload -> the identical counters, the
        # identical incident sequence, and the identical final clock,
        # with every scheduler feature (coalescing, sharding, sheds,
        # retries) in play under injected faults.
        def run():
            plan = CANNED_PLANS["serve-chaos"].with_seed(5)
            service = GemmService(
                ["tahiti", "cypress"], "d",
                config=ServiceConfig(canary_interval=3, canary_passes=1),
                fault_injector=FaultInjector(plan),
            )
            sched = AsyncScheduler(
                service,
                [TenantConfig("a", weight=2.0, queue_capacity=8),
                 TenantConfig("b", queue_capacity=4, shed_retries=1)],
            )
            rng = np.random.default_rng(42)
            sizes = [16, 16, 32, 32, 48, 320]
            for i in range(60):
                n = sizes[i % len(sizes)]
                a = rng.standard_normal((n, n))
                b = rng.standard_normal((n, n))
                sched.submit("a" if i % 3 else "b", a, b,
                             arrival_s=i * 2e-5)
            sched.pump()
            return (
                service.counters.as_dict(),
                [i.kind for i in service.log],
                round(sched.now, 15),
                [t.status for t in sched.tickets],
            )

        assert run() == run()


class TestSanitizedSchedule:
    def test_chaos_schedule_runs_under_runtime_sanitizers(self):
        """The async scheduler's chaos path, end to end, under both the
        determinism sanitizer and the lock-order recorder: no repro code
        reads the wall clock or an unseeded RNG, and every lock pair
        nests in one global order."""
        from repro.testing.sanitize import DeterminismSanitizer, LockOrderRecorder

        recorder = LockOrderRecorder()
        with recorder, DeterminismSanitizer() as sanitizer:
            plan = CANNED_PLANS["serve-chaos"].with_seed(5)
            service = GemmService(
                ["tahiti", "cypress"], "d",
                config=ServiceConfig(canary_interval=3, canary_passes=1),
                fault_injector=FaultInjector(plan),
            )
            sched = AsyncScheduler(
                service,
                [TenantConfig("a", weight=2.0, queue_capacity=8),
                 TenantConfig("b", queue_capacity=4, shed_retries=1)],
            )
            rng = np.random.default_rng(42)
            for i in range(40):
                n = (16, 32, 48)[i % 3]
                a = rng.standard_normal((n, n))
                b = rng.standard_normal((n, n))
                sched.submit("a" if i % 3 else "b", a, b,
                             arrival_s=i * 2e-5)
            sched.pump()
        assert sanitizer.violations == []
        recorder.assert_consistent()
        assert all(t.status in ("served", "shed", "cancelled")
                   for t in sched.tickets)
