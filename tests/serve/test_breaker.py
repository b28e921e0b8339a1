"""The per-device circuit breaker state machine (logical clock)."""

from __future__ import annotations

import numpy as np

from repro.clsim.faults import FaultInjector, FaultPlan, FaultRule
from repro.serve import BreakerState, CircuitBreaker, GemmService
from repro.serve.breaker import COOLDOWN_TICKS, FAILURE_THRESHOLD, PROBE_SUCCESSES


def tripped_at(tick):
    """A breaker that tripped on its FAILURE_THRESHOLD-th failure at ``tick``."""
    b = CircuitBreaker("tahiti")
    for t in range(tick - FAILURE_THRESHOLD + 1, tick + 1):
        b.record_failure(t)
    return b


def test_thresholds_are_the_documented_constants():
    assert (FAILURE_THRESHOLD, COOLDOWN_TICKS, PROBE_SUCCESSES) == (3, 25, 2)


def test_trips_after_consecutive_failures():
    b = CircuitBreaker("tahiti")
    assert b.record_failure(1) is False
    assert b.record_failure(2) is False
    assert b.state is BreakerState.CLOSED
    assert b.record_failure(3) is True  # threshold reached: trips
    assert b.state is BreakerState.OPEN
    assert b.trips == 1


def test_success_resets_the_failure_streak():
    b = CircuitBreaker("tahiti")
    b.record_failure(1)
    b.record_failure(2)
    b.record_success()
    b.record_failure(4)
    b.record_failure(5)
    assert b.state is BreakerState.CLOSED  # streak restarted at tick 4


def test_open_blocks_until_cooldown_then_probes():
    b = tripped_at(3)
    assert not b.allow(4)
    assert not b.allow(2 + COOLDOWN_TICKS)  # still inside the cooldown
    assert b.allow(3 + COOLDOWN_TICKS)  # elapsed: half-open probe admitted
    assert b.state is BreakerState.HALF_OPEN


def test_probe_successes_close_the_breaker():
    b = tripped_at(3)
    probe = 3 + COOLDOWN_TICKS
    assert b.allow(probe)
    b.record_success()
    assert b.state is BreakerState.HALF_OPEN  # one probe is not enough
    assert b.allow(probe + 1)
    b.record_success()
    assert b.state is BreakerState.CLOSED


def test_probe_failure_reopens_immediately():
    b = tripped_at(3)
    probe = 3 + COOLDOWN_TICKS
    assert b.allow(probe)
    assert b.record_failure(probe) is True  # a sick device re-trips at once
    assert b.state is BreakerState.OPEN
    assert b.trips == 2
    assert not b.allow(probe + 1)
    assert b.allow(probe + COOLDOWN_TICKS)  # a fresh cooldown from the re-open


def test_transitions_are_recorded_for_the_incident_log():
    # The breaker keeps no history: each transition it makes on the
    # request path is a service incident, in order.
    plan = FaultPlan(seed=3, rules=(FaultRule(kind="launch", rate=1.0),))
    service = GemmService("tahiti", "d", fault_injector=FaultInjector(plan))
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((48, 32)), rng.standard_normal((32, 40))
    service.submit(a, b)
    service.submit(a, b)  # the third rung failure trips the breaker
    service.fault_injector = None
    breaker = service.breakers["tahiti"]
    while breaker.state is not BreakerState.CLOSED:
        service.submit(a, b)
    kinds = [i.kind for i in service.log if i.kind.startswith("breaker_")]
    assert kinds == ["breaker_trip", "breaker_probe", "breaker_close"]
    assert breaker.trips == 1
    assert "tahiti" in breaker.describe()
