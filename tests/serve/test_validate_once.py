"""Gate 1 runs once per request, where the request enters the system.

A call that ``GemmCall.validate`` returned carries the dtype it was
checked for, so the service serves a call the async scheduler queued
without a second structural check or NaN/Inf scan of its operands.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.serve.service as service_module
from repro.errors import InvalidRequestError
from repro.serve import GemmCall, GemmService
from repro.serve.breaker import BreakerState
from repro.serve.sched import AsyncScheduler, SchedulerConfig, TenantConfig

from tests.conftest import make_params


def small_service():
    return GemmService("tahiti", "d", params={"tahiti": make_params()})


@pytest.fixture
def validations(monkeypatch):
    """Full validations per operand ``a``: the structural checks
    (``validate_gemm_request``) and the NaN/Inf scans that read it."""
    checks, scans = Counter(), Counter()
    check, isfinite = service_module.validate_gemm_request, np.isfinite

    def counted_check(a, *args, **kwargs):
        checks[id(a)] += 1
        return check(a, *args, **kwargs)

    def counted_isfinite(x, *args, **kwargs):
        scans[id(x)] += 1
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(service_module, "validate_gemm_request",
                        counted_check)
    monkeypatch.setattr(np, "isfinite", counted_isfinite)

    def per_request(operands):
        return ([checks[id(a)] for a in operands],
                [scans[id(a)] for a in operands])
    return per_request


def operands(rng, n, shape=(24, 24)):
    """``n`` distinct fp64 ``a`` operands (validated in place, uncast)."""
    return [rng.standard_normal(shape) for _ in range(n)]


class TestOneFullValidationPerRequest:
    def test_single_dispatch(self, rng, validations):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t")],
                               SchedulerConfig(coalesce=False))
        a_s = operands(rng, 3)
        b = rng.standard_normal((24, 24))
        tickets = [sched.submit("t", a, b, arrival_s=0.0) for a in a_s]
        sched.pump()
        assert [t.status for t in tickets] == ["served"] * 3
        assert [t.batch_size for t in tickets] == [1, 1, 1]
        assert validations(a_s) == ([1, 1, 1], [1, 1, 1])

    def test_batch_dispatch(self, rng, validations):
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("x"),
                                         TenantConfig("y")])
        a_s = operands(rng, 4, (32, 16))
        b = rng.standard_normal((16, 48))
        tickets = [sched.submit("xy"[i % 2], a, b, arrival_s=0.0)
                   for i, a in enumerate(a_s)]
        sched.pump()
        assert [t.batch_size for t in tickets] == [4, 4, 4, 4]
        assert validations(a_s) == ([1] * 4, [1] * 4)

    def test_hedge_dispatch(self, rng, validations):
        # The risky window of the scheduler's hedging test: a half-open
        # breaker and a quarantined tuned kernel degrade the serve, so
        # the scheduler re-launches the same queued call.
        service = small_service()
        sched = AsyncScheduler(service, [TenantConfig("t", hedge_budget=1)],
                               SchedulerConfig(coalesce=False))
        service.breakers["tahiti"].state = BreakerState.HALF_OPEN
        tuned = next(r for r in service.ladder.rungs if r.name == "tuned")
        service._quarantine(tuned, -1)
        (a,) = operands(rng, 1, (48, 48))
        ticket = sched.submit("t", a, rng.standard_normal((48, 48)),
                              arrival_s=0.0)
        sched.pump()
        assert ticket.hedged
        assert validations([a]) == ([1], [1])

    def test_direct_submit_and_submit_batch(self, rng, validations):
        service = small_service()
        a_s = operands(rng, 3)
        b = rng.standard_normal((24, 24))
        service.submit(a_s[0], b)
        service.submit_batch([GemmCall(a, b) for a in a_s[1:]])
        assert validations(a_s) == ([1, 1, 1], [1, 1, 1])


class TestValidatedMark:
    def test_revalidating_returns_the_same_object(self, rng):
        call = GemmCall(rng.standard_normal((4, 3)),
                        rng.standard_normal((3, 5))).validate(np.float64)
        assert call.validate(np.float64) is call
        assert call.validate(np.dtype("float64")) is call

    def test_another_dtype_validates_in_full(self, rng):
        call = GemmCall(np.full((4, 3), 1e39),
                        rng.standard_normal((3, 5))).validate(np.float64)
        with pytest.raises(InvalidRequestError) as exc:
            call.validate(np.float32)  # 1e39 overflows fp32
        assert exc.value.argument == "a"

    def test_replace_does_not_carry_the_mark(self, rng):
        call = GemmCall(rng.standard_normal((4, 3)),
                        rng.standard_normal((3, 5))).validate(np.float64)
        poisoned = call.a.copy()
        poisoned[1, 2] = np.nan
        with pytest.raises(InvalidRequestError, match="NaN or Inf") as exc:
            dataclasses.replace(call, a=poisoned).validate(np.float64)
        assert exc.value.argument == "a"

    def test_no_constructor_argument_marks_a_call(self, rng):
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
        init = [f.name for f in dataclasses.fields(GemmCall) if f.init]
        assert init == ["a", "b", "c", "alpha", "beta", "transa", "transb"]
        with pytest.raises(TypeError):
            GemmCall(a, b, _validated_for=np.dtype(np.float64))

    def test_equality_and_repr_ignore_the_mark(self, rng):
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
        raw, checked = GemmCall(a, b), GemmCall(a, b).validate(np.float64)
        assert checked.a is a  # already fp64: borrowed, not copied
        assert repr(raw) == repr(checked)
        assert "_validated_for" not in repr(checked)
        compared = [f.name for f in dataclasses.fields(GemmCall) if f.compare]
        assert "_validated_for" not in compared
