"""The elastic fleet manager: health, lifecycle, autoscaler, churn soak.

The anti-flap guarantee is structural (cooldown suppresses *both*
directions after any event), so the property test here asserts the
strong form: no two scale events of any kind ever land within one
cooldown window, for arbitrary load-signal sequences.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clsim.faults import CANNED_PLANS, FaultInjector
from repro.obs import Observability
from repro.serve import GemmService, ServiceConfig
from repro.serve.breaker import BreakerState
from repro.serve.fleet import (
    AutoscaleConfig,
    Autoscaler,
    DeviceHealth,
    DeviceLifecycle,
    DeviceState,
    FleetConfig,
    HealthConfig,
)
from repro.serve.soak import (
    AsyncSoakConfig,
    FleetSoakConfig,
    _calm_stretch,
    run_fleet_soak,
)


class TestHealth:
    def test_failures_accrue_and_saturate(self):
        health = DeviceHealth("tahiti", HealthConfig(max_load=4.0))
        for _ in range(100):
            health.observe_failure(0.0, 2.0)
        assert health.phi(0.0) == pytest.approx(4.0)
        assert health.failure_events == 100

    def test_successful_dispatches_decay_the_load(self):
        cfg = HealthConfig(dispatch_decay=0.5)
        health = DeviceHealth("tahiti", cfg)
        health.observe_failure(0.0, 4.0)
        health.observe_dispatch(0.0, 1.0, 1.0)
        health.observe_dispatch(0.0, 1.0, 1.0)
        assert health.phi(0.0) == pytest.approx(1.0)

    def test_clean_probes_decay_harder_than_dispatches(self):
        cfg = HealthConfig(dispatch_decay=0.05, probe_decay=0.5)
        slow = DeviceHealth("a", cfg)
        fast = DeviceHealth("b", cfg)
        slow.observe_failure(0.0, 4.0)
        fast.observe_failure(0.0, 4.0)
        slow.observe_dispatch(0.0, 1.0, 1.0)
        fast.observe_probe(0.0, 1.0, clean=True)
        assert fast.phi(0.0) < slow.phi(0.0)

    def test_dirty_probe_does_not_decay(self):
        health = DeviceHealth("tahiti", HealthConfig(probe_decay=0.5))
        health.observe_failure(0.0, 2.0)
        health.observe_probe(0.0, 6.0, clean=False)
        # No decay, and the slow ratio now contributes latency phi.
        assert health.phi(0.0) > 2.0

    def test_sustained_latency_inflation_raises_phi(self):
        health = DeviceHealth("tahiti", HealthConfig(latency_slack=2.0))
        for _ in range(50):
            health.observe_dispatch(0.0, 6.0, 1.0)
        assert health.latency_ratio == pytest.approx(6.0, rel=0.05)
        assert health.phi(0.0) == pytest.approx(4.0, rel=0.1)
        assert health.score(0.0) < 0.25

    def test_breaker_state_contributes(self):
        health = DeviceHealth("tahiti")
        assert health.phi(0.0, BreakerState.OPEN) == pytest.approx(4.0)
        assert health.phi(0.0, BreakerState.HALF_OPEN) == pytest.approx(1.0)
        assert health.score(0.0) == 1.0

    @pytest.mark.parametrize("bad", [
        dict(dispatch_decay=0.0), dict(dispatch_decay=1.0),
        dict(probe_decay=0.0), dict(latency_alpha=0.0),
        dict(suspect_threshold=0.6, recover_threshold=0.5),
        dict(suspect_threshold=0.0),
    ])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            HealthConfig(**bad)


class TestLifecycle:
    def test_full_legal_journey(self):
        cycle = DeviceLifecycle("cayman")
        for state in (DeviceState.WARMING, DeviceState.SERVING,
                      DeviceState.SUSPECTED, DeviceState.SERVING,
                      DeviceState.DRAINING, DeviceState.RETIRED,
                      DeviceState.PROVISIONING):
            cycle.transition(state, 1.0, "test")
        assert cycle.state is DeviceState.PROVISIONING
        # Bootstrap + 7 transitions, each with from/to recorded.
        assert len(cycle.transitions) == 8
        assert cycle.transitions[-1].to_dict()["to"] == "provisioning"

    @pytest.mark.parametrize("start,target", [
        (DeviceState.PROVISIONING, DeviceState.SERVING),
        (DeviceState.SERVING, DeviceState.RETIRED),
        (DeviceState.RETIRED, DeviceState.SERVING),
        (DeviceState.DRAINING, DeviceState.SERVING),
    ])
    def test_illegal_edges_rejected(self, start, target):
        cycle = DeviceLifecycle("cayman", initial=start)
        assert not cycle.can(target)
        with pytest.raises(ValueError, match="illegal"):
            cycle.transition(target, 1.0, "test")

    def test_only_serving_takes_traffic(self):
        for state in DeviceState:
            cycle = DeviceLifecycle("x", initial=state)
            assert cycle.takes_traffic == (state is DeviceState.SERVING)


class TestAutoscaler:
    @pytest.mark.parametrize("bad", [
        dict(shrink_queue_depth=24.0, grow_queue_depth=24.0),
        dict(min_devices=0), dict(sustain_evals=0), dict(max_step=0),
    ])
    def test_hysteresis_validation(self, bad):
        with pytest.raises(ValueError):
            AutoscaleConfig(**bad)

    def test_single_breach_does_not_act(self):
        scaler = Autoscaler(AutoscaleConfig(sustain_evals=3))
        assert scaler.evaluate(0.0, 1000.0, 2) is None
        assert scaler.evaluate(0.01, 0.0, 2) is None  # resets
        assert scaler.evaluate(0.02, 1000.0, 2) is None

    def test_sustained_breach_grows_then_cooldown_holds(self):
        cfg = AutoscaleConfig(sustain_evals=2, cooldown_s=0.05)
        scaler = Autoscaler(cfg)
        assert scaler.evaluate(0.00, 100.0, 2) is None
        assert scaler.evaluate(0.01, 100.0, 2) == "grow"
        # Inside the cooldown even a sustained *opposite* breach waits.
        assert scaler.evaluate(0.02, 0.0, 3) is None
        assert scaler.evaluate(0.03, 0.0, 3) is None
        assert scaler.evaluate(0.04, 0.0, 3) is None
        assert scaler.evaluate(0.07, 0.0, 3) == "shrink"

    def test_bounds_respected(self):
        cfg = AutoscaleConfig(min_devices=1, max_devices=2,
                              sustain_evals=1, cooldown_s=0.0)
        scaler = Autoscaler(cfg)
        assert scaler.evaluate(0.0, 100.0, 2) is None  # at max
        assert scaler.evaluate(0.1, 0.0, 1) is None  # at min
        assert scaler.step_limit("grow", 2) == 0
        assert scaler.step_limit("shrink", 1) == 0

    @given(
        depths=st.lists(st.floats(0.0, 200.0, allow_nan=False),
                        min_size=4, max_size=150),
        sustain=st.integers(1, 3),
        cooldown=st.floats(0.0, 0.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_two_events_within_one_cooldown(self, depths, sustain,
                                               cooldown):
        cfg = AutoscaleConfig(min_devices=1, max_devices=4,
                              grow_queue_depth=50.0, shrink_queue_depth=10.0,
                              eval_interval_s=0.01, cooldown_s=cooldown,
                              sustain_evals=sustain)
        scaler = Autoscaler(cfg)
        fleet = 2
        events = []
        for i, depth in enumerate(depths):
            t = i * cfg.eval_interval_s
            decision = scaler.evaluate(t, depth, fleet)
            if decision == "grow":
                fleet += 1
                events.append(t)
            elif decision == "shrink":
                fleet -= 1
                events.append(t)
            assert cfg.min_devices <= fleet <= cfg.max_devices
        for first, second in zip(events, events[1:]):
            assert second - first >= cfg.cooldown_s


class TestServiceMembership:
    @pytest.fixture()
    def service(self):
        return GemmService(["tahiti"], precision="d",
                           config=ServiceConfig(default_deadline_s=None))

    def test_admit_suspend_resume_retire_cycle(self, service):
        rungs = service.admit_device("cayman")
        assert rungs
        assert list(service.serving_devices) == ["tahiti", "cayman"]
        assert service.counters.fleet_admits == 1
        service.suspend_device("cayman", reason="warming")
        assert list(service.serving_devices) == ["tahiti"]
        assert list(service.parked_devices) == ["cayman"]
        service.resume_device("cayman")
        assert list(service.serving_devices) == ["tahiti", "cayman"]
        service.retire_device("cayman")
        assert list(service.serving_devices) == ["tahiti"]
        assert service.counters.fleet_retires == 1

    def test_admit_without_tuned_params_refused(self, service):
        # gtx680 ships no pretuned double-precision parameters.
        assert service.admit_device("gtx680") == []
        assert "gtx680" not in service.serving_devices


class TestDemandWave:
    def test_busy_half_runs_at_full_rate(self):
        assert _calm_stretch(0.0, 0.25, 4.0) == 1.0
        assert _calm_stretch(0.124, 0.25, 4.0) == 1.0
        assert _calm_stretch(0.26, 0.25, 4.0) == 1.0  # next cycle, busy

    def test_calm_half_stretches_gaps(self):
        assert _calm_stretch(0.125, 0.25, 4.0) == 4.0
        assert _calm_stretch(0.249, 0.25, 4.0) == 4.0
        assert _calm_stretch(0.375, 0.25, 4.0) == 4.0

    def test_disabled_by_default(self):
        cfg = AsyncSoakConfig()
        assert cfg.load_cycle_s == 0.0
        assert _calm_stretch(0.2, cfg.load_cycle_s,
                             cfg.load_calm_factor) == 1.0
        # A factor of 1 is also a no-op regardless of cycle.
        assert _calm_stretch(0.2, 0.25, 1.0) == 1.0


def _small_fleet_soak(seed=11, requests=1500, obs=None):
    injector = FaultInjector(plan=CANNED_PLANS["fleet-chaos"])
    service = GemmService(
        ["tahiti", "cypress"], precision="d",
        config=ServiceConfig(default_deadline_s=None),
        fault_injector=injector, obs=obs,
    )
    config = FleetSoakConfig(
        soak=AsyncSoakConfig(requests=requests, seed=seed, hot_swap_at=0.0),
        fleet=FleetConfig(autoscale=AutoscaleConfig(
            min_devices=1, max_devices=5,
            grow_queue_depth=8.0, shrink_queue_depth=2.0,
            eval_interval_s=0.002, cooldown_s=0.02, sustain_evals=2,
        )),
    )
    return run_fleet_soak(service, config)


class TestChurnSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return _small_fleet_soak()

    def test_clean_under_chaos(self, report):
        assert report.serving.wrong_answers == 0
        assert report.serving.starved_tenants == []
        assert report.clean

    def test_autoscaler_acted_without_flapping(self, report):
        assert report.grow_events >= 1
        assert report.flap_pairs == []
        for first, second in zip(report.scale_events,
                                 report.scale_events[1:]):
            assert second["t_s"] - first["t_s"] >= report.cooldown_s

    def test_lifecycles_stay_legal_and_reported(self, report):
        assert report.devices
        for device, info in report.devices.items():
            assert info["state"] in {s.value for s in DeviceState}
            assert info["transitions"][0]["to"] in (
                "provisioning", "serving"
            )

    def test_retry_hints_surface_per_tenant(self, report):
        hints = [t["retry_hints"] for t in report.serving.per_tenant.values()]
        assert all(h["count"] >= 0 and h["max_ms"] >= 0.0 for h in hints)
        # The overloaded mix must have shed with backpressure hints.
        assert sum(h["count"] for h in hints) > 0

    def test_payload_is_deterministic(self, report):
        # The rerun exports telemetry: observability must not change
        # a single byte of the payload.
        again = _small_fleet_soak(obs=Observability(seed=11, trace_limit=8))
        assert (json.dumps(report.as_dict(), sort_keys=True)
                == json.dumps(again.as_dict(), sort_keys=True))

    def test_payload_format(self, report):
        payload = report.as_dict()
        assert payload["format"] == "repro-bench-fleet/1"
        assert set(payload) == {"format", "serving", "fleet"}
        fleet = payload["fleet"]
        assert fleet["grow_events"] + fleet["shrink_events"] == len(
            fleet["scale_events"]
        )
