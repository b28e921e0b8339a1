"""The elastic fleet manager: health, lifecycle, autoscaler, churn soak.

The anti-flap guarantee is structural (cooldown suppresses *both*
directions after any event), so the property test here asserts the
strong form: no two scale events of any kind ever land within one
cooldown window, for arbitrary load-signal sequences.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clsim.faults import CANNED_PLANS, FaultInjector, FaultPlan, FaultRule
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
)
from repro.serve.fleet.health import (
    DISPATCH_DECAY,
    LATENCY_ALPHA,
    LATENCY_SLACK,
    MAX_LOAD,
    PROBE_DECAY,
    RECOVER_THRESHOLD,
    SUSPECT_THRESHOLD,
)
from repro.serve.soak import AsyncSoakConfig, _calm_stretch, run_async_soak


class TestHealth:
    def test_failures_accrue_and_saturate(self):
        health = DeviceHealth("tahiti")
        for _ in range(100):
            health.observe_failure(2.0)
        assert health.phi() == pytest.approx(MAX_LOAD)
        assert health.failure_events == 100

    def test_successful_dispatches_decay_the_load(self):
        health = DeviceHealth("tahiti")
        health.observe_failure(4.0)
        health.observe_dispatch(1.0, 1.0)
        health.observe_dispatch(1.0, 1.0)
        assert health.phi() == pytest.approx(4.0 * (1 - DISPATCH_DECAY) ** 2)

    def test_clean_probes_decay_harder_than_dispatches(self):
        slow = DeviceHealth("a")
        fast = DeviceHealth("b")
        slow.observe_failure(4.0)
        fast.observe_failure(4.0)
        slow.observe_dispatch(1.0, 1.0)
        fast.observe_probe(1.0, clean=True)
        assert fast.phi() < slow.phi()

    def test_dirty_probe_does_not_decay(self):
        health = DeviceHealth("tahiti")
        health.observe_failure(2.0)
        health.observe_probe(6.0, clean=False)
        # No decay, and the slow ratio now contributes latency phi.
        assert health.phi() > 2.0

    def test_probe_streak_counts_consecutive_clean_probes(self):
        health = DeviceHealth("tahiti")
        health.observe_probe(1.0, clean=True)
        health.observe_probe(1.0, clean=True)
        assert health.probe_streak == 2
        health.observe_probe(6.0, clean=False)
        assert health.probe_streak == 0
        health.observe_probe(None, clean=True)
        assert health.probe_streak == 1

    def test_sustained_latency_inflation_raises_phi(self):
        health = DeviceHealth("tahiti")
        for _ in range(50):
            health.observe_dispatch(6.0, 1.0)
        # The latency EWMA converges on 6; phi is what exceeds the slack.
        assert health.phi() == pytest.approx(6.0 - LATENCY_SLACK, rel=1e-4)
        assert health.score() < SUSPECT_THRESHOLD

    def test_breaker_state_contributes(self):
        health = DeviceHealth("tahiti")
        assert health.phi(BreakerState.OPEN) == pytest.approx(4.0)
        assert health.phi(BreakerState.HALF_OPEN) == pytest.approx(1.0)
        assert health.score() == 1.0

    @pytest.mark.parametrize("bad", [
        dict(dispatch_decay=0.0), dict(dispatch_decay=1.0),
        dict(probe_decay=0.0), dict(latency_alpha=0.0),
        dict(suspect_threshold=0.6, recover_threshold=0.5),
        dict(suspect_threshold=0.0),
    ])
    def test_config_validation(self, bad):
        # The detector works only with fractional decays and EWMA weight
        # and ordered hysteresis scores in (0, 1]: its constants meet
        # that, and each ``bad`` setting breaks it.
        def works(c):
            return (0 < c["dispatch_decay"] < 1 and 0 < c["probe_decay"] < 1
                    and 0 < c["latency_alpha"] <= 1
                    and 0 < c["suspect_threshold"]
                    <= c["recover_threshold"] <= 1)

        constants = dict(
            dispatch_decay=DISPATCH_DECAY, probe_decay=PROBE_DECAY,
            latency_alpha=LATENCY_ALPHA, suspect_threshold=SUSPECT_THRESHOLD,
            recover_threshold=RECOVER_THRESHOLD,
        )
        assert works(constants)
        assert not works({**constants, **bad})


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


@pytest.fixture()
def problem():
    rng = np.random.default_rng(0)
    return rng.standard_normal((48, 32)), rng.standard_normal((32, 40))


class TestIncidentScan:
    def test_a_tick_visits_only_the_new_records(self, monkeypatch):
        from repro.serve.fleet import FleetManager
        from repro.serve.incident import IncidentLog
        from repro.serve.sched import AsyncScheduler, TenantConfig

        service = GemmService(["tahiti", "cypress"], precision="d")
        manager = FleetManager(AsyncScheduler(service, [TenantConfig("t")]))
        visited = []
        since = IncidentLog.since

        def spy(log, seq):
            records = since(log, seq)
            visited.append([r.seq for r in records])
            return records

        def no_full_copy(log):
            raise AssertionError("tick iterated the whole incident log")

        monkeypatch.setattr(IncidentLog, "since", spy)
        monkeypatch.setattr(IncidentLog, "__iter__", no_full_copy)
        log = service.log
        start = len(log)
        log.record(1, "breaker_trip", device="tahiti")
        manager.tick(0.0)
        log.record(2, "corruption", device="cypress")
        log.record(3, "hedge")
        manager.tick(1e-6)
        manager.tick(2e-6)
        assert visited == [[start], [start + 1, start + 2], []]
        assert manager.healths["tahiti"].failure_events == 1
        assert manager.healths["cypress"].failure_events == 1

    def test_a_watchdog_timeout_is_failure_evidence(self, problem):
        # A rung that hangs past the watchdog fails over exactly like a
        # launch fault: the breaker and the failure detector both count it.
        from repro.serve.fleet import FleetManager
        from repro.serve.sched import AsyncScheduler, TenantConfig

        plan = FaultPlan(seed=1, rules=(
            FaultRule(kind="hang", rate=1.0, hang_seconds=0.2),))
        service = GemmService(
            "tahiti", "d", config=ServiceConfig(attempt_timeout_s=0.02),
            fault_injector=FaultInjector(plan),
        )
        manager = FleetManager(AsyncScheduler(service, [TenantConfig("t")]))
        assert service.submit(*problem).rung == "reference"
        degraded = service.log.by_kind("degraded")
        assert [i.detail.split(":")[0] for i in degraded] == [
            "MeasurementTimeout"] * 2
        manager.tick(0.0)
        assert manager.healths["tahiti"].failure_events == 2

    def test_routing_skips_are_not_failure_evidence(self):
        from repro.serve.fleet import FleetManager
        from repro.serve.sched import AsyncScheduler, TenantConfig

        service = GemmService(["tahiti"], precision="d")
        manager = FleetManager(AsyncScheduler(service, [TenantConfig("t")]))
        for detail in ("LaunchError: injected launch fault",
                       "MeasurementTimeout: measurement exceeded the watchdog",
                       "circuit breaker open",
                       "deadline: predicted 1.000 ms > remaining 0.500 ms",
                       "device lost; columns 0:8 re-partitioned",
                       "InvalidRequestError: not a rung failure"):
            service.log.record(1, "degraded", device="tahiti", detail=detail)
        manager.tick(0.0)
        assert manager.healths["tahiti"].failure_events == 2


class TestGrow:
    def test_a_grown_device_builds_its_shard_member_once(self, monkeypatch):
        from repro.gemm.multidev import MultiDeviceGemm
        from repro.serve.fleet import FleetManager
        from repro.serve.sched import AsyncScheduler, TenantConfig

        service = GemmService(["tahiti", "cypress"], precision="d")
        manager = FleetManager(AsyncScheduler(service, [TenantConfig("t")]))
        built = []
        build = MultiDeviceGemm._build_member

        def spy(fleet, spec, params=None):
            built.append(spec.codename)
            return build(fleet, spec, params)

        monkeypatch.setattr(MultiDeviceGemm, "_build_member", spy)
        start = len(service.log)
        manager._grow(0.0, 100.0)
        grown = manager.devices_in(DeviceState.WARMING)
        assert grown and list(service.parked_devices) == sorted(grown)
        assert built == []
        assert [(r.kind, r.device, r.detail)
                for r in service.log.since(start)][:2] == [
            ("fleet_admit", grown[0], "2 rungs admitted"),
            ("fleet_suspend", grown[0], "warming"),
        ]
        for device in grown:
            service.resume_device(device)
        assert built == list(grown)
        assert [s.codename for s in service.fleet.specs] == [
            "tahiti", "cypress", *grown]


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
    config = AsyncSoakConfig(
        requests=requests, seed=seed, hot_swap_at=0.0,
        fleet=FleetConfig(autoscale=AutoscaleConfig(
            min_devices=1, max_devices=5,
            grow_queue_depth=8.0, shrink_queue_depth=2.0,
            eval_interval_s=0.002, cooldown_s=0.02, sustain_evals=2,
        )),
    )
    return run_async_soak(service, config)


class TestChurnSoak:
    @pytest.fixture(scope="class")
    def report(self):
        return _small_fleet_soak()

    def test_clean_under_chaos(self, report):
        assert report.wrong_answers == 0
        assert report.starved_tenants == []
        assert report.clean

    def test_autoscaler_acted_without_flapping(self, report):
        fleet = report.fleet
        assert fleet["grow_events"] >= 1
        assert fleet["flap_pairs"] == []
        for first, second in zip(fleet["scale_events"],
                                 fleet["scale_events"][1:]):
            assert second["t_s"] - first["t_s"] >= fleet["cooldown_s"]

    def test_lifecycles_stay_legal_and_reported(self, report):
        devices = report.fleet["devices"]
        assert devices
        for device, info in devices.items():
            assert info["state"] in {s.value for s in DeviceState}
            assert info["transitions"][0]["to"] in (
                "provisioning", "serving"
            )

    def test_device_records_are_pinned(self, report):
        # Each device's state, health score, evidence counts and
        # lifecycle trail, byte for byte.
        devices = json.dumps(report.fleet["devices"], sort_keys=True)
        assert hashlib.blake2b(devices.encode(), digest_size=8).hexdigest() \
            == "bfcd5395849cbd19"

    def test_retry_hints_surface_per_tenant(self, report):
        hints = [t["retry_hints"] for t in report.per_tenant.values()]
        assert all(h["count"] >= 0 and h["max_ms"] >= 0.0 for h in hints)
        # The overloaded mix must have shed with backpressure hints.
        assert sum(h["count"] for h in hints) > 0

    def test_payload_is_deterministic(self, report):
        # The rerun exports telemetry: observability must not change
        # a single byte of the payload.
        again = _small_fleet_soak(obs=Observability(seed=11, trace_limit=8))
        assert (json.dumps(report.fleet_dict(), sort_keys=True)
                == json.dumps(again.fleet_dict(), sort_keys=True))

    def test_payload_format(self, report):
        payload = report.fleet_dict()
        assert payload["format"] == "repro-bench-fleet/1"
        assert set(payload) == {"format", "serving", "fleet"}
        assert payload["serving"] == report.as_dict()
        fleet = payload["fleet"]
        assert fleet["grow_events"] + fleet["shrink_events"] == len(
            fleet["scale_events"]
        )


class TestChurnSoakCLI:
    def test_fleet_soak_writes_every_payload(self, tmp_path, capsys):
        from repro.cli import main
        from repro.persist import CHECKSUM_KEY

        paths = {name: tmp_path / f"{name}.json"
                 for name in ("bench", "tenants", "fleet")}
        code = main([
            "soak", "tahiti", "cypress", "--fleet", "--requests", "200",
            "--seed", "7", "--inject-faults", "fleet-chaos",
            "--fault-seed", "7",
            "--bench-json", str(paths["bench"]),
            "--tenant-latency-json", str(paths["tenants"]),
            "--fleet-json", str(paths["fleet"]),
        ])
        capsys.readouterr()
        assert code == 0
        payloads = {name: json.loads(path.read_text())
                    for name, path in paths.items()}
        bench = payloads["bench"]
        del bench[CHECKSUM_KEY]
        assert bench == payloads["fleet"]["serving"]
        assert set(payloads["tenants"]["tenants"]) == set(bench["tenants"])

    def test_bench_flags_imply_async(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bench.json"
        assert main(["soak", "tahiti", "--requests", "40",
                     "--bench-json", str(path)]) == 0
        assert "async soak:" in capsys.readouterr().out
        assert json.loads(path.read_text())["format"] \
            == "repro-bench-serving/1"
