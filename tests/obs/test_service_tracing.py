"""End-to-end request tracing through the serving layer.

The ISSUE acceptance criterion lives here: a single serve-chaos request
yields one trace covering validation -> admission -> breaker -> ladder
rung(s) -> kernel launch, bit-identical across two same-seed runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clsim.faults import FaultInjector, FaultPlan
from repro.obs import Observability
from repro.serve import GemmCall, GemmService, ServiceConfig
from repro.serve.incident import ServiceCounters
from repro.serve.soak import SoakConfig, SoakReport, run_soak


def chaos_service(seed: int = 7, **kwargs) -> GemmService:
    return GemmService(
        "tahiti", "d",
        config=ServiceConfig(seed=seed),
        fault_injector=FaultInjector(FaultPlan.parse("serve-chaos", seed=seed)),
        obs=Observability(seed=seed),
        **kwargs,
    )


def one_request(seed: int = 7):
    service = chaos_service(seed=seed)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((64, 64))
    b = rng.standard_normal((64, 64))
    result = service.submit(a, b)
    return service, result


class TestSingleRequestTrace:
    def test_one_trace_covers_the_whole_request_path(self):
        service, result = one_request()
        assert len(service.obs.traces) == 1
        trace = service.obs.traces[0]
        names = trace.span_names()
        # The acceptance path: validation -> admission -> breaker ->
        # ladder rung -> kernel launch (bridged from clsim) -> verify.
        assert names[0] == "serve.request"
        assert "gate.validate" in names
        assert "gate.admission" in names
        assert "breaker" in names
        assert any(n.startswith("rung:") for n in names)
        assert any(n.startswith("kernel:") for n in names)
        assert "verify.freivalds" in names
        # Gate order matches the service's documented pipeline.
        assert names.index("gate.validate") < names.index("gate.admission")
        rung_idx = next(i for i, n in enumerate(names) if n.startswith("rung:"))
        assert names.index("gate.admission") < rung_idx

    def test_kernel_spans_are_children_of_their_rung(self):
        service, result = one_request()
        trace = service.obs.traces[0]
        rung = next(s for s in trace.spans if s.name.startswith("rung:"))
        kernels = [s for s in trace.spans if s.name.startswith("kernel:")]
        assert kernels, "no bridged clsim spans in the request trace"
        for span in kernels:
            assert span.parent_id == rung.span_id
            # Bridged spans carry the simulator's modelled clock.
            assert span.attributes["sim_end_ns"] >= span.attributes["sim_start_ns"]

    def test_result_carries_its_trace_id(self):
        service, result = one_request()
        trace = service.obs.traces[0]
        assert result.trace_id == trace.trace_id
        assert trace.root.attributes["rung"] == result.rung

    def test_rung_span_outcome_attribute(self):
        service, result = one_request()
        trace = service.obs.traces[0]
        served = [s for s in trace.spans
                  if s.name.startswith("rung:")
                  and s.attributes.get("outcome") == "served"]
        assert len(served) == 1

    def test_untraced_service_records_nothing(self):
        rng = np.random.default_rng(0)
        service = GemmService("tahiti", "d")
        result = service.submit(rng.standard_normal((32, 32)),
                                rng.standard_normal((32, 32)))
        assert result.trace_id == ""
        assert service.obs.traces == []


class TestBatchTrace:
    def test_batch_trace_covers_the_breaker_under_its_rung(self):
        service = GemmService("tahiti", "d", obs=Observability(seed=7))
        rng = np.random.default_rng(7)
        calls = [GemmCall(rng.standard_normal((32, 32)),
                          rng.standard_normal((32, 32))) for _ in range(3)]
        results = service.submit_batch(calls)
        assert len(service.obs.traces) == 1
        trace = service.obs.traces[0]
        names = trace.span_names()
        assert names[0] == "serve.batch"
        assert "gate.validate" in names and "gate.admission" in names
        # The batch walk gates device rungs on the breaker like a
        # stand-alone request, and its trace shows it.
        breaker = next(s for s in trace.spans if s.name == "breaker")
        assert breaker.attributes["allowed"] is True
        rung = trace.spans[breaker.parent_id]
        assert rung.name == "rung:tahiti:tuned"
        assert rung.attributes["outcome"] == "served"
        assert [r.rung for r in results] == ["tuned"] * 3
        assert all(r.trace_id == trace.trace_id for r in results)


class TestDeterminism:
    def test_single_request_trace_is_bit_identical_across_runs(self):
        _, r1 = one_request(seed=7)
        s1, _ = one_request(seed=7)
        s2, r2 = one_request(seed=7)
        d1 = [t.to_dict() for t in s1.obs.traces]
        d2 = [t.to_dict() for t in s2.obs.traces]
        assert d1 == d2
        assert r1.trace_id == r2.trace_id

    def test_chaos_soak_traces_are_bit_identical_across_runs(self):
        def run():
            service = chaos_service(seed=11)
            run_soak(service, SoakConfig(requests=40, seed=11))
            return service

        s1, s2 = run(), run()
        assert [t.to_dict() for t in s1.obs.traces] \
            == [t.to_dict() for t in s2.obs.traces]
        assert render_snapshot(s1) == render_snapshot(s2)

    def test_different_seed_changes_the_trace_ids(self):
        s1, _ = one_request(seed=7)
        s2, _ = one_request(seed=8)
        assert s1.obs.traces[0].trace_id != s2.obs.traces[0].trace_id


def render_snapshot(service: GemmService):
    return service.obs.metrics.snapshot()


class TestIncidentJoin:
    def test_incidents_are_stamped_with_the_active_trace_id(self):
        service = chaos_service(seed=11)
        run_soak(service, SoakConfig(requests=60, seed=11))
        stamped = [i for i in service.log if i.trace_id]
        assert stamped, "chaos soak produced no trace-stamped incidents"
        trace_ids = {t.trace_id for t in service.obs.traces}
        for incident in stamped:
            assert incident.trace_id in trace_ids

    def test_by_trace_joins_a_request_to_its_incidents(self):
        service = chaos_service(seed=11)
        run_soak(service, SoakConfig(requests=60, seed=11))
        incident = next(i for i in service.log if i.trace_id)
        joined = service.log.by_trace(incident.trace_id)
        assert incident in joined
        assert all(i.trace_id == incident.trace_id for i in joined)
        # The join lands on a real recorded trace with the same request.
        trace = service.obs.tracer.find_trace(incident.trace_id)
        assert trace is not None
        assert trace.root.attributes["request_id"] == incident.request_id

    def test_soak_failure_lines_carry_the_trace_id(self):
        report = SoakReport(
            requests=2, served=2, shed=0, wrong_answers=1,
            worst_error=1e-12, counters={}, incident_kinds={},
            failures=[(7, "tuned", 0.5, "deadbeefdeadbeef")],
        )
        text = report.render()
        assert "FAILURE request 7 via tuned" in text
        assert "trace=deadbeefdeadbeef" in text
        assert report.as_dict()["failures"] == [[7, "tuned", 0.5, "deadbeefdeadbeef"]]


class TestCounterMirroring:
    def test_counters_write_through_to_the_registry(self):
        service, _ = one_request()
        registry = service.obs.metrics
        assert registry.get("serve_requests_total").value \
            == service.counters.requests == 1
        assert registry.get("serve_completed_total").value \
            == service.counters.completed
        rung_metric = registry.get("serve_served_by_rung_total")
        for rung, count in service.counters.served_by_rung.items():
            assert rung_metric.labels(rung=rung).value == count

    def test_registry_counters_are_cumulative_across_services(self):
        obs = Observability(seed=3)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
        GemmService("tahiti", "d", obs=obs).submit(a, b)
        # A second service binding fresh zeroed counters to the same
        # registry must not move the shared totals backwards.
        second = GemmService("tahiti", "d", obs=obs)
        second.submit(a, b)
        second.submit(a, b)
        assert obs.metrics.get("serve_requests_total").value == 3
        assert second.counters.requests == 2

    def test_bind_registry_preserves_existing_dataclass_values(self):
        from repro.obs import MetricsRegistry

        counters = ServiceCounters()
        counters.requests = 5
        counters.count_rung("tuned")
        registry = MetricsRegistry()
        counters.bind_registry(registry)
        assert registry.get("serve_requests_total").value == 5
        assert registry.get("serve_served_by_rung_total") \
            .labels(rung="tuned").value == 1
        counters.requests += 1
        counters.count_rung("tuned")
        assert registry.get("serve_requests_total").value == 6
        assert registry.get("serve_served_by_rung_total") \
            .labels(rung="tuned").value == 2

    def test_in_place_rung_mutation_is_exported(self):
        from repro.obs import MetricsRegistry

        # The fields are the only store: a write that bypasses
        # ``count_rung`` still reaches the registry.
        counters = ServiceCounters()
        registry = MetricsRegistry()
        counters.bind_registry(registry)
        counters.served_by_rung["direct"] = 4
        assert registry.get("serve_served_by_rung_total") \
            .labels(rung="direct").value == 4

    def test_as_dict_stays_clean_after_binding(self):
        from repro.obs import MetricsRegistry

        counters = ServiceCounters()
        counters.bind_registry(MetricsRegistry())
        counters.requests = 2
        d = counters.as_dict()
        assert d["requests"] == 2
        assert not any(k.startswith("_") for k in d)

    def test_fallbacks_series_appears_under_chaos(self):
        service = chaos_service(seed=11)
        run_soak(service, SoakConfig(requests=60, seed=11))
        fallbacks = service.obs.metrics.get("serve_fallbacks_total")
        assert fallbacks is not None
        total = sum(child.value for _, child in fallbacks.series_items())
        # One fallback event per degraded *rung* (a request can fall
        # through several), so the series totals the degraded incidents.
        assert total == len(service.log.by_kind("degraded"))
        assert total >= service.counters.degraded > 0

    def test_latency_histograms_observe_served_requests(self):
        service, _ = one_request()
        hist = service.obs.metrics.get("serve_service_seconds")
        assert hist.count == 1
        assert hist.sum > 0


class TestTraceLimit:
    def test_soak_respects_the_trace_limit(self):
        service = GemmService(
            "tahiti", "d", config=ServiceConfig(seed=5),
            obs=Observability(seed=5, trace_limit=8),
        )
        run_soak(service, SoakConfig(requests=30, seed=5))
        assert len(service.obs.traces) == 8
        assert service.obs.tracer.dropped > 0
        # Every request still got a real trace ID stamped on its result
        # and incidents, kept or not.
        assert all(t.root.name == "serve.request" for t in service.obs.traces)
