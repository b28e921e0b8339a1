"""Graceful degradation outside the service: dispatch, pretuned, fleet."""

from __future__ import annotations

import logging
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import tuned_gemm
from repro.clsim.faults import FaultInjector, FaultPlan, FaultRule
from repro.errors import ReproError
from repro.gemm.dispatch import KernelSelector
from repro.gemm.multidev import MultiDeviceGemm
from repro.gemm.reference import reference_gemm, relative_error
from repro.tuner.pretuned import pretuned_params


class TestSelectorFallback:
    def test_no_candidates_without_precision_still_raises(self):
        with pytest.raises(ReproError, match="at least one"):
            KernelSelector("tahiti", [])

    def test_no_candidates_falls_back_to_pretuned(self, rng):
        selector = KernelSelector("tahiti", [], precision="d")
        assert selector.degradations  # the fallback is recorded, not silent
        assert "pretuned" in selector.degradations[0]
        assert selector.table
        a = rng.standard_normal((48, 32))
        b = rng.standard_normal((32, 40))
        result = selector(a, b)
        expected = reference_gemm("N", "N", 1.0, a, b, 0.0)
        assert relative_error(result.c, expected) < 1e-12

    def test_empty_tuning_result_degrades_gracefully(self):
        result = SimpleNamespace(finalists=[], precision="d")
        selector = KernelSelector.from_tuning_result("tahiti", result)
        assert selector.degradations
        assert selector.entry_for(256, 256, 256).params is not None

    def test_unknown_pair_fallback_raises_cleanly(self):
        # No candidates AND no pretuned entry: a clean error, not a
        # table that IndexErrors at dispatch time.
        with pytest.raises(ReproError, match="no pretuned fallback"):
            KernelSelector("tahiti", [], precision="q")


class TestPretunedDiagnostics:
    def test_unknown_device_lists_available_pairs(self):
        with pytest.raises(KeyError) as exc:
            pretuned_params("notadevice", "d")
        message = str(exc.value)
        assert "available (device, precision) pairs" in message
        assert "tahiti/d" in message

    def test_known_device_wrong_precision_gets_a_hint(self):
        with pytest.raises(KeyError) as exc:
            pretuned_params("tahiti", "h")
        message = str(exc.value)
        assert "pretuned only for precision" in message
        assert "'d'" in message and "'s'" in message


class TestTunedGemmFallback:
    def test_missing_pretuned_falls_back_loudly(self, monkeypatch, caplog):
        def missing(device, precision):
            raise KeyError(f"no pretuned kernel for ({device!r}, {precision!r})")

        stub_params = pretuned_params("tahiti", "d")
        monkeypatch.setattr("repro.api.pretuned_params", missing)
        monkeypatch.setattr(
            "repro.api.autotune",
            lambda spec, precision: SimpleNamespace(
                best=SimpleNamespace(params=stub_params)
            ),
        )
        with caplog.at_level(logging.WARNING, logger="repro.api"):
            routine = tuned_gemm("tahiti", "d")
        assert routine.params == stub_params
        assert any(
            "falling back to a fresh" in record.getMessage()
            for record in caplog.records
        )


class TestFleetDeviceLossRanges:
    def test_result_carries_the_lost_ranges(self, rng):
        plan = FaultPlan(
            seed=11,
            rules=(FaultRule(kind="device_lost", rate=1.0, device="cayman"),),
        )
        fleet = MultiDeviceGemm(
            ["tahiti", "cayman"], "d",
            fault_injector=FaultInjector(plan),
            measurement_noise=False,
        )
        a = rng.standard_normal((64, 48))
        b = rng.standard_normal((48, 96))
        result = fleet(a, b)
        assert result.lost_devices == ("cayman",)
        ((device, start, stop),) = result.lost
        assert device == "cayman"
        # The lost range is the one the first partition gave cayman.
        assert (device, start, stop) == fleet.partition(96)[1]
        assert 0 <= start < stop <= 96
        # Its columns were re-run on the survivor.
        assert [s.device for s in result.shares] == ["tahiti", "tahiti"]
        assert result.shares[-1].columns == (start, stop)
        expected = reference_gemm("N", "N", 1.0, a, b, 0.0)
        assert relative_error(result.c, expected) < 1e-12
