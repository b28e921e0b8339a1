"""Convenience entry points for the most common workflows."""

from __future__ import annotations

import logging
from typing import Optional, Union

from repro.codegen.params import KernelParams
from repro.codegen.space import SpaceRestrictions
from repro.devices.catalog import get_device_spec
from repro.devices.specs import DeviceSpec
from repro.gemm.routine import GemmRoutine
from repro.obs import Observability
from repro.tuner.pretuned import pretuned_params
from repro.tuner.search import TuningConfig, TuningResult, tune

__all__ = ["autotune", "tuned_gemm", "serve", "observability"]

logger = logging.getLogger("repro.api")


def autotune(
    device: Union[str, DeviceSpec],
    precision: str = "d",
    budget: Optional[int] = 4000,
    seed: int = 0,
    restrictions: Optional[SpaceRestrictions] = None,
    obs: Optional[Observability] = None,
) -> TuningResult:
    """Run the staged kernel search for one device and precision.

    ``budget=None`` explores the full heuristic space (tens of thousands
    of candidates, as in the paper's five-hour runs — a few seconds on
    the simulator).  Pass ``obs=observability(seed)`` to record per-stage
    spans and search metrics.
    """
    config = TuningConfig(budget=budget, seed=seed)
    return tune(device, precision, config, restrictions, obs=obs)


def tuned_gemm(
    device: Union[str, DeviceSpec],
    precision: str = "d",
    params: Optional[KernelParams] = None,
    use_pretuned: bool = True,
    **routine_kwargs,
) -> GemmRoutine:
    """A ready-to-call GEMM routine for a device.

    Resolution order: explicit ``params`` if given; the shipped pretuned
    parameters if ``use_pretuned``; otherwise a fresh (default-budget)
    auto-tuning run.  The pretuned-to-autotune fallback is logged (a
    surprise multi-second tuning run on the request path should never be
    silent).
    """
    spec = device if isinstance(device, DeviceSpec) else get_device_spec(device)
    if params is None:
        if use_pretuned:
            try:
                params = pretuned_params(spec.codename, precision)
            except KeyError as exc:
                logger.warning(
                    "no pretuned kernel for %s/%s; falling back to a fresh "
                    "autotune run (%s)", spec.codename, precision, exc,
                )
                params = None
        if params is None:
            params = autotune(spec, precision).best.params
    if params.precision != precision:
        raise ValueError(
            f"params are for precision {params.precision!r}, requested {precision!r}"
        )
    return GemmRoutine(spec, params, **routine_kwargs)


def serve(
    devices: Union[str, DeviceSpec, "list"],
    precision: str = "d",
    **service_kwargs,
) -> "object":
    """A ready :class:`~repro.serve.GemmService` fronting the tuned kernels.

    The convenience constructor for the resilient serving layer: request
    validation, admission control, circuit breakers, the degradation
    ladder, and Freivalds result verification, with sensible defaults.
    Pass ``obs=observability(seed)`` to trace each request through the
    gates and export the service counters through a metrics registry.
    """
    from repro.serve import GemmService

    return GemmService(devices, precision, **service_kwargs)


def observability(seed: int = 0, trace_limit: Optional[int] = None) -> Observability:
    """An enabled telemetry bundle (tracer + metrics registry).

    Hand the same instance to :func:`serve`, :func:`autotune`,
    :class:`~repro.gemm.multidev.MultiDeviceGemm`, or
    :class:`~repro.gemm.dispatch.KernelSelector` to collect one unified
    trace/metrics view; see :mod:`repro.obs` and docs/observability.md.
    """
    return Observability(seed=seed, trace_limit=trace_limit)
