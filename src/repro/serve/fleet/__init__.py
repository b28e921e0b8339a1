"""Elastic fleet management for the serving layer.

The robustness subsystem that closes the ROADMAP's "autoscaling the
simulated fleet under load" item: per-device health scoring and failure
detection (:mod:`.health`), a lifecycle state machine with warm-up and
graceful drain (:mod:`.lifecycle`), a provably non-flapping autoscaler
(:mod:`.autoscale`), and the manager that executes it all against a
live scheduler (:mod:`.manager`).  See ``docs/serving.md``.
"""

from repro.serve.fleet.autoscale import Autoscaler, AutoscaleConfig, ScaleEvent
from repro.serve.fleet.health import DeviceHealth
from repro.serve.fleet.lifecycle import (
    LEGAL_EDGES,
    DeviceLifecycle,
    DeviceState,
    Transition,
)
from repro.serve.fleet.manager import FleetConfig, FleetManager

__all__ = [
    "Autoscaler",
    "AutoscaleConfig",
    "ScaleEvent",
    "DeviceHealth",
    "DeviceLifecycle",
    "DeviceState",
    "Transition",
    "LEGAL_EDGES",
    "FleetConfig",
    "FleetManager",
]
