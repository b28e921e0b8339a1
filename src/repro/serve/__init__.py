"""Resilient GEMM serving layer.

The tuner (:mod:`repro.tuner`) survives injected faults; this package
hardens the *call path* users actually hit.  :class:`GemmService`
fronts the tuned routines with production-grade robustness:

* up-front request validation with typed errors
  (:class:`~repro.errors.InvalidRequestError`);
* bounded-queue admission control with load shedding
  (:class:`~repro.errors.AdmissionError`);
* per-device circuit breakers driven by the
  :class:`~repro.errors.TransientError` taxonomy;
* a deadline-aware graceful-degradation ladder
  (tuned kernel -> pretuned params -> direct copy-free routine -> host
  reference) so every admitted request returns a numerically correct
  result even with the whole simulated fleet faulted out;
* seeded Freivalds O(n^2) result verification that catches the silent
  ``result`` corruption :mod:`repro.clsim.faults` injects, quarantining
  the offending kernel and re-serving through the next rung; periodic
  known-answer canaries re-admit quarantined kernels once they recover;
* a structured incident log and service counters, persisted crash-safe
  through :mod:`repro.persist`.

On top of the service sits the async multi-tenant scheduler
(:mod:`repro.serve.sched`): bounded per-tenant queues under weighted
fair queueing, coalescing of small same-shape requests into pipelined
:class:`~repro.gemm.batched.BatchedGemm` launches, sharding of large
requests across the fleet, deadline-aware cancellation, hedged
re-launches, mid-run hot swaps of the serving kernel, and graceful
drain — exercised end to end by :func:`run_async_soak`.  The elastic
fleet manager (:mod:`repro.serve.fleet`) is a layer that soak switches
on (:attr:`AsyncSoakConfig.fleet`): the churn soak.

See ``docs/serving.md`` for the architecture walk-through and
``repro serve`` / ``repro soak`` (plus ``--async``/``--tenants``) for
the CLI entry points.
"""

from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.fleet import (
    AutoscaleConfig,
    Autoscaler,
    DeviceHealth,
    DeviceLifecycle,
    DeviceState,
    FleetConfig,
    FleetManager,
    ScaleEvent,
)
from repro.serve.incident import Incident, IncidentLog, ServiceCounters
from repro.serve.ladder import DegradationLadder, Rung
from repro.serve.sched import (
    AsyncScheduler,
    SchedulerConfig,
    TenantConfig,
    Ticket,
)
from repro.serve.service import (
    BatchingAccount,
    GemmCall,
    GemmService,
    ServeResult,
    ServiceConfig,
)
from repro.serve.soak import (
    DEFAULT_TENANT_LOADS,
    AsyncSoakConfig,
    AsyncSoakReport,
    SoakConfig,
    SoakReport,
    TenantLoad,
    run_async_soak,
    run_soak,
)
from repro.serve.verify import FreivaldsCheck, FreivaldsVerifier

__all__ = [
    "AsyncScheduler",
    "AsyncSoakConfig",
    "AsyncSoakReport",
    "AutoscaleConfig",
    "Autoscaler",
    "BatchingAccount",
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_TENANT_LOADS",
    "DegradationLadder",
    "DeviceHealth",
    "DeviceLifecycle",
    "DeviceState",
    "FleetConfig",
    "FleetManager",
    "FreivaldsCheck",
    "FreivaldsVerifier",
    "GemmCall",
    "GemmService",
    "Incident",
    "IncidentLog",
    "Rung",
    "ScaleEvent",
    "SchedulerConfig",
    "ServeResult",
    "ServiceConfig",
    "SoakConfig",
    "SoakReport",
    "TenantConfig",
    "TenantLoad",
    "Ticket",
    "run_async_soak",
    "run_soak",
]
