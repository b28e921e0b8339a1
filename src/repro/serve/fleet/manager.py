"""The elastic fleet manager.

:class:`FleetManager` ties the failure detector
(:mod:`~repro.serve.fleet.health`), the lifecycle machine
(:mod:`~repro.serve.fleet.lifecycle`), and the autoscaler
(:mod:`~repro.serve.fleet.autoscale`) to a live
:class:`~repro.serve.sched.AsyncScheduler`:

* ``observe(ticket, request)`` — chained onto the scheduler's
  completion hook — feeds each served request's latency into the
  serving device's health model;
* ``tick(now_s)`` — called after every scheduler step — scans the
  incident log (cursor-based, so each record is read once) for failure
  evidence, probes warming and suspected devices with known-answer
  canaries, executes lifecycle transitions through the service's
  membership API (admit / suspend / resume / retire; the service keeps
  its shard fleet in step), and evaluates the autoscaler on the
  scheduler's total queue depth at its cadence.

Membership changes route traffic by *ladder surgery*: a suspected or
warming device's rungs are parked off the degradation ladder — so no
real request can reach it — while its built routines survive for canary
probing and an instant, construction-free restore.  Growth candidates
come from :data:`repro.devices.catalog.CATALOG`, restricted to devices
with pretuned parameters at the service precision; retired devices
re-enter the candidate pool (``retired -> provisioning``) carrying
their breaker history.

Everything is deterministic under a fixed seed: probes are salted with
the evaluation counter, queue depth is read from the scheduler's own
queues (telemetry on or off), and the scale-event/transition logs are
bit-identical run to run — the churn-soak acceptance test diffs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import errors
from repro.serve.fleet.autoscale import Autoscaler, AutoscaleConfig, ScaleEvent
from repro.serve.fleet.health import (
    LATENCY_SLACK,
    RECOVER_THRESHOLD,
    SUSPECT_THRESHOLD,
    DeviceHealth,
)
from repro.serve.fleet.lifecycle import DeviceLifecycle, DeviceState
from repro.serve.service import RUNG_FAILURES

__all__ = ["FleetConfig", "FleetManager"]

#: Incident kinds treated as failure evidence, with their weights.
_FAILURE_WEIGHTS: Dict[str, float] = {
    "breaker_trip": 2.0,
    "corruption": 1.5,
    "canary_fail": 1.0,
    "degraded": 1.0,  # only when a rung failed (a RUNG_FAILURES name)
}

#: Consecutive clean probes a parked device needs to serve: a warming
#: device's known-answer passes, a suspected device's recovery probes
#: (its health score must also clear RECOVER_THRESHOLD).
_CLEAN_PROBES = 2


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-manager policy knobs."""

    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)


class FleetManager:
    """Health-checked elastic membership over one async scheduler."""

    def __init__(self, scheduler, config: Optional[FleetConfig] = None):
        self.scheduler = scheduler
        self.service = scheduler.service
        self.config = config or FleetConfig()
        self.obs = scheduler.obs
        self.autoscaler = Autoscaler(self.config.autoscale)
        #: device -> lifecycle (never deleted: retirement is a state).
        self.lifecycles: Dict[str, DeviceLifecycle] = {}
        self.healths: Dict[str, DeviceHealth] = {}
        self.scale_events: List[ScaleEvent] = []
        self._incident_cursor = len(self.service.log)
        self._last_eval_t: Optional[float] = None
        self._evals = 0
        #: device -> monotone sequence of its latest entry into serving
        #: (shrink ties retire the newest member first).
        self._admit_seq: Dict[str, int] = {}
        self._admit_counter = 0
        for device in self.service.serving_devices:
            self.lifecycles[device] = DeviceLifecycle(
                device, DeviceState.SERVING, 0.0, "initial fleet"
            )
            self.healths[device] = DeviceHealth(device)
            self._admit_counter += 1
            self._admit_seq[device] = self._admit_counter
        #: Grow candidates: catalog devices servable at this precision.
        self._candidates = self._default_candidates()
        if self.obs.enabled:
            self._state_gauge = self.obs.gauge(
                "fleet_devices",
                "Fleet members per lifecycle state.",
                labelnames=("state",),
            )
            self._score_gauge = self.obs.gauge(
                "fleet_health_score",
                "Failure-detector health score per device (1 = healthy).",
                labelnames=("device",),
            )
            self._scale_counter = self.obs.counter(
                "fleet_scale_events_total",
                "Autoscale events executed, by direction.",
                labelnames=("direction",),
            )
            self._refresh_gauges()
        else:
            self._state_gauge = None
            self._score_gauge = None
            self._scale_counter = None

    def _default_candidates(self) -> List[str]:
        """Catalog devices servable at this precision, paper order."""
        from repro.devices.catalog import EVALUATED_DEVICES, list_device_names
        from repro.tuner.pretuned import pretuned_params

        ordered = list(EVALUATED_DEVICES) + [
            d for d in list_device_names() if d not in EVALUATED_DEVICES
        ]
        names = []
        for device in ordered:
            try:
                pretuned_params(device, self.service.precision)
            except KeyError:
                continue
            names.append(device)
        return names

    # -- membership census ----------------------------------------------
    def devices_in(self, *states: DeviceState) -> List[str]:
        return [d for d, lc in self.lifecycles.items() if lc.state in states]

    @property
    def fleet_size(self) -> int:
        """Members the autoscaler counts: serving plus almost-serving.

        Warming devices are included — they will serve within a couple
        of evaluations, so growing again for the same backlog would
        overshoot.  Suspected devices are *excluded*: a zone outage
        must read as lost capacity for the autoscaler to backfill.
        """
        return len(self.devices_in(DeviceState.SERVING, DeviceState.WARMING))

    # -- evidence plumbing -----------------------------------------------
    def observe(self, ticket, request) -> None:
        """Completion hook: fold one served request into its device's
        health."""
        if ticket.status != "served" or ticket.result is None:
            return
        device = ticket.result.device
        health = self.healths.get(device)
        if (health is not None
                and self.lifecycles[device].state is DeviceState.SERVING):
            health.observe_dispatch(
                ticket.result.service_s,
                getattr(request, "predicted_s", 0.0),
            )

    def _scan_incidents(self) -> None:
        """Read new incident records once, crediting failure evidence."""
        incidents = self.service.log.since(self._incident_cursor)
        self._incident_cursor += len(incidents)
        for incident in incidents:
            weight = _FAILURE_WEIGHTS.get(incident.kind)
            if weight is None:
                continue
            if incident.kind == "degraded":
                # Count only rungs that failed (the detail opens with the
                # name of a RUNG_FAILURES exception), not routing skips
                # like "circuit breaker open" or "deadline: ..." — those
                # are consequences of evidence already accrued.
                cls = getattr(errors, incident.detail.split(":", 1)[0], None)
                if not (isinstance(cls, type)
                        and issubclass(cls, RUNG_FAILURES)):
                    continue
            health = self.healths.get(incident.device)
            if health is not None:
                health.observe_failure(weight)

    # -- the periodic tick ----------------------------------------------
    def tick(self, now_s: float) -> None:
        """One control-plane pass; the soak calls this after each step."""
        self._scan_incidents()
        interval = self.config.autoscale.eval_interval_s
        if (self._last_eval_t is not None
                and now_s - self._last_eval_t < interval):
            return
        self._last_eval_t = now_s
        self._evals += 1
        self._check_serving(now_s)
        self._probe_parked(now_s)
        depth = float(sum(
            len(state.queue) for state in self.scheduler.queues
        ))
        direction = self.autoscaler.evaluate(now_s, depth, self.fleet_size)
        if direction == "grow":
            self._grow(now_s, depth)
        elif direction == "shrink":
            self._shrink(now_s, depth)
        self._refresh_gauges()

    # -- failure detection ----------------------------------------------
    def _check_serving(self, now_s: float) -> None:
        """Suspend serving devices whose health score collapsed."""
        for device in self.devices_in(DeviceState.SERVING):
            health = self.healths[device]
            breaker = self.service.breakers.get(device)
            score = health.score(
                breaker.state if breaker is not None else None
            )
            if score >= SUSPECT_THRESHOLD:
                continue
            self.lifecycles[device].transition(
                DeviceState.SUSPECTED, now_s,
                f"health score {score:.3f} < {SUSPECT_THRESHOLD}",
            )
            health.probe_streak = 0
            self.service.suspend_device(
                device, reason=f"suspected: health score {score:.3f}"
            )
            self.service.log.record(
                -1, "fleet_suspect", device=device,
                detail=f"score {score:.3f} at t={now_s * 1e3:.3f} ms",
            )

    def _probe_parked(self, now_s: float) -> None:
        """Canary-probe warming and suspected devices (parked rungs).

        A probe is *clean* only when it is both correct and fast: a
        brownout-degraded device answers correctly at several times its
        predicted latency, and admitting it back on timing evidence it
        still fails would re-suspect it next evaluation — flapping by
        another name.  Slow-but-correct probes end the device's probe streak
        without accruing failure load; their measured ratio feeds the
        latency EWMA, which is also how a recovered device's ratio
        drifts back down once the brownout window passes.
        """
        for device in self.devices_in(DeviceState.WARMING,
                                      DeviceState.SUSPECTED):
            lifecycle = self.lifecycles[device]
            health = self.healths[device]
            correct, ratio = self.service.probe_parked(
                device, f"fleet:probe:{device}:{self._evals}"
            )
            clean = (correct and ratio is not None
                     and ratio < LATENCY_SLACK)
            health.observe_probe(ratio, clean)
            if not correct:
                health.observe_failure(1.0)
            if health.probe_streak < _CLEAN_PROBES:
                continue
            if lifecycle.state is DeviceState.WARMING:
                lifecycle.transition(
                    DeviceState.SERVING, now_s,
                    f"{_CLEAN_PROBES} known-answer passes",
                )
                self.service.resume_device(device)
                self._admit_counter += 1
                self._admit_seq[device] = self._admit_counter
            else:  # SUSPECTED
                score = health.score()
                if score >= RECOVER_THRESHOLD:
                    lifecycle.transition(
                        DeviceState.SERVING, now_s,
                        f"{_CLEAN_PROBES} clean probes, score {score:.3f}",
                    )
                    self.service.resume_device(device)
                    self.service.log.record(
                        -1, "fleet_recover", device=device,
                        detail=f"score {score:.3f} at t={now_s * 1e3:.3f} ms",
                    )

    # -- scaling ---------------------------------------------------------
    def _grow(self, now_s: float, depth: float) -> None:
        before = self.fleet_size
        limit = self.autoscaler.step_limit("grow", before)
        added: List[str] = []
        for _ in range(limit):
            device = self._next_candidate()
            if device is None:
                break
            with self.obs.span("fleet.scale", direction="grow",
                               device=device):
                # Warming: parked off the ladder, canary traffic only.
                rungs = self.service.admit_parked(device)
                if not rungs:
                    # Nothing tuned after all: drop it from the pool.
                    self._candidates = [
                        c for c in self._candidates if c != device
                    ]
                    continue
                lifecycle = self.lifecycles.get(device)
                if lifecycle is None:
                    lifecycle = DeviceLifecycle(
                        device, DeviceState.PROVISIONING, now_s,
                        "autoscaler grow",
                    )
                    self.lifecycles[device] = lifecycle
                else:
                    lifecycle.transition(
                        DeviceState.PROVISIONING, now_s, "recommissioned"
                    )
                self.healths[device] = DeviceHealth(device)
                lifecycle.transition(
                    DeviceState.WARMING, now_s, "rungs built and verified"
                )
                added.append(device)
        if added:
            self._record_event("grow", now_s, added, before, depth)

    def _shrink(self, now_s: float, depth: float) -> None:
        before = self.fleet_size
        limit = self.autoscaler.step_limit("shrink", before)
        serving = self.devices_in(DeviceState.SERVING)
        if not serving or limit <= 0:
            return
        # Never drain below min_devices of *serving* capacity.
        limit = min(limit, max(0, len(serving) - self.config.autoscale.min_devices))
        if limit <= 0:
            return
        # Drain the least healthy first; ties leave the longest-serving
        # incumbents alone (LIFO on admission sequence).
        order = sorted(
            serving,
            key=lambda d: (
                self.healths[d].score(),
                -self._admit_seq.get(d, 0),
            ),
        )
        removed: List[str] = []
        for device in order[:limit]:
            with self.obs.span("fleet.scale", direction="shrink",
                               device=device):
                lifecycle = self.lifecycles[device]
                lifecycle.transition(
                    DeviceState.DRAINING, now_s, "autoscaler shrink"
                )
                # The discrete-event loop has no in-flight work between
                # steps, so the graceful drain completes immediately:
                # the ladder stops routing to it and nothing is queued
                # on a device (queues are per-tenant, not per-device).
                lifecycle.transition(
                    DeviceState.RETIRED, now_s, "drain complete"
                )
                self.service.retire_device(
                    device, reason="autoscaler shrink"
                )
                removed.append(device)
        if removed:
            self._record_event("shrink", now_s, removed, before, depth)

    def _next_candidate(self) -> Optional[str]:
        """The first candidate not currently occupying the fleet.

        Retired devices are eligible again — the pool cycles — but
        fresh candidates are preferred over recommissions.
        """
        active = set(self.devices_in(
            DeviceState.PROVISIONING, DeviceState.WARMING,
            DeviceState.SERVING, DeviceState.SUSPECTED, DeviceState.DRAINING,
        ))
        fresh = [c for c in self._candidates
                 if c not in active and c not in self.lifecycles]
        if fresh:
            return fresh[0]
        for candidate in self._candidates:
            if candidate not in active:
                return candidate
        return None

    def _record_event(self, direction: str, now_s: float,
                      devices: List[str], before: int,
                      depth: float) -> None:
        event = ScaleEvent(
            t_s=now_s, direction=direction, devices=tuple(devices),
            fleet_before=before, fleet_after=self.fleet_size,
            reason=f"depth {depth:g}",
        )
        self.scale_events.append(event)
        self.service.log.record(
            -1, "fleet_scale",
            device=",".join(devices),
            detail=(f"{direction} {len(devices)} at t={now_s * 1e3:.3f} ms "
                    f"({event.reason}); fleet {before} -> "
                    f"{event.fleet_after}"),
        )
        if self._scale_counter is not None:
            self._scale_counter.labels(direction=direction).inc()

    # -- telemetry / report ----------------------------------------------
    def _refresh_gauges(self) -> None:
        if self._state_gauge is None:
            return
        for state in DeviceState:
            self._state_gauge.labels(state=state.value).set(
                len(self.devices_in(state))
            )
        for device, health in self.healths.items():
            breaker = self.service.breakers.get(device)
            self._score_gauge.labels(device=device).set(
                round(health.score(
                    breaker.state if breaker is not None else None
                ), 6)
            )

    def summary(self) -> Dict:
        """The fleet section of the soak report (JSON-ready)."""
        return {
            "evaluations": self.autoscaler.evaluations,
            "scale_events": [e.to_dict() for e in self.scale_events],
            "grow_events": sum(
                1 for e in self.scale_events if e.direction == "grow"
            ),
            "shrink_events": sum(
                1 for e in self.scale_events if e.direction == "shrink"
            ),
            "devices": {
                device: {
                    "state": lifecycle.state.value,
                    "health_score": round(
                        self.healths[device].score(), 6
                    ),
                    "dispatches": self.healths[device].dispatches,
                    "failure_events": self.healths[device].failure_events,
                    "transitions": [
                        t.to_dict() for t in lifecycle.transitions
                    ],
                }
                for device, lifecycle in sorted(self.lifecycles.items())
            },
            "final_serving": sorted(self.devices_in(DeviceState.SERVING)),
        }

    def describe(self) -> str:
        lines = [f"fleet manager: {self.fleet_size} active "
                 f"({len(self.scale_events)} scale events)"]
        for device, lifecycle in sorted(self.lifecycles.items()):
            lines.append(f"  {device:12s} {lifecycle.state.value}")
        return "\n".join(lines)
