"""Structured incident log and service counters.

Every robustness event the service handles — a shed request, a breaker
trip, a degradation, a caught corruption, a quarantine or re-admission —
is appended to the :class:`IncidentLog` as a typed :class:`Incident`
record, and aggregated into :class:`ServiceCounters`.  Both persist
crash-safe through :mod:`repro.persist` (atomic write + checksum), so a
soak run's artifact survives a SIGKILL mid-flush and a post-mortem can
account for every decision.

Determinism contract: under a fixed service seed, workload seed, and
fault plan, the incident sequence and the counters are bit-identical
run to run — the acceptance test diffs them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.persist import dump_json_atomic, load_json_checked

__all__ = ["Incident", "IncidentLog", "ServiceCounters", "INCIDENT_KINDS"]

#: The incident taxonomy (see docs/serving.md for the schema).
INCIDENT_KINDS = (
    "invalid",          # request failed validation
    "shed",             # admission control rejected the request
    "degraded",         # a ladder rung was skipped or failed over
    "breaker_trip",     # a device breaker opened
    "breaker_probe",    # a half-open probe was admitted
    "breaker_close",    # a breaker recovered to closed
    "corruption",       # Freivalds verification caught a wrong result
    "quarantine",       # a kernel was quarantined
    "canary_pass",      # a quarantined kernel passed a known-answer canary
    "canary_fail",      # a quarantined kernel failed a canary
    "readmit",          # a quarantined kernel was re-admitted
    "deadline_missed",  # the response came back after its deadline
    "static_reject",    # static analysis refused a ladder rung's kernel
    "batch",            # a coalesced batch was dispatched
    "shard",            # a large request was sharded across the fleet
    "hedge",            # a hedged re-launch was attempted
    "deadline_cancel",  # queued work provably unable to meet its deadline
    "shed_retry",       # a previously shed request was re-admitted
    "hot_swap",         # a serving kernel was hot-swapped in place
    "drain",            # the scheduler drained gracefully
    # -- elastic fleet lifecycle (see repro.serve.fleet) ----------------
    "fleet_admit",      # a device's rungs were admitted to the ladder
    "fleet_suspend",    # a device was parked off the ladder (suspected)
    "fleet_resume",     # a parked device was restored to the ladder
    "fleet_retire",     # a device was removed permanently
    "fleet_scale",      # the autoscaler grew or shrank the fleet
    "fleet_suspect",    # the failure detector suspected a device
    "fleet_recover",    # a suspected device passed its recovery probes
)


@dataclass(frozen=True)
class Incident:
    """One robustness event, in request order."""

    seq: int
    request_id: int
    kind: str
    device: str = ""
    rung: str = ""
    detail: str = ""
    #: The observability trace active when the incident was recorded
    #: (empty when the service runs without tracing) — joins the
    #: incident log to ``repro trace`` output and persisted trace files.
    trace_id: str = ""

    def __post_init__(self):
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(
                f"unknown incident kind {self.kind!r} (one of {INCIDENT_KINDS})"
            )

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "Incident":
        return cls(**d)


@dataclass
class ServiceCounters:
    """Aggregate service health counters (the soak run's scoreboard)."""

    requests: int = 0
    admitted: int = 0
    #: Shed *events* (one request shed twice counts twice).
    shed: int = 0
    #: Requests that were shed at least once but later served on a
    #: retry after the shedder's ``retry_after_s`` hint — kept separate
    #: from ``shed`` so shed-rate numbers aren't double-counted: the
    #: hard-shed count is ``shed - (shed events of retried requests)``,
    #: which the async soak report derives per request.
    shed_retried: int = 0
    invalid: int = 0
    completed: int = 0
    degraded: int = 0
    breaker_trips: int = 0
    verified: int = 0
    corruption_caught: int = 0
    quarantined: int = 0
    readmitted: int = 0
    canaries_run: int = 0
    deadline_missed: int = 0
    static_rejects: int = 0
    # -- async scheduler accounting (see repro.serve.sched) -------------
    #: Coalesced batches dispatched, and the members they carried.
    batches: int = 0
    batched_members: int = 0
    #: Large requests sharded across the multi-device fleet.
    sharded: int = 0
    #: Hedged re-launches attempted after a risky (half-open) serve.
    hedges: int = 0
    #: Queued requests cancelled because they provably could not meet
    #: their deadline.
    cancelled: int = 0
    #: Serving kernels replaced in place by a hot swap.
    hot_swaps: int = 0
    # -- elastic fleet accounting (see repro.serve.fleet) ----------------
    #: Devices admitted to / retired from the serving ladder.
    fleet_admits: int = 0
    fleet_retires: int = 0
    #: Responses per ladder rung name ("tuned", "pretuned", "direct",
    #: "reference"), e.g. {"tuned": 950, "reference": 3}.
    served_by_rung: Dict[str, int] = field(default_factory=dict)

    #: Integer fields exported by a bound metrics registry, in the
    #: render order.  ``served_by_rung`` exports as a labeled series.
    COUNTER_FIELDS = (
        "requests", "admitted", "shed", "shed_retried", "invalid",
        "completed", "degraded", "breaker_trips", "verified",
        "corruption_caught", "quarantined", "readmitted", "canaries_run",
        "deadline_missed", "static_rejects", "batches", "batched_members",
        "sharded", "hedges", "cancelled", "hot_swaps",
        "fleet_admits", "fleet_retires",
    )

    def bind_registry(self, registry, prefix: str = "serve") -> None:
        """Export every counter through an obs metrics registry.

        The fields stay the only store; the registry reads them as
        ``<prefix>_<field>_total`` (and ``served_by_rung`` as
        ``<prefix>_served_by_rung_total{rung=...}``) whenever it is read.
        """
        registry.track(
            self,
            {name: (f"{prefix}_{name}_total",
                    f"ServiceCounters.{name} (see docs/serving.md).")
             for name in self.COUNTER_FIELDS},
            {"served_by_rung": (f"{prefix}_served_by_rung_total",
                                "Responses per degradation-ladder rung.",
                                "rung")},
        )

    def count_rung(self, rung: str) -> None:
        self.served_by_rung[rung] = self.served_by_rung.get(rung, 0) + 1

    def as_dict(self) -> Dict:
        return asdict(self)

    def render(self) -> str:
        lines = ["service counters:"]
        for name in self.COUNTER_FIELDS:
            lines.append(f"  {name:18s}: {getattr(self, name)}")
        for rung in sorted(self.served_by_rung):
            lines.append(f"  served by {rung:9s}: {self.served_by_rung[rung]}")
        return "\n".join(lines)


class IncidentLog:
    """Append-only log of :class:`Incident` records."""

    FORMAT = "repro-incident-log/1"

    def __init__(self) -> None:
        self._incidents: List[Incident] = []

    def record(self, request_id: int, kind: str, device: str = "",
               rung: str = "", detail: str = "", trace_id: str = "") -> Incident:
        incident = Incident(
            seq=len(self._incidents), request_id=request_id, kind=kind,
            device=device, rung=rung, detail=detail, trace_id=trace_id,
        )
        self._incidents.append(incident)
        return incident

    def __len__(self) -> int:
        return len(self._incidents)

    def __iter__(self):
        return iter(self._incidents)

    def since(self, seq: int) -> List[Incident]:
        """The records from sequence number ``seq`` on, without copying
        the ones before it."""
        return self._incidents[seq:]

    def by_kind(self, kind: str) -> List[Incident]:
        return [i for i in self._incidents if i.kind == kind]

    def by_trace(self, trace_id: str) -> List[Incident]:
        """All incidents stamped with one trace (the join to obs traces)."""
        return [i for i in self._incidents if i.trace_id == trace_id]

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for incident in self._incidents:
            counts[incident.kind] = counts.get(incident.kind, 0) + 1
        return counts

    # -- persistence (crash-safe, see repro.persist) --------------------
    def to_dict(self) -> Dict:
        return {
            "format": self.FORMAT,
            "incidents": [i.to_dict() for i in self._incidents],
        }

    def save(self, path: str) -> str:
        return dump_json_atomic(path, self.to_dict(), indent=2)

    @classmethod
    def load(cls, path: str) -> Optional["IncidentLog"]:
        """Load a persisted log; None for missing/corrupt files."""
        payload = load_json_checked(path)
        if payload is None or payload.get("format") != cls.FORMAT:
            return None
        log = cls()
        log._incidents = [
            Incident.from_dict(d) for d in payload.get("incidents", [])
        ]
        return log
