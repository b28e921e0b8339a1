"""Seeded soak testing of the serving layer under chaos.

A soak run drives a :class:`~repro.serve.service.GemmService` with a
deterministic synthetic workload (sizes, alpha/beta, transposes, and
inter-arrival spacing all drawn from one seed), optionally under a
fault plan, and **checks every single response against the host
reference** — the ground truth the acceptance criterion is stated in:
a 1,000-request soak under a >= 10% fault plan must complete with zero
numerically incorrect responses.

Two soak loops share the operand draws and the ground-truth check:

* :func:`run_soak` submits one request at a time to the service;
* :func:`run_async_soak` streams a multi-tenant workload through the
  async scheduler.  With :attr:`AsyncSoakConfig.fleet` set, a live
  :class:`~repro.serve.fleet.FleetManager` autoscales and heals the
  fleet during the run (the churn soak), and the report carries a fleet
  section beside the serving one.

The reports bundle the service counters, the incident-kind histogram,
and the end-to-end wrong-answer count, and persist crash-safe through
:mod:`repro.persist` so CI can archive them as artifacts.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionError
from repro.gemm.reference import reference_gemm, relative_error
from repro.persist import dump_json_atomic
from repro.serve.fleet import FleetConfig, FleetManager
from repro.serve.sched import AsyncScheduler, SchedulerConfig, TenantConfig
from repro.serve.service import GemmService

__all__ = [
    "SoakConfig", "SoakReport", "run_soak",
    "TenantLoad", "AsyncSoakConfig", "AsyncSoakReport", "run_async_soak",
    "DEFAULT_TENANT_LOADS",
]

#: How far ahead of simulated time the async soak materialises
#: arrivals; keeps the in-flight operand working set bounded for
#: 1e5-request runs.
_LOOKAHEAD_S = 5e-4
#: Time-trajectory resolution of the async soak's benchmark report.
_TRAJECTORY_BUCKETS = 20
#: Recovery bar of the churn soak: after a fault episode ends, the
#: windowed p99 must return to within this factor of the pre-episode
#: steady state, measured over sliding windows this wide.
_RECOVERY_FACTOR = 2.0
_RECOVERY_WINDOW_S = 0.02


def _draw_problem(rng: np.random.Generator, dtype, m: int, n: int, k: int,
                  trans_rate: float, beta_rate: float) -> Tuple:
    """Draw one request's transposes, alpha/beta and operands for an
    ``m x n x k`` problem: ``(a, b, c, alpha, beta, transa, transb)``."""
    transa = "T" if rng.random() < trans_rate else "N"
    transb = "T" if rng.random() < trans_rate else "N"
    alpha = float(rng.uniform(-2.0, 2.0))
    use_beta = rng.random() < beta_rate
    beta = float(rng.uniform(-1.0, 1.0)) if use_beta else 0.0
    a = rng.standard_normal((m, k) if transa == "N" else (k, m)).astype(dtype)
    b = rng.standard_normal((k, n) if transb == "N" else (n, k)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype) if use_beta else None
    return (a, b, c, alpha, beta, transa, transb)


class _GroundTruth:
    """Checks every served response against the host reference.

    Counts the wrong answers, keeps the worst passing relative error,
    and records ``(request id, rung, relative error, *extra)`` per
    failure for triage.
    """

    def __init__(self, dtype) -> None:
        self.tolerance = 1e-10 if dtype == np.float64 else 1e-4
        self.wrong = 0
        self.worst_error = 0.0
        self.failures: List[Tuple] = []

    def check(self, problem: Tuple, c_out, rid: int, rung: str,
              *extra) -> None:
        a, b, c, alpha, beta, transa, transb = problem
        expected = reference_gemm(transa, transb, alpha, a, b, beta, c)
        err = float(relative_error(c_out, expected))
        if not np.isfinite(err) or err > self.tolerance:
            self.wrong += 1
            self.failures.append((rid, rung, err) + extra)
        else:
            self.worst_error = max(self.worst_error, err)


def _wrong_answers_problem(count: int) -> str:
    return f"{count} numerically incorrect responses escaped the serving layer"


@dataclass(frozen=True)
class SoakConfig:
    """Workload shape of one soak run (fully determined by ``seed``)."""

    requests: int = 1000
    seed: int = 0
    #: Problem sizes are drawn uniformly from this pool (kept small so a
    #: thousand functional GEMMs stay fast in the simulator).
    sizes: Tuple[int, ...] = (16, 24, 32, 48, 64)
    #: Fraction of requests using beta != 0 (exercises the C operand).
    beta_rate: float = 0.25
    #: Fraction of requests with transposed operands.
    trans_rate: float = 0.25
    #: Mean simulated inter-arrival spacing; individual gaps jitter
    #: around it deterministically.
    interarrival_s: float = 0.005


@dataclass
class SoakReport:
    """Outcome of one soak run."""

    requests: int
    served: int
    shed: int
    #: Responses whose ground-truth comparison failed — MUST be zero.
    wrong_answers: int
    worst_error: float
    counters: Dict
    incident_kinds: Dict[str, int]
    #: (request id, rung, relative error, trace id) of any wrong answer,
    #: for triage; the trace id ("" with tracing off) joins the failure
    #: to its persisted trace and incident records.
    failures: List[Tuple[int, str, float, str]] = field(default_factory=list)

    def problems(self) -> List[str]:
        """Why the soak is not clean (empty when it is)."""
        if not self.wrong_answers:
            return []
        return [_wrong_answers_problem(self.wrong_answers)]

    @property
    def clean(self) -> bool:
        return not self.problems()

    def as_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "wrong_answers": self.wrong_answers,
            "worst_error": self.worst_error,
            "counters": self.counters,
            "incident_kinds": self.incident_kinds,
            "failures": [list(f) for f in self.failures],
        }

    def save(self, path: str) -> str:
        return dump_json_atomic(path, self.as_dict(), indent=2)

    def render(self) -> str:
        lines = [
            f"soak: {self.served}/{self.requests} served, {self.shed} shed, "
            f"{self.wrong_answers} wrong answers "
            f"(worst relative error {self.worst_error:.3e})",
        ]
        for kind in sorted(self.incident_kinds):
            lines.append(f"  incidents[{kind}]: {self.incident_kinds[kind]}")
        for rid, rung, err, trace_id in self.failures:
            lines.append(
                f"  FAILURE request {rid} via {rung}: relative error "
                f"{err:.3e}" + (f" trace={trace_id}" if trace_id else "")
            )
        return "\n".join(lines)


def run_soak(service: GemmService, config: Optional[SoakConfig] = None) -> SoakReport:
    """Drive ``service`` with a seeded workload; ground-truth every response."""
    config = config or SoakConfig()
    rng = np.random.default_rng(config.seed)
    truth = _GroundTruth(service.dtype)
    served = shed = 0
    for rid in range(1, config.requests + 1):
        n = int(rng.choice(config.sizes))
        m = int(rng.choice(config.sizes))
        k = int(rng.choice(config.sizes))
        problem = _draw_problem(rng, service.dtype, m, n, k,
                                config.trans_rate, config.beta_rate)
        a, b, c, alpha, beta, transa, transb = problem
        # Deterministic arrival jitter: bursts push the backlog into the
        # shedding regime so admission control actually exercises.
        dt = config.interarrival_s * float(rng.uniform(0.2, 1.8))
        try:
            result = service.submit(
                a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb,
                arrival_dt_s=dt, request_id=rid,
            )
        except AdmissionError:
            shed += 1
            continue
        served += 1
        truth.check(problem, result.c, rid, result.rung, result.trace_id)
    return SoakReport(
        requests=config.requests,
        served=served,
        shed=shed,
        wrong_answers=truth.wrong,
        worst_error=truth.worst_error,
        counters=service.counters.as_dict(),
        incident_kinds=service.log.kind_counts(),
        failures=truth.failures,
    )


# ======================================================================
# The async multi-tenant soak (see repro.serve.sched)
# ======================================================================

@dataclass(frozen=True)
class TenantLoad(TenantConfig):
    """One tenant in the async soak: its contract with the scheduler
    (the :class:`~repro.serve.sched.TenantConfig` fields) plus the load
    it offers.

    ``load_share`` sets how many of the soak's requests this tenant
    generates relative to the others (a 10:1 skew is two tenants with
    shares 10 and 1) — deliberately decoupled from ``weight``, the fair
    share the scheduler grants, so the starvation tests can overload one
    tenant without letting it crowd the rest out.
    """

    load_share: float = 1.0
    sizes: Tuple[int, ...] = (16, 24, 32, 48, 64)
    #: Square problems (M=N=K) coalesce readily; rectangular draws all
    #: three dims independently.
    square: bool = True
    trans_rate: float = 0.25
    beta_rate: float = 0.25

    def tenant_config(self) -> TenantConfig:
        """The scheduler contract alone, as a plain ``TenantConfig``."""
        return TenantConfig(**{f.name: getattr(self, f.name)
                               for f in fields(TenantConfig)})


#: The acceptance-soak tenant mix: four tenants, mixed sizes, a 10:1
#: offered-load skew between "burst" and "steady", one latency-sensitive
#: tenant with deadlines, and one bulk tenant whose large NN problems
#: shard across the fleet when the service has one.
DEFAULT_TENANT_LOADS: Tuple[TenantLoad, ...] = (
    TenantLoad("burst", weight=1.0, load_share=10.0,
               sizes=(16, 16, 24, 32, 32, 48, 64), queue_capacity=96),
    TenantLoad("steady", weight=2.0, load_share=1.0,
               sizes=(32, 48, 64, 96, 128), square=False,
               queue_capacity=64),
    TenantLoad("latency", weight=4.0, load_share=2.0,
               sizes=(16, 32), trans_rate=0.0, beta_rate=0.0,
               queue_capacity=32, deadline_s=0.005),
    TenantLoad("bulk", weight=1.0, load_share=0.5,
               sizes=(256, 320), trans_rate=0.0, beta_rate=0.25,
               queue_capacity=16, shed_retries=2),
)


@dataclass(frozen=True)
class AsyncSoakConfig:
    """Workload shape of one async soak (fully determined by ``seed``)."""

    requests: int = 10_000
    seed: int = 0
    tenants: Tuple[TenantLoad, ...] = DEFAULT_TENANT_LOADS
    #: Mean simulated inter-arrival across the merged workload; the
    #: default overloads the service enough to exercise queueing,
    #: coalescing, and shedding without drowning every tenant.
    interarrival_s: float = 2.5e-5
    #: Hot-swap the first device's serving kernel at this fraction of
    #: the arrival horizon (0 disables).
    hot_swap_at: float = 0.5
    #: Coalescing cap forwarded to the scheduler.
    max_batch: int = 16
    #: Deterministic demand cycle: during the second half of every
    #: ``load_cycle_s`` of simulated time, arrival gaps stretch by
    #: ``load_calm_factor``.  0 disables (constant offered load) — the
    #: churn soak enables it so the autoscaler has real demand swings to
    #: track instead of a uniformly overloaded queue it can only grow
    #: into.
    load_cycle_s: float = 0.0
    load_calm_factor: float = 1.0
    #: Run a live :class:`~repro.serve.fleet.FleetManager` with these
    #: knobs, ticked after every scheduler step so autoscaling and
    #: failure detection act *during* the soak (None: a fixed fleet).
    #: The report then carries the fleet section.  A churn soak also
    #: sets ``hot_swap_at=0``, since the manager parks and resumes
    #: devices itself, and a demand wave, since a flat overload only
    #: ever asks the autoscaler to grow.
    fleet: Optional[FleetConfig] = None


#: Fixed latency-histogram bucket bounds (milliseconds) for the
#: per-tenant artifact — fixed so runs diff cleanly.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0,
)


def _percentile(values: List[float], q: float) -> float:
    """Deterministic nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _histogram_ms(latencies_s: List[float]) -> Dict[str, int]:
    """Latency histogram over the fixed millisecond buckets."""
    counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
    for lat in latencies_s:
        ms = lat * 1e3
        for i, bound in enumerate(LATENCY_BUCKETS_MS):
            if ms <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = [f"le_{b:g}" for b in LATENCY_BUCKETS_MS] + ["overflow"]
    return dict(zip(labels, counts))


@dataclass
class AsyncSoakReport:
    """Outcome of one async multi-tenant soak.

    :meth:`as_dict` is the ``BENCH_serving.json`` payload; a churn soak
    (one with a fleet layer) also has the :meth:`fleet_dict`
    ``BENCH_fleet.json`` payload, which nests the serving one.
    """

    FORMAT = "repro-bench-serving/1"
    FLEET_FORMAT = "repro-bench-fleet/1"

    requests: int
    served: int
    #: Requests dropped for good (out of shed retries).
    hard_shed: int
    #: Shed *events* including ones later retried successfully.
    shed_events: int
    #: Requests served after at least one shed (never double-counted
    #: against ``hard_shed``).
    shed_retried: int
    cancelled: int
    wrong_answers: int
    worst_error: float
    #: Simulated duration of the whole soak.
    duration_s: float
    aggregate_gflops: float
    p50_ms: float
    p99_ms: float
    #: Small-GEMM (every dim <= 128) throughput: the synchronous path
    #: vs the coalesced batching path, over identical work.
    small_gemm: Dict
    #: Tenants that submitted work but had none served — MUST be empty.
    starved_tenants: List[str]
    per_tenant: Dict[str, Dict]
    counters: Dict
    incident_kinds: Dict[str, int]
    #: Time-bucketed (p50/p99 latency, shed, GFlop/s) trajectory.
    trajectory: List[Dict]
    failures: List[Tuple[int, str, float]] = field(default_factory=list)
    #: The fleet section of a churn soak (None without a fleet layer):
    #: the manager's summary (evaluations, scale events, per-device
    #: lifecycles), the autoscaler cooldown, the opposite-direction
    #: event pairs inside one cooldown (``flap_pairs``, MUST be empty),
    #: and the correlated fault episodes with their measured p99
    #: recovery.
    fleet: Optional[Dict] = None

    def problems(self) -> List[str]:
        """Why the soak is not clean (empty when it is)."""
        out = []
        if self.wrong_answers:
            out.append(_wrong_answers_problem(self.wrong_answers))
        if self.starved_tenants:
            out.append(f"starved tenants: {', '.join(self.starved_tenants)}")
        if self.fleet is not None and self.fleet["flap_pairs"]:
            out.append(f"{len(self.fleet['flap_pairs'])} scale-event flap "
                       f"pairs inside one cooldown")
        return out

    @property
    def clean(self) -> bool:
        return not self.problems()

    def as_dict(self) -> Dict:
        return {
            "format": self.FORMAT,
            "requests": self.requests,
            "served": self.served,
            "hard_shed": self.hard_shed,
            "shed_events": self.shed_events,
            "shed_retried": self.shed_retried,
            "cancelled": self.cancelled,
            "wrong_answers": self.wrong_answers,
            "worst_error": self.worst_error,
            "duration_s": self.duration_s,
            "aggregate_gflops": self.aggregate_gflops,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "shed_rate": (self.hard_shed / self.requests
                          if self.requests else 0.0),
            "small_gemm": self.small_gemm,
            "starved_tenants": list(self.starved_tenants),
            "tenants": self.per_tenant,
            "counters": self.counters,
            "incident_kinds": self.incident_kinds,
            "trajectory": self.trajectory,
            "failures": [list(f) for f in self.failures],
        }

    def fleet_dict(self) -> Dict:
        """The ``BENCH_fleet.json`` payload (a churn soak only)."""
        return {"format": self.FLEET_FORMAT, "serving": self.as_dict(),
                "fleet": self.fleet}

    def save(self, path: str) -> str:
        return dump_json_atomic(path, self.as_dict(), indent=2)

    def render(self) -> str:
        lines = [
            f"async soak: {self.served}/{self.requests} served, "
            f"{self.hard_shed} hard-shed ({self.shed_retried} recovered "
            f"by retry), {self.cancelled} cancelled, "
            f"{self.wrong_answers} wrong answers",
            f"  simulated duration {self.duration_s * 1e3:.3f} ms, "
            f"aggregate {self.aggregate_gflops:.2f} GFlop/s, "
            f"p50 {self.p50_ms:.3f} ms, p99 {self.p99_ms:.3f} ms",
        ]
        sg = self.small_gemm
        if sg.get("members"):
            lines.append(
                f"  small GEMM (<=128): {sg['sync_gflops']:.2f} -> "
                f"{sg['batched_gflops']:.2f} GFlop/s via coalescing "
                f"({sg['speedup']:.2f}x over the synchronous path)"
            )
        for name in sorted(self.per_tenant):
            t = self.per_tenant[name]
            lines.append(
                f"  {name:10s} served {t['served']:6d}/{t['submitted']:<6d} "
                f"p50 {t['p50_ms']:8.3f} ms  p99 {t['p99_ms']:8.3f} ms  "
                f"shed {t['hard_shed']:4d}  cancelled {t['cancelled']}"
            )
        if self.starved_tenants:
            lines.append(f"  STARVED: {', '.join(self.starved_tenants)}")
        for rid, rung, err in self.failures[:10]:
            lines.append(f"  FAILURE request {rid} via {rung}: "
                         f"relative error {err:.3e}")
        if self.fleet is not None:
            lines.extend(self._render_fleet())
        return "\n".join(lines)

    def _render_fleet(self) -> List[str]:
        fleet = self.fleet
        lines = [
            f"fleet: {len(fleet['scale_events'])} scale events "
            f"({fleet['grow_events']} grow, {fleet['shrink_events']} "
            f"shrink) over {fleet['evaluations']} evaluations, "
            f"{len(fleet['flap_pairs'])} flap pairs, serving at end: "
            f"{', '.join(fleet['final_serving']) or '-'}"
        ]
        for name, dev in sorted(fleet["devices"].items()):
            lines.append(
                f"  {name:12s} {dev['state']:12s} "
                f"score {dev['health_score']:.3f}  "
                f"{len(dev['transitions'])} transitions"
            )
        for ep in fleet["episodes"]:
            span = f"{ep['start_s'] * 1e3:.1f}-{ep['end_s'] * 1e3:.1f} ms"
            if ep["recovered_after_s"] is not None:
                rec = f"p99 recovered in {ep['recovered_after_s'] * 1e3:.1f} ms"
            else:
                rec = "p99 recovery not observed in run"
            lines.append(
                f"  episode {ep['kind']} @ {ep['zone']} [{span}]: {rec}"
            )
        return lines


def _calm_stretch(t: float, cycle_s: float, calm_factor: float) -> float:
    """Arrival-gap multiplier at simulated time ``t``.

    The first half of every ``cycle_s`` runs at full offered load, the
    second half stretches gaps by ``calm_factor`` — a square demand
    wave, phase-locked across tenants because it is a pure function of
    the simulated clock.
    """
    if cycle_s <= 0.0 or calm_factor <= 1.0:
        return 1.0
    phase = (t % cycle_s) / cycle_s
    return calm_factor if phase >= 0.5 else 1.0


def _tenant_stream(load: TenantLoad, count: int, horizon_s: float,
                   rng: np.random.Generator, dtype,
                   cycle_s: float = 0.0, calm_factor: float = 1.0):
    """Yield ``(arrival_s, load, problem)`` for one tenant, in arrival
    order; operands materialise lazily (one problem ahead per tenant)."""
    if count <= 0:
        return
    gap = horizon_s / count
    t = gap * float(rng.uniform(0.0, 1.0))
    for _ in range(count):
        if load.square:
            m = n = k = int(rng.choice(load.sizes))
        else:
            m = int(rng.choice(load.sizes))
            n = int(rng.choice(load.sizes))
            k = int(rng.choice(load.sizes))
        yield (t, load, _draw_problem(rng, dtype, m, n, k,
                                      load.trans_rate, load.beta_rate))
        t += (gap * float(rng.uniform(0.2, 1.8))
              * _calm_stretch(t, cycle_s, calm_factor))


def _tenant_counts(tenants: Sequence[TenantLoad], requests: int) -> List[int]:
    """Split the request budget by load share (sum is exact)."""
    total = sum(t.load_share for t in tenants)
    counts = [int(requests * t.load_share / total) for t in tenants]
    # Hand out the rounding remainder deterministically, largest first.
    order = sorted(range(len(tenants)),
                   key=lambda i: (-tenants[i].load_share, i))
    i = 0
    while sum(counts) < requests:
        counts[order[i % len(order)]] += 1
        i += 1
    return counts


def run_async_soak(
    service: GemmService, config: Optional[AsyncSoakConfig] = None,
) -> AsyncSoakReport:
    """Drive the async scheduler with a seeded multi-tenant workload.

    Streams ``config.requests`` arrivals through an
    :class:`~repro.serve.sched.AsyncScheduler` (submissions stay within
    ``_LOOKAHEAD_S`` of simulated time so memory stays bounded), hot-swaps
    the first device's serving kernel mid-run, ground-truths **every**
    served response against the host reference, and drains gracefully.
    Returns the :class:`AsyncSoakReport` whose ``as_dict()`` is the
    ``BENCH_serving.json`` payload.

    With ``config.fleet`` set this is the churn soak: a
    :class:`~repro.serve.fleet.FleetManager` observes every completion
    and is ticked after every scheduler step, so it autoscales,
    suspects, probes and recovers devices while the workload runs (and
    the fault plan fires).  The report's fleet section then joins the
    manager's scale events and lifecycle transitions with the anti-flap
    audit and the per-episode p99 recovery times.  Everything is a pure
    function of the seeds, so both payloads are bit-identical across
    reruns.
    """
    config = config or AsyncSoakConfig()
    dtype = service.dtype
    scheduler = AsyncScheduler(
        service,
        [t.tenant_config() for t in config.tenants],
        SchedulerConfig(max_batch=config.max_batch),
        obs=service.obs,
    )
    manager = (FleetManager(scheduler, config.fleet)
               if config.fleet is not None else None)

    horizon_s = config.requests * config.interarrival_s
    counts = _tenant_counts(config.tenants, config.requests)
    streams = [
        _tenant_stream(
            load, counts[i], horizon_s,
            np.random.default_rng([config.seed, i]), dtype,
            config.load_cycle_s, config.load_calm_factor,
        )
        for i, load in enumerate(config.tenants)
    ]
    merged = heapq.merge(*streams, key=lambda item: item[0])

    if config.hot_swap_at > 0:
        # Mid-soak routine replacement: re-install the primary kernel's
        # parameters through the full hot-swap path (static verification,
        # rung rebuild, quarantine reset) while requests are in flight.
        first_device = next(
            (r.device for r in service.ladder.rungs if r.device), None
        )
        if first_device is not None:
            scheduler.request_hot_swap(
                first_device,
                service.ladder.primary_rung(first_device).params,
                at_s=config.hot_swap_at * horizon_s,
            )

    # -- completion-time accounting (verify + release as we go) ---------
    truth = _GroundTruth(dtype)
    served_events: List[Tuple[float, float, float]] = []  # (t, latency, flops)
    shed_times: List[float] = []
    operands: Dict[int, Tuple] = {}

    def on_complete(ticket, request) -> None:
        if manager is not None:
            manager.observe(ticket, request)
        problem = operands.pop(ticket.rid, None)
        if ticket.status == "shed":
            shed_times.append(scheduler.now)
            return
        if ticket.status != "served" or problem is None:
            return
        truth.check(problem, ticket.result.c, ticket.rid, ticket.result.rung)
        M, N, K = request.shape
        served_events.append(
            (ticket.completed_s, ticket.latency_s, 2.0 * M * N * K)
        )
        ticket.result.c = None  # release the response matrix

    scheduler.on_complete = on_complete

    # -- the streaming drive loop ---------------------------------------
    pending = next(merged, None)
    while pending is not None or scheduler.queues.queued or scheduler._arrivals:
        progressed = False
        while (pending is not None
               and pending[0] <= scheduler.now + _LOOKAHEAD_S):
            arrival, load, problem = pending
            a, b, c, alpha, beta, transa, transb = problem
            ticket = scheduler.submit(
                load.name, a, b, c, alpha, beta, transa, transb,
                arrival_s=arrival,
            )
            operands[ticket.rid] = problem
            progressed = True
            pending = next(merged, None)
        if scheduler.step():
            progressed = True
            if manager is not None:
                manager.tick(scheduler.now)
        if not progressed:
            if pending is not None:
                # Idle gap: jump the clock to the next arrival.
                scheduler.now = max(scheduler.now, pending[0])
            else:
                break
    scheduler.drain()
    if manager is not None:
        manager.tick(scheduler.now)

    # -- aggregate and per-tenant report --------------------------------
    duration = scheduler.now
    served_flops = sum(f for _, _, f in served_events)
    latencies = [lat for _, lat, _ in served_events]
    per_tenant: Dict[str, Dict] = {}
    starved: List[str] = []
    for state in scheduler.queues:
        name = state.config.name
        if state.submitted > 0 and state.served == 0:
            starved.append(name)
        hints = state.retry_hints_s
        per_tenant[name] = {
            "submitted": state.submitted,
            "served": state.served,
            "shed_events": state.shed_events,
            "shed_retried": state.shed_retried,
            "hard_shed": state.hard_shed,
            "cancelled": state.cancelled,
            "invalid": state.invalid,
            "weight": state.config.weight,
            "p50_ms": _percentile(state.latencies_s, 50) * 1e3,
            "p99_ms": _percentile(state.latencies_s, 99) * 1e3,
            "max_wait_ms": state.max_wait_s * 1e3,
            "latency_hist_ms": _histogram_ms(state.latencies_s),
            # Backpressure hints handed out on shed (Ticket.retry_after_s):
            # how often this tenant was told to back off, and how hard.
            "retry_hints": {
                "count": len(hints),
                "mean_ms": (sum(hints) / len(hints) * 1e3) if hints else 0.0,
                "max_ms": max(hints) * 1e3 if hints else 0.0,
            },
        }

    buckets = _TRAJECTORY_BUCKETS
    width = duration / buckets if duration > 0 else 1.0
    trajectory: List[Dict] = []
    for i in range(buckets):
        lo, hi = i * width, (i + 1) * width
        window = [(t, lat, f) for t, lat, f in served_events
                  if lo < t <= hi or (i == 0 and t == 0.0)]
        lats = [lat for _, lat, _ in window]
        flops = sum(f for _, _, f in window)
        sheds = sum(1 for t in shed_times if lo < t <= hi)
        trajectory.append({
            "t_ms": hi * 1e3,
            "completed": len(window),
            "shed": sheds,
            "p50_ms": _percentile(lats, 50) * 1e3,
            "p99_ms": _percentile(lats, 99) * 1e3,
            "gflops": flops / width / 1e9 if width > 0 else 0.0,
        })

    fleet = None
    if manager is not None:
        cooldown = manager.config.autoscale.cooldown_s
        events = manager.scale_events
        fleet = manager.summary()
        fleet.update(
            cooldown_s=cooldown,
            flap_pairs=[
                {"first": first.to_dict(), "second": second.to_dict()}
                for first, second in zip(events, events[1:])
                if (second.t_s - first.t_s < cooldown
                    and second.direction != first.direction)
            ],
            episodes=_episode_recovery(service, served_events, duration),
        )

    return AsyncSoakReport(
        requests=config.requests,
        served=len(served_events),
        hard_shed=sum(state.hard_shed for state in scheduler.queues),
        shed_events=sum(state.shed_events for state in scheduler.queues),
        shed_retried=sum(state.shed_retried for state in scheduler.queues),
        cancelled=sum(state.cancelled for state in scheduler.queues),
        wrong_answers=truth.wrong,
        worst_error=truth.worst_error,
        duration_s=duration,
        aggregate_gflops=(served_flops / duration / 1e9
                          if duration > 0 else 0.0),
        p50_ms=_percentile(latencies, 50) * 1e3,
        p99_ms=_percentile(latencies, 99) * 1e3,
        small_gemm=service.small_gemm.as_dict(),
        starved_tenants=starved,
        per_tenant=per_tenant,
        counters=service.counters.as_dict(),
        incident_kinds=service.log.kind_counts(),
        trajectory=trajectory,
        failures=truth.failures,
        fleet=fleet,
    )


def _episode_recovery(
    service: GemmService,
    served_events: List[Tuple[float, float, float]],
    until_s: float,
) -> List[Dict]:
    """Ground-truth fault episodes + measured p99 recovery after each,
    from the soak's completion-ordered ``(t, latency, flops)`` events.

    Episodes come from the injector's :meth:`active_windows` — the same
    deterministic schedule the faults themselves were rolled from, so
    this is accounting, not detection.  For each episode the steady
    state is the p99 of the ``_RECOVERY_WINDOW_S`` of completions before
    it began; recovery is the first post-episode window whose p99 is
    back within ``_RECOVERY_FACTOR`` of that (windows with no
    completions are skipped — an outage can stall completions entirely).
    """
    injector = service.fault_injector
    if injector is None or not hasattr(injector, "active_windows"):
        return []
    from repro.devices.catalog import DEVICE_ZONES

    times = [t for t, _, _ in served_events]
    lats = [lat for _, lat, _ in served_events]

    def window_p99(lo: float, hi: float) -> float:
        i = bisect.bisect_right(times, lo)
        j = bisect.bisect_right(times, hi)
        return _percentile(lats[i:j], 99)

    episodes: List[Dict] = []
    zones = sorted(set(DEVICE_ZONES.values()))
    for kind in ("zone_outage", "brownout"):
        for zone in zones:
            for start, end in injector.active_windows(kind, zone, until_s):
                steady = window_p99(start - _RECOVERY_WINDOW_S, start)
                end = min(end, until_s)
                recovered_after: Optional[float] = None
                if steady > 0:
                    t = end
                    while t < until_s:
                        p99 = window_p99(t, t + _RECOVERY_WINDOW_S)
                        if 0 < p99 <= _RECOVERY_FACTOR * steady:
                            recovered_after = t + _RECOVERY_WINDOW_S - end
                            break
                        t += _RECOVERY_WINDOW_S
                episodes.append({
                    "kind": kind,
                    "zone": zone,
                    "start_s": start,
                    "end_s": end,
                    "steady_p99_ms": steady * 1e3,
                    "recovery_factor": _RECOVERY_FACTOR,
                    "recovered_after_s": recovered_after,
                    "recovered": recovered_after is not None,
                })
    episodes.sort(key=lambda ep: (ep["start_s"], ep["kind"], ep["zone"]))
    return episodes
