"""The async multi-tenant scheduler over :class:`GemmService`.

:class:`AsyncScheduler` is a discrete-event front end on the simulated
clock: callers :meth:`~AsyncScheduler.submit` requests with arrival
times and get a :class:`Ticket` back immediately; :meth:`pump` then
advances simulated time, admitting arrivals into bounded per-tenant
queues (weighted fair queueing, see :mod:`repro.serve.sched.tenancy`)
and dispatching through the hardened service.  One dispatch may be:

* a **coalesced batch** — same-shape small requests gathered across all
  tenant queues and launched back to back through
  :meth:`GemmService.submit_batch`, paying one pipeline fill instead of
  per-member launch latencies;
* a **sharded launch** — a large NN request split over the service's
  shard fleet by :meth:`GemmService.submit_sharded`; the scheduler
  decides only *when* to shard;
* a plain **single serve** through the degradation ladder.

Robustness features layered on top:

* **deadline cancellation** — queued work whose *fastest* available
  rung's predicted time already overruns its deadline is cancelled at
  dispatch instead of burning device time it provably cannot use;
* **shed auto-retry** — a request shed at a full tenant queue is
  re-submitted after the derived ``retry_after_s`` (up to the tenant's
  ``shed_retries``); requests served after one or more sheds count as
  ``shed_retried``, kept separate from hard sheds;
* **hedged re-launches** — when a dispatch raced a half-open breaker
  and came back degraded, the tenant may spend hedge budget on one
  re-launch under a fresh fault salt, keeping the better response;
* **hot swap** — a background tuning winner replaces the serving
  kernel at a dispatch boundary (statically verified first; in-flight
  and queued requests are never dropped);
* **graceful drain** — :meth:`drain` stops admission and completes
  everything queued before returning.

Determinism: arrivals, tags, and every decision are pure functions of
the submitted workload and the service seed — no wall clock, no global
RNG — so a seeded soak is bit-identical run to run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AdmissionError, InvalidRequestError, ReproError
from repro.obs import NULL_OBS
from repro.serve.breaker import BreakerState
from repro.serve.service import (
    SMALL_GEMM_DIM,
    GemmCall,
    GemmService,
    ServeResult,
)
from repro.serve.sched.tenancy import FairQueue, QueuedRequest, TenantConfig

__all__ = ["SchedulerConfig", "Ticket", "AsyncScheduler"]

#: Request-id offset for hedged re-launches: far outside any soak's id
#: space, so the hedge re-rolls fault and verification decisions without
#: colliding with a real request.
_HEDGE_RID_OFFSET = 1 << 24

#: Inter-arrival credit handed to the service on every dispatch.  The
#: scheduler owns queueing and pacing, so the service's own admission
#: backlog is drained flat before each dispatch — the service never
#: sheds on the scheduler's behalf.
_DRAIN_SERVICE_BACKLOG_S = 1e9

#: Rung quality order for picking between an original and a hedged
#: response (lower is better).
_RUNG_RANK = {"tuned": 0, "pretuned": 1, "sharded": 1, "direct": 2,
              "reference": 3}

#: NN problems with any dim at or above this shard across the service's
#: fleet (when it has two or more members).  Coalescing candidates are
#: the small GEMMs of the service's ledger (``SMALL_GEMM_DIM``).
_SHARD_DIM = 256


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler policy knobs."""

    #: Coalesce same-shape small requests up to this many members.
    max_batch: int = 16
    #: Master switches (all on by default).
    coalesce: bool = True
    shard: bool = True
    hedge: bool = True


@dataclass
class Ticket:
    """The caller's handle on one submitted request (future-like)."""

    rid: int
    tenant: str
    #: "queued" -> "served" | "shed" | "cancelled".
    status: str = "queued"
    result: Optional[ServeResult] = None
    arrival_s: float = 0.0
    dispatched_s: Optional[float] = None
    completed_s: Optional[float] = None
    #: Simulated seconds from arrival to response.
    latency_s: Optional[float] = None
    #: Simulated seconds spent queued before dispatch.
    wait_s: Optional[float] = None
    batch_size: int = 1
    #: True when the response came from a hedged re-launch race.
    hedged: bool = False
    #: True when the request was sharded across the fleet.
    sharded: bool = False
    #: Shed events this request survived before being served.
    sheds: int = 0
    #: Backoff hint from the most recent shed decision — the fair
    #: queue's estimate of when capacity frees up.  Set on *every* shed
    #: (a served-after-retry ticket keeps the hint it last backed off
    #: on), so async callers see the backoff schedule, not just a flag.
    retry_after_s: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.status != "queued"


class AsyncScheduler:
    """Async multi-tenant front end over one :class:`GemmService`."""

    def __init__(
        self,
        service: GemmService,
        tenants: Sequence[TenantConfig],
        config: Optional[SchedulerConfig] = None,
        obs=None,
    ) -> None:
        self.service = service
        self.config = config or SchedulerConfig()
        self.obs = obs if obs is not None else service.obs or NULL_OBS
        self.queues = FairQueue(tenants)
        #: Simulated now (seconds).
        self.now = 0.0
        self._seq = 0
        #: (arrival_s, seq, QueuedRequest) min-heap of future arrivals.
        self._arrivals: List[Tuple[float, int, QueuedRequest]] = []
        #: (at_s, seq, device, params) hot swaps to apply at dispatch
        #: boundaries once simulated time reaches ``at_s``.
        self._swaps: List[Tuple[float, int, str, object]] = []
        #: Hot swaps the static verifier refused (device, rule message).
        self.swap_errors: List[Tuple[str, str]] = []
        self._draining = False
        self.tickets: List[Ticket] = []
        #: Optional hook called as ``(ticket, request)`` the moment a
        #: request reaches a terminal state (served, hard-shed, or
        #: cancelled).  Streaming drivers (the async soak) verify the
        #: response and release its operands here instead of holding
        #: every array until the end of the run.
        self.on_complete = None
        if self.config.shard:
            service.enable_sharding()
        if self.obs.enabled:
            self._depth_gauge = self.obs.gauge(
                "sched_queue_depth",
                "Requests queued per tenant.",
                labelnames=("tenant",),
            )
            for state in self.queues:
                self._depth_gauge.labels(tenant=state.config.name).set(0)
            self._latency_hist = self.obs.histogram(
                "sched_latency_seconds",
                "Arrival-to-response simulated latency per tenant.",
                labelnames=("tenant",),
            )
            self._dispatch_counter = self.obs.counter(
                "sched_dispatches_total",
                "Dispatches by kind (single/batch/shard/hedge).",
                labelnames=("kind",),
            )
        else:
            self._depth_gauge = None
            self._latency_hist = None
            self._dispatch_counter = None

    # -- submission ------------------------------------------------------
    def submit(
        self,
        tenant: str,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: str = "N",
        transb: str = "N",
        deadline_s: Optional[float] = None,
        arrival_s: Optional[float] = None,
    ) -> Ticket:
        """Queue one request; returns its :class:`Ticket` immediately.

        The request is validated here, once, and queued without a copy
        of operands already in the service's dtype: they are borrowed
        until the ticket completes, as with a non-blocking
        ``clEnqueueWriteBuffer``.

        Raises :class:`~repro.errors.InvalidRequestError` for malformed
        input (never queued) and :class:`~repro.errors.AdmissionError`
        once the scheduler is draining.
        """
        if tenant not in self.queues.tenants:
            raise ReproError(f"unknown tenant {tenant!r}")
        state = self.queues[tenant]
        if self._draining:
            state.shed_events += 1
            self.service.counters.shed += 1
            self.service.log.record(
                -1, "shed", detail=f"tenant {tenant}: scheduler draining",
            )
            raise AdmissionError(
                f"scheduler draining: tenant {tenant} submission refused"
            )
        state.submitted += 1
        self._seq += 1
        rid = self._seq
        try:
            call = GemmCall(a, b, c, alpha, beta, transa,
                            transb).validate(self.service.dtype)
        except InvalidRequestError as exc:
            state.invalid += 1
            self.service.counters.invalid += 1
            self.service.log.record(rid, "invalid",
                                    detail=f"tenant {tenant}: {exc}")
            raise
        arrival = self.now if arrival_s is None else max(arrival_s, 0.0)
        limit = (state.config.deadline_s if deadline_s is None
                 else deadline_s)
        ticket = Ticket(rid=rid, tenant=tenant, arrival_s=arrival)
        request = QueuedRequest(
            rid=rid, tenant=tenant, call=call,
            arrival_s=arrival, enqueued_s=arrival,
            predicted_s=self.service.predict_s(*call.dims()),
            finish_tag=0.0,
            deadline_abs=None if limit is None else arrival + limit,
            shape=call.dims(), ticket=ticket,
        )
        self.tickets.append(ticket)
        heapq.heappush(self._arrivals, (arrival, rid, request))
        return ticket

    # -- hot swap / drain ------------------------------------------------
    def request_hot_swap(self, device: str, params,
                         at_s: Optional[float] = None) -> None:
        """Schedule a serving-kernel replacement for ``device``.

        Applied at the first dispatch boundary at or after ``at_s``
        (default: immediately); queued and in-flight requests are never
        dropped.  A statically-refused swap lands in ``swap_errors``
        and the old kernel keeps serving.
        """
        self._seq += 1
        heapq.heappush(
            self._swaps,
            (self.now if at_s is None else at_s, self._seq, device, params),
        )

    def _apply_due_swaps(self) -> None:
        from repro.errors import ParameterError

        while self._swaps and self._swaps[0][0] <= self.now:
            _, _, device, params = heapq.heappop(self._swaps)
            try:
                self.service.hot_swap(device, params)
            except ParameterError as exc:
                self.swap_errors.append((device, str(exc)))

    def drain(self) -> Dict[str, int]:
        """Stop admission, serve everything queued, and report.

        New :meth:`submit` calls are refused with
        :class:`~repro.errors.AdmissionError` from this point on; every
        already-accepted request still completes (served, cancelled on
        a hopeless deadline, or out of shed retries) before this
        returns.
        """
        self._draining = True
        self.pump()
        outcomes: Dict[str, int] = {}
        for ticket in self.tickets:
            outcomes[ticket.status] = outcomes.get(ticket.status, 0) + 1
        self.service.log.record(
            -1, "drain",
            detail=(f"drained at t={self.now * 1e3:.3f} ms: "
                    + ", ".join(f"{k}={v}"
                                for k, v in sorted(outcomes.items()))),
        )
        return outcomes

    # -- the event loop --------------------------------------------------
    def step(self) -> bool:
        """Advance the simulation by one scheduling action.

        One action is: an idle jump to the next arrival, a deadline
        cancellation, or one dispatch (single, coalesced batch, or
        sharded).  Returns ``False`` when no queued work and no future
        arrivals remain — callers stream arbitrarily large workloads by
        interleaving :meth:`submit` with ``step()``.
        """
        self._admit_due_arrivals()
        if self.queues.queued == 0:
            if not self._arrivals:
                return False
            # Idle until the next arrival (which may be a shed retry).
            self.now = max(self.now, self._arrivals[0][0])
            self._admit_due_arrivals()
            if self.queues.queued == 0:
                return True  # time progressed; retries may still be due
        # Window-correlated faults (zone outages, brownouts) decide by
        # simulated time: hand the service the clock before dispatch.
        self.service.set_fault_clock(self.now)
        self._apply_due_swaps()
        request = self.queues.select()
        self._gauge(request.tenant)
        if self._cancel_if_hopeless(request):
            return True
        batch = self._coalesce(request)
        if len(batch) > 1:
            self._dispatch_batch(batch)
        elif self._shardable(request):
            self._dispatch_shard(request)
        else:
            self._dispatch_single(request)
        return True

    def pump(self) -> None:
        """Run the discrete-event loop until no work remains."""
        while self.step():
            pass

    # -- admission -------------------------------------------------------
    def _admit_due_arrivals(self) -> None:
        while self._arrivals and self._arrivals[0][0] <= self.now:
            _, _, request = heapq.heappop(self._arrivals)
            state = self.queues[request.tenant]
            if len(state.queue) >= state.config.queue_capacity:
                self._shed(request, state)
                continue
            if request.shed_count > 0:
                self.service.log.record(
                    request.rid, "shed_retry",
                    detail=(f"tenant {request.tenant}: re-admitted after "
                            f"{request.shed_count} shed(s)"),
                )
            request.enqueued_s = self.now
            self.queues.admit(request.tenant, request)
            self._gauge(request.tenant)

    def _shed(self, request: QueuedRequest, state) -> None:
        retry_after = self.queues.retry_after_s(request.tenant)
        state.shed_events += 1
        self.service.counters.shed += 1
        request.ticket.sheds += 1
        # Every shed surfaces its backoff hint on the ticket (and the
        # tenant's hint ledger), not just the fatal one.
        request.ticket.retry_after_s = retry_after
        state.record_retry_hint(retry_after)
        self.service.log.record(
            request.rid, "shed",
            detail=(f"tenant {request.tenant}: queue full "
                    f"({state.config.queue_capacity}); retry after "
                    f"{retry_after * 1e3:.3f} ms"),
        )
        if request.shed_count < state.config.shed_retries:
            request.shed_count += 1
            self._seq += 1
            heapq.heappush(
                self._arrivals,
                (self.now + retry_after, self._seq, request),
            )
        else:
            state.hard_shed += 1
            request.ticket.status = "shed"
            request.ticket.completed_s = self.now
            if self.on_complete is not None:
                self.on_complete(request.ticket, request)

    # -- dispatch-time policies ------------------------------------------
    def _cancel_if_hopeless(self, request: QueuedRequest) -> bool:
        """Cancel work that provably cannot meet its deadline: even the
        fastest available rung's prediction overruns it."""
        if request.deadline_abs is None:
            return False
        best = self.service.predict_s(*request.shape)
        if self.now + best <= request.deadline_abs:
            return False
        state = self.queues[request.tenant]
        state.cancelled += 1
        self.service.counters.cancelled += 1
        self.service.log.record(
            request.rid, "deadline_cancel",
            detail=(f"tenant {request.tenant}: fastest rung needs "
                    f"{best * 1e3:.3f} ms but only "
                    f"{max(request.deadline_abs - self.now, 0.0) * 1e3:.3f}"
                    f" ms remain"),
        )
        request.ticket.status = "cancelled"
        request.ticket.completed_s = self.now
        if self.on_complete is not None:
            self.on_complete(request.ticket, request)
        return True

    def _coalesce(self, lead: QueuedRequest) -> List[QueuedRequest]:
        """Gather same-shape small peers from every tenant queue."""
        batch = [lead]
        cfg = self.config
        if (not cfg.coalesce or max(lead.shape) > SMALL_GEMM_DIM
                or cfg.max_batch <= 1):
            return batch
        order = [lead.tenant] + sorted(
            name for name in self.queues.tenants if name != lead.tenant
        )
        for name in order:
            if len(batch) >= cfg.max_batch:
                break
            state = self.queues[name]
            kept = []
            for peer in state.queue:
                if (len(batch) < cfg.max_batch
                        and peer.shape == lead.shape
                        and (peer.deadline_abs is None
                             or self.now + peer.predicted_s
                             <= peer.deadline_abs)):
                    batch.append(peer)
                else:
                    kept.append(peer)
            if len(kept) != len(state.queue):
                state.queue.clear()
                state.queue.extend(kept)
                self._gauge(name)
        return batch

    def _shardable(self, request: QueuedRequest) -> bool:
        """Shard large NN requests while the service's fleet has two or
        more members."""
        call = request.call
        fleet = self.service.fleet
        return (fleet is not None and len(fleet.specs) >= 2
                and call.transa == "N" and call.transb == "N"
                and max(request.shape) >= _SHARD_DIM)

    def _risky_devices(self) -> Tuple[str, ...]:
        return tuple(
            device
            for device, breaker in sorted(self.service.breakers.items())
            if breaker.state is BreakerState.HALF_OPEN
        )

    # -- dispatch --------------------------------------------------------
    def _remaining_deadline(self, request: QueuedRequest) -> Optional[float]:
        if request.deadline_abs is None:
            return None
        return max(request.deadline_abs - self.now, 0.0)

    def _dispatch_single(self, request: QueuedRequest) -> None:
        dispatched = self.now
        risky = self._risky_devices() if self.config.hedge else ()
        with self.obs.span("sched.dispatch", kind="single",
                           tenant=request.tenant, rid=request.rid):
            result = self.service.submit_call(
                request.call,
                deadline_s=self._remaining_deadline(request),
                arrival_dt_s=_DRAIN_SERVICE_BACKLOG_S,
                request_id=request.rid,
            )
        self.now += result.service_s
        self._count_dispatch("single")
        result = self._maybe_hedge(request, result, risky)
        self._complete(request, result, dispatched)

    def _maybe_hedge(self, request: QueuedRequest, result: ServeResult,
                     risky: Tuple[str, ...]) -> ServeResult:
        """One hedged re-launch when a risky (half-open) dispatch came
        back degraded and the tenant still has hedge budget."""
        state = self.queues[request.tenant]
        if (not risky or not result.degraded or state.hedges_left <= 0):
            return result
        remaining = self._remaining_deadline(request)
        if remaining is not None and remaining <= 0.0:
            return result
        state.hedges_left -= 1
        self.service.counters.hedges += 1
        self._count_dispatch("hedge")
        self.service.log.record(
            request.rid, "hedge",
            detail=(f"tenant {request.tenant}: degraded serve raced "
                    f"half-open {','.join(risky)}; re-launching "
                    f"({state.hedges_left} hedges left)"),
        )
        with self.obs.span("sched.dispatch", kind="hedge",
                           tenant=request.tenant, rid=request.rid):
            hedge = self.service.submit_call(
                request.call,
                deadline_s=remaining,
                arrival_dt_s=_DRAIN_SERVICE_BACKLOG_S,
                request_id=request.rid + _HEDGE_RID_OFFSET,
            )
        self.now += hedge.service_s
        if (_RUNG_RANK.get(hedge.rung, 9)
                < _RUNG_RANK.get(result.rung, 9)):
            hedge.request_id = request.rid
            result = hedge
        request.ticket.hedged = True
        return result

    def _dispatch_batch(self, batch: List[QueuedRequest]) -> None:
        dispatched = self.now
        deadlines = [self._remaining_deadline(r) for r in batch
                     if r.deadline_abs is not None]
        with self.obs.span("sched.dispatch", kind="batch",
                           members=len(batch),
                           tenants=",".join(sorted({r.tenant
                                                    for r in batch}))):
            results = self.service.submit_batch(
                [r.call for r in batch],
                deadline_s=min(deadlines) if deadlines else None,
                arrival_dt_s=_DRAIN_SERVICE_BACKLOG_S,
                request_ids=[r.rid for r in batch],
            )
        self.now += sum(r.service_s for r in results)
        self._count_dispatch("batch")
        for request, result in zip(batch, results):
            self._complete(request, result, dispatched)

    def _dispatch_shard(self, request: QueuedRequest) -> None:
        """Serve one large NN request across the service's fleet.

        A fault the fleet cannot absorb falls back to the single-device
        ladder, which owns retries, at once.  A caught corruption falls
        back after its attempt burned its time; the ladder re-verifies,
        so sharding never weakens correctness.
        """
        dispatched = self.now
        M, N, K = request.shape
        # The service's checks run inside the dispatch span, so their
        # spans join its trace.
        with self.obs.span("sched.dispatch", kind="shard",
                           tenant=request.tenant, rid=request.rid,
                           shape=f"{M}x{N}x{K}"):
            result, seconds = self.service.submit_sharded(
                request.call, request.rid,
                deadline_s=self._remaining_deadline(request),
            )
            if seconds is None:
                self._dispatch_single(request)
                return
        self.now += seconds
        self._count_dispatch("shard")
        if result is None:
            self._dispatch_single(request)
            return
        request.ticket.sharded = True
        self._complete(request, result, dispatched)

    # -- completion ------------------------------------------------------
    def _complete(self, request: QueuedRequest, result: ServeResult,
                  dispatched_s: float) -> None:
        state = self.queues[request.tenant]
        wait = dispatched_s - request.arrival_s
        latency = self.now - request.arrival_s
        state.record_latency(wait, latency)
        if request.shed_count > 0:
            state.shed_retried += 1
            self.service.counters.shed_retried += 1
        ticket: Ticket = request.ticket
        ticket.status = "served"
        ticket.result = result
        ticket.dispatched_s = dispatched_s
        ticket.completed_s = self.now
        ticket.wait_s = wait
        ticket.latency_s = latency
        ticket.batch_size = result.batch_size
        if self._latency_hist is not None:
            self._latency_hist.labels(tenant=request.tenant).observe(latency)
        if self.on_complete is not None:
            self.on_complete(ticket, request)

    # -- plumbing --------------------------------------------------------
    def _gauge(self, tenant: str) -> None:
        if self._depth_gauge is not None:
            self._depth_gauge.labels(tenant=tenant).set(
                len(self.queues[tenant].queue)
            )

    def _count_dispatch(self, kind: str) -> None:
        if self._dispatch_counter is not None:
            self._dispatch_counter.labels(kind=kind).inc()

    def describe(self) -> str:
        lines = [f"AsyncScheduler at t={self.now * 1e3:.3f} ms "
                 f"({'draining' if self._draining else 'accepting'})"]
        for state in self.queues:
            cfg = state.config
            lines.append(
                f"  {cfg.name:12s} w={cfg.weight:<4g} cap={cfg.queue_capacity:<4d} "
                f"queued={len(state.queue):<4d} served={state.served:<6d} "
                f"shed={state.shed_events:<4d} cancelled={state.cancelled}"
            )
        if self.service.fleet is not None:
            lines.append(f"  fleet: {len(self.service.fleet.specs)} devices "
                         f"(shard at dim >= {_SHARD_DIM})")
        return "\n".join(lines)
