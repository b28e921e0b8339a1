"""The long-lived GEMM service.

:class:`GemmService` is the hardened front door to the tuned routines.
One request flows through five gates:

1. **validation** — shape/dtype/finiteness checks with typed errors
   (:class:`~repro.errors.InvalidRequestError`); invalid requests never
   touch a device.
2. **admission** — a bounded queue modelled in simulated time: each
   request drains its inter-arrival spacing from the backlog and adds
   its service time; when the backlog exceeds the budget the request is
   shed (:class:`~repro.errors.AdmissionError`) instead of queued, so
   admitted requests keep bounded latency.
3. **the degradation ladder** — rungs are tried in order; a rung is
   skipped when its kernel is quarantined, its device's circuit breaker
   is open, or its predicted time cannot meet the remaining deadline.
   Runtime faults (transient launches, device loss, watchdog timeouts)
   fail the rung over to the next one and feed the device's breaker.
4. **verification** — a seeded Freivalds check (sampling rate
   ``verify_rate``) catches silent result corruption; the offending
   rung is quarantined and the request re-served by the next rung.
5. **accounting** — counters, the incident log, and deadline tracking.

:meth:`GemmService.submit` and :meth:`GemmService.submit_batch` share
this one path; they differ only in how a device rung launches the
pending requests (one routine call, or one pipelined
:class:`~repro.gemm.batched.BatchedGemm`).

:meth:`GemmService.submit_sharded` serves one large request split
across the shard fleet, through gates 4 and 5 of the same path.

Periodic known-answer canary GEMMs probe quarantined kernels and
re-admit them after ``canary_passes`` consecutive clean runs.

Everything is deterministic under a fixed service seed and fault plan:
breakers run on the logical request clock, verification sampling and
Freivalds vectors are hashes of the request id, and routines are built
with ``measurement_noise=False`` — a seeded soak reproduces identical
counters and incident sequences run after run.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.specs import DeviceSpec
from repro.errors import (
    AdmissionError,
    CLError,
    InvalidBatchError,
    InvalidRequestError,
    MeasurementTimeout,
)
from repro.clsim.trace import attach_tracer
from repro.gemm.batched import BatchedGemm
from repro.gemm.reference import reference_gemm, relative_error
from repro.gemm.routine import validate_gemm_request
from repro.obs import NULL_OBS, Observability, bridge_records
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.incident import IncidentLog, ServiceCounters
from repro.serve.ladder import DegradationLadder, Rung
from repro.serve.verify import FreivaldsVerifier
from repro.tuner.resilience import call_with_timeout

__all__ = [
    "ServiceConfig", "ServeResult", "GemmCall", "GemmService",
    "BatchingAccount", "SMALL_GEMM_DIM",
]

#: The runtime failures a rung fails over on, feeding its device's
#: breaker; the fleet's failure detector counts the same set.
RUNG_FAILURES = (CLError, MeasurementTimeout)

#: Problems with every dimension at or below this are "small" for the
#: batching-throughput ledger — the size band where the paper's kernels
#: cannot amortise launch overhead and coalescing pays off.
SMALL_GEMM_DIM = 128

#: Known-answer canary problem size (kept small: canaries ride the
#: request path).
_CANARY_SIZE = 32


@dataclass
class BatchingAccount:
    """Small-GEMM throughput ledger: actual device seconds (pipelined
    when the member rode a coalesced batch) against what the very same
    members would have cost served stand-alone on the synchronous path.
    ``speedup`` is therefore the aggregate throughput lift coalescing
    delivered, measured over identical work."""

    members: int = 0
    flops: float = 0.0
    #: Actual seconds charged (a batch member's fair share of the
    #: pipelined batch wall time; a single's full service time).
    batched_s: float = 0.0
    #: Stand-alone seconds the same members cost on the sync path.
    sync_s: float = 0.0

    def add(self, flops: float, batched_s: float, sync_s: float) -> None:
        self.members += 1
        self.flops += flops
        self.batched_s += batched_s
        self.sync_s += sync_s

    @property
    def speedup(self) -> float:
        return self.sync_s / self.batched_s if self.batched_s > 0 else 1.0

    @property
    def sync_gflops(self) -> float:
        return self.flops / self.sync_s / 1e9 if self.sync_s > 0 else 0.0

    @property
    def batched_gflops(self) -> float:
        return (self.flops / self.batched_s / 1e9
                if self.batched_s > 0 else 0.0)

    def as_dict(self) -> Dict:
        return {
            "members": self.members,
            "flops": self.flops,
            "batched_s": self.batched_s,
            "sync_s": self.sync_s,
            "sync_gflops": self.sync_gflops,
            "batched_gflops": self.batched_gflops,
            "speedup": self.speedup,
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving layer (defaults favour correctness)."""

    seed: int = 0
    # -- admission control --------------------------------------------
    #: Simulated backlog (queue depth in seconds of work) beyond which
    #: new requests are shed.
    max_backlog_s: float = 0.5
    #: Default simulated spacing between requests (the backlog drain).
    interarrival_s: float = 0.005
    #: Default per-request deadline; ``None`` disables deadline logic.
    default_deadline_s: Optional[float] = 0.5
    # -- result verification ------------------------------------------
    #: Fraction of device-served responses Freivalds-checked (1.0 = all).
    verify_rate: float = 1.0
    # -- quarantine canaries ------------------------------------------
    #: Run known-answer canaries every N requests (0 disables).
    canary_interval: int = 50
    #: Consecutive canary passes that re-admit a quarantined kernel.
    canary_passes: int = 2
    # -- misc ----------------------------------------------------------
    #: Wall-clock watchdog per rung attempt (kills injected hangs).
    attempt_timeout_s: Optional[float] = None
    #: Modelled host GEMM rate for the reference rung's time accounting.
    host_gflops: float = 8.0


@dataclass(frozen=True)
class GemmCall:
    """One GEMM problem, as the request path carries it.

    A value object the async scheduler queues and the service's
    request path consumes; ``validate`` returns a normalized copy
    (arrays cast to the service's dtype, transposes upper-cased), or the
    call itself when ``validate`` made it for that dtype, or raises
    :class:`~repro.errors.InvalidRequestError`.
    """

    a: np.ndarray
    b: np.ndarray
    c: Optional[np.ndarray] = None
    alpha: float = 1.0
    beta: float = 0.0
    transa: str = "N"
    transb: str = "N"
    #: The dtype ``validate`` checked this call for.  Only ``validate``
    #: sets it: no constructor argument takes it, equality and repr
    #: ignore it, and ``dataclasses.replace`` builds a call without it.
    _validated_for: Optional[np.dtype] = field(
        default=None, init=False, compare=False, repr=False)

    def validate(self, dtype: np.dtype) -> "GemmCall":
        # (A None record must not reach ==: np.dtype(None) is float64.)
        if self._validated_for is not None and self._validated_for == dtype:
            return self  # returned by validate for this dtype
        a, b, c, transa, transb = validate_gemm_request(
            self.a, self.b, self.c, self.alpha, self.beta,
            self.transa, self.transb,
        )
        # Only a cast from another dtype can overflow; the overflow is
        # rejected below.
        recast = (a.dtype != dtype or b.dtype != dtype
                  or (c is not None and c.dtype != dtype))
        with np.errstate(over="ignore") if recast else nullcontext():
            a = np.asarray(a, dtype=dtype)
            b = np.asarray(b, dtype=dtype)
            c = None if c is None else np.asarray(c, dtype=dtype)
        # A NaN/Inf operand makes every rung's answer non-finite, which
        # verification would blame on the kernel: it is the caller's
        # error.  Checked after the cast, so a finite fp64 value that
        # overflows fp32 is caught here too.  C is read only when
        # beta != 0 (BLAS semantics).
        operands = [("a", a), ("b", b)]
        if float(self.beta) != 0.0:
            operands.append(("c", c))
        for name, mat in operands:
            if not np.isfinite(mat).all():
                raise InvalidRequestError(name, "contains NaN or Inf")
        call = GemmCall(a, b, c, self.alpha, self.beta, transa, transb)
        object.__setattr__(call, "_validated_for", np.dtype(dtype))
        return call

    def dims(self) -> Tuple[int, int, int]:
        """Problem dimensions (M, N, K) after transpose resolution."""
        M, K = (self.a.shape if self.transa == "N" else self.a.shape[::-1])
        N = self.b.shape[1] if self.transb == "N" else self.b.shape[0]
        return M, N, K

    @property
    def flops(self) -> float:
        M, N, K = self.dims()
        return 2.0 * M * N * K


@dataclass
class ServeResult:
    """One served response plus its robustness trail."""

    c: np.ndarray
    request_id: int
    #: Ladder rung that produced the response ("tuned", "pretuned",
    #: "direct", "reference").
    rung: str
    device: str
    #: True when any rung above the serving one was skipped or failed.
    degraded: bool
    #: True when the response passed an explicit Freivalds check.
    verified: bool
    #: Simulated seconds of service (including failed/corrupt attempts).
    service_s: float
    #: Simulated seconds the request waited in the admission queue.
    queue_wait_s: float
    deadline_missed: bool = False
    #: Rungs skipped or failed before the serving one, with reasons.
    degradations: List[Tuple[str, str]] = field(default_factory=list)
    #: Members of the coalesced batch this response was served in
    #: (1: a stand-alone submission).
    batch_size: int = 1
    #: The request's observability trace ID ("" when tracing is off);
    #: joins the response to ``repro trace`` output and incident records.
    trace_id: str = ""


class GemmService:
    """A resilient GEMM front-end over one device or a fleet."""

    def __init__(
        self,
        devices: Union[str, DeviceSpec, Sequence[Union[str, DeviceSpec]]],
        precision: str = "d",
        config: Optional[ServiceConfig] = None,
        params: Optional[Dict] = None,
        fault_injector=None,
        obs: Optional[Observability] = None,
        **routine_kwargs,
    ) -> None:
        if isinstance(devices, (str, DeviceSpec)):
            devices = [devices]
        self.config = config or ServiceConfig()
        #: Telemetry spine (see :mod:`repro.obs`): per-request traces
        #: whose IDs stamp the incident log, plus the metrics registry
        #: that exports the counters.  Defaults to the shared disabled
        #: instance — passing nothing costs one attribute check per hook.
        self.obs = obs if obs is not None else NULL_OBS
        self.precision = precision
        self.dtype = np.dtype(np.float32 if precision == "s" else np.float64)
        #: The fault plan's injector at the current fault clock (see
        #: :meth:`set_fault_clock`); None without a plan.
        self.fault_injector = fault_injector
        routine_kwargs.setdefault("measurement_noise", False)
        self.ladder = DegradationLadder(
            devices, precision, params,
            host_gflops=self.config.host_gflops, **routine_kwargs,
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        for rung in self.ladder.rungs:
            if rung.device:
                self._ensure_breaker(rung.device)
        self.verifier = FreivaldsVerifier(seed=self.config.seed)
        self.log = IncidentLog()
        self.counters = ServiceCounters()
        self._trace_id = ""
        if self.obs.enabled:
            self.counters.bind_registry(self.obs.metrics)
            self._fallbacks = self.obs.counter(
                "serve_fallbacks_total",
                "Ladder rungs skipped or failed over, per rung key.",
                labelnames=("rung",),
            )
            self._service_hist = self.obs.histogram(
                "serve_service_seconds",
                "Simulated service seconds per completed request.",
            )
            self._wait_hist = self.obs.histogram(
                "serve_queue_wait_seconds",
                "Simulated admission-queue wait per completed request.",
            )
        else:
            self._fallbacks = None
            self._service_hist = None
            self._wait_hist = None
        #: rung.key -> consecutive canary passes since quarantine.
        self._quarantined: Dict[str, int] = {}
        #: device -> parked rung group (suspected/draining devices keep
        #: their built routines off the ladder until resumed or retired).
        self._parked: Dict[str, List[Rung]] = {}
        #: rung.key -> violated rule id, for rungs the static verifier
        #: refuses to serve through (see :mod:`repro.analyze`).  Filled
        #: at construction and again per admitted device: a rung's
        #: kernel never changes while it is on the ladder.
        self._static_rejected: Dict[str, str] = {}
        self._verify_rung_group(self.ladder.rungs)
        self._tick = 0
        self._backlog_s = 0.0
        #: Small-GEMM throughput ledger (see :class:`BatchingAccount`).
        self.small_gemm = BatchingAccount()
        self._canary_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: The shard fleet (see :meth:`enable_sharding`).
        self.fleet = None
        self._sharding = False

    def _ensure_breaker(self, device: str) -> None:
        if device not in self.breakers:
            self.breakers[device] = CircuitBreaker(device)

    def _verify_rung_group(self, rungs: Sequence[Rung]) -> None:
        """Statically verify each device rung's kernel before it serves.

        A failing rung is never attempted — its launch failure is a
        foregone conclusion the prover can state in advance — and the
        refusal is incident-logged (request_id -1: a service-lifetime
        decision, not a per-request one) and counted.
        """
        from repro.analyze.verifier import StaticVerifier

        verifiers: Dict[str, StaticVerifier] = {}
        for rung in rungs:
            if rung.is_reference or rung.params is None:
                continue
            verifier = verifiers.setdefault(
                rung.device, StaticVerifier(rung.spec)
            )
            rule = verifier.gate(rung.params)
            if rule is not None:
                self._static_rejected[rung.key] = rule
                self.counters.static_rejects += 1
                self.log.record(
                    -1, "static_reject", device=rung.device, rung=rung.name,
                    detail=f"{rule}: {rung.params.summary()}",
                )

    # -- deterministic decisions ---------------------------------------
    def _unit(self, label: str, request_id: int) -> float:
        payload = f"serve|{self.config.seed}|{label}|{request_id}".encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def _salted_injector(self, salt: str):
        if self.fault_injector is None:
            return None
        return self.fault_injector.salted(salt)

    def set_fault_clock(self, now_s: float) -> None:
        """Advance the fault plan's simulated clock.

        Window-correlated fault kinds (``zone_outage``, ``brownout``)
        decide by *time*, not per-request hashing; the async scheduler
        calls this each step so every injector the service re-salts from
        here on carries the current simulated instant.  A no-op without
        a fault plan or with a plan of purely per-request kinds.
        """
        if self.fault_injector is not None and hasattr(
                self.fault_injector, "at_time"):
            self.fault_injector = self.fault_injector.at_time(now_s)

    @property
    def quarantined(self) -> Tuple[str, ...]:
        """Currently quarantined rung keys (e.g. ``("tahiti:tuned",)``)."""
        return tuple(sorted(self._quarantined))

    def predict_s(self, M: int, N: int, K: int) -> float:
        """The fastest servable rung's predicted service time for one
        problem: the lower bound the async scheduler prices requests and
        cancels hopeless deadlines by.  Rungs the static verifier
        refused are left out; the host rung never is."""
        return min(rung.predict_s(M, N, K) for rung in self.ladder.rungs
                   if rung.key not in self._static_rejected)

    # -- the request path ----------------------------------------------
    def submit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: str = "N",
        transb: str = "N",
        deadline_s: Optional[float] = None,
        arrival_dt_s: Optional[float] = None,
        request_id: Optional[int] = None,
    ) -> ServeResult:
        """Serve one GEMM request through all five gates.

        Raises :class:`InvalidRequestError` for malformed input and
        :class:`AdmissionError` when the request is shed; every admitted
        request returns a numerically correct :class:`ServeResult`.
        """
        return self.submit_call(
            GemmCall(a, b, c, alpha, beta, transa, transb),
            deadline_s, arrival_dt_s, request_id,
        )

    __call__ = submit

    def submit_call(self, call: GemmCall, deadline_s: Optional[float] = None,
                    arrival_dt_s: Optional[float] = None,
                    request_id: Optional[int] = None) -> ServeResult:
        """:meth:`submit` for a :class:`GemmCall`.  A call ``validate``
        returned for the service's dtype, as the async scheduler queues
        them, passes gate 1 without a second operand scan."""
        self._tick += 1
        rid = self._tick if request_id is None else request_id
        (result,) = self._serve([call], [rid], deadline_s, arrival_dt_s,
                                batched=False)
        return result

    def submit_batch(
        self,
        members: Sequence[GemmCall],
        deadline_s: Optional[float] = None,
        arrival_dt_s: Optional[float] = None,
        request_ids: Optional[Sequence[int]] = None,
    ) -> List[ServeResult]:
        """Serve a coalesced batch of requests through the five gates.

        The whole batch is validated up front
        (:class:`~repro.errors.InvalidBatchError` before any device
        work), admitted as one unit, and launched back to back through
        one ladder rung via :class:`~repro.gemm.batched.BatchedGemm`,
        paying one pipeline fill instead of per-member launch latencies.
        Members may mix shapes, transposes, alpha and beta.  Every
        member is still individually Freivalds-sampled: a corrupt
        member quarantines the rung and is re-served by the rungs below
        it, exactly like a stand-alone request, so batching never
        weakens the correctness story.  Returns one
        :class:`ServeResult` per member, in order.
        """
        # A refused batch is never served, so it must not advance the
        # tick that drives breaker cool-downs and the canary schedule.
        n = len(members)
        if n == 0:
            raise InvalidBatchError("empty batch")
        rids = None if request_ids is None else list(request_ids)
        if rids is not None and len(rids) != n:
            raise InvalidBatchError(f"{len(rids)} request ids for {n} members")
        self._tick += 1
        if rids is None:
            rids = [self._tick] * n
        return self._serve(members, rids, deadline_s, arrival_dt_s,
                           batched=True)

    def submit_sharded(
        self, call: GemmCall, request_id: int,
        deadline_s: Optional[float] = None,
    ) -> Tuple[Optional[ServeResult], Optional[float]]:
        """Serve one NN request split across the shard fleet (see
        :meth:`enable_sharding`); ``call`` is one ``validate`` returned.

        Devices lost mid-shard feed their circuit breakers, and the
        combined result is Freivalds-sampled like any device serve.
        Unlike :meth:`submit_call`, this does not advance the request
        clock, run canaries or open a trace, and it counts the request
        only once served.  Returns ``(result, seconds)``.  A None
        ``result`` means the caller re-serves the request through the
        ladder; ``seconds`` is then None after a fault the fleet cannot
        absorb, else the simulated seconds a caught corruption burned.
        """
        fleet, rid = self.fleet, request_id
        injector = self._salted_injector(f"req:{rid}:shard")
        for routine in fleet.routines.values():
            routine.context.fault_injector = injector
        try:
            md = call_with_timeout(
                lambda: fleet(call.a, call.b, call.c,
                              alpha=call.alpha, beta=call.beta),
                self.config.attempt_timeout_s,
            )
        except RUNG_FAILURES as exc:
            self.log.record(
                rid, "degraded", device="fleet", rung="sharded",
                detail=(f"{type(exc).__name__}: {exc}; falling back "
                        f"to the single-device ladder"),
            )
            return None, None
        for device, start, stop in md.lost:
            self._breaker_failure(device, self._tick, rid, "sharded",
                                  "device lost mid-shard")
            self.log.record(
                rid, "degraded", device=device, rung="sharded",
                detail=f"device lost; columns {start}:{stop} re-partitioned",
            )
        passed = self._freivalds(
            rid, call, md.c, "fleet", "sharded",
            note="; re-serving via the single-device ladder",
        )
        seconds = md.wall_seconds
        if passed is False:
            return None, seconds
        # Counted only now: the counters are monotonic (the registry
        # exports them as Prometheus counters), so a fallback must never
        # have to un-count.
        self.counters.requests += 1
        self.counters.admitted += 1
        self.counters.sharded += 1
        lost = md.lost_devices
        self.log.record(
            rid, "shard",
            detail=(f"{md.M}x{md.N}x{md.K} over {len(md.shares)} shares "
                    f"({len(fleet.specs)}-device fleet)"
                    + (f"; lost {','.join(lost)}" if lost else "")),
        )
        deadline = (self.config.default_deadline_s if deadline_s is None
                    else deadline_s)
        result = self._account(
            rid, "sharded", "fleet", md.c, seconds, 0.0, deadline,
            bool(passed), [("fleet:sharded", f"lost {d}") for d in lost])
        return result, seconds

    def _serve(self, calls, rids, deadline_s, arrival_dt_s,
               batched: bool) -> List[ServeResult]:
        """The one request path: all five gates for ``calls`` at the
        current tick, inside one trace.

        A stand-alone request and a batch differ only in how a device
        rung launches them (see :meth:`_launch`), in the wording of
        their incident records, and in when a corrupt attempt's time
        reaches the backlog.
        """
        cfg = self.config
        tick = self._tick
        n = len(calls)
        self.counters.requests += n
        with self.obs.trace("serve.batch" if batched else "serve.request",
                            request_id=rids[0], members=n) as root:
            self._trace_id = root.trace_id
            try:
                members = self._admit(calls, rids, arrival_dt_s, batched)
                queue_wait = self._backlog_s
                deadline = (cfg.default_deadline_s if deadline_s is None
                            else deadline_s)
                # Quarantine maintenance: periodic known-answer canaries.
                self._maybe_canaries(tick, rids[0])
                results = self._walk(members, rids, tick, queue_wait,
                                     deadline, batched)
            finally:
                self._trace_id = ""
            root.set(rung=results[0].rung, device=results[0].device,
                     degraded=any(r.degraded for r in results),
                     deadline_missed=any(r.deadline_missed for r in results))
        for result in results:
            result.trace_id = root.trace_id
        return results

    def _admit(self, calls, rids, arrival_dt_s,
               batched: bool) -> List[GemmCall]:
        """Gates 1-2: validate every call, then admit them as one unit of
        backlog.  Returns the normalized calls."""
        cfg = self.config
        n = len(calls)

        # Gate 1: validation (typed errors, no device work).  A batch
        # validates every member before any member runs.
        with self.obs.span("gate.validate", members=n):
            members = []
            for i, call in enumerate(calls):
                try:
                    members.append(call.validate(self.dtype))
                except InvalidRequestError as exc:
                    self.counters.invalid += n
                    self.log.record(
                        rids[i], "invalid",
                        detail=f"batch member {i}: {exc}" if batched else str(exc),
                        trace_id=self._trace_id,
                    )
                    if not batched:
                        raise
                    raise InvalidBatchError(
                        f"member {i}: {exc}", member=i
                    ) from exc

        # Gate 2: admission control (bounded simulated backlog).
        with self.obs.span("gate.admission") as admission:
            dt = cfg.interarrival_s if arrival_dt_s is None else arrival_dt_s
            self._backlog_s = max(0.0, self._backlog_s - max(0.0, dt))
            admission.set(backlog_ms=round(self._backlog_s * 1e3, 6))
            if self._backlog_s > cfg.max_backlog_s:
                self.counters.shed += n
                admission.set(outcome="shed")
                who = f"batch of {n}" if batched else f"request {rids[0]}"
                backlog = f"backlog {self._backlog_s * 1e3:.3f} ms"
                budget = f"{cfg.max_backlog_s * 1e3:.3f} ms"
                self.log.record(
                    rids[0], "shed",
                    detail=((f"{who} shed: " if batched else "")
                            + f"{backlog} exceeds budget {budget}"),
                    trace_id=self._trace_id,
                )
                # The backlog drains at one simulated second per second
                # of arrivals, so the excess over the budget *is* the
                # time until a resubmission clears admission.
                raise AdmissionError(
                    f"{who} shed: simulated {backlog} exceeds the "
                    f"{budget} budget",
                    retry_after_s=self._backlog_s - cfg.max_backlog_s,
                )
            admission.set(outcome="admitted")
        self.counters.admitted += n
        return members

    def _walk(self, members, rids, tick, queue_wait, deadline,
              batched: bool) -> List[ServeResult]:
        """Gates 3-5: walk the ladder until every member is served.

        Each rung takes all still-pending members in one launch.  Every
        result is Freivalds-sampled on its own: a corrupt member
        quarantines the rung and stays pending for the rungs below,
        while the others are accounted and returned.
        """
        n = len(members)
        if n > 1:
            self.counters.batches += 1
            self.counters.batched_members += n
            shapes = sorted({f"{m.dims()[0]}x{m.dims()[1]}x{m.dims()[2]}"
                             for m in members})
            self.log.record(
                rids[0], "batch",
                detail=f"{n} members coalesced ({', '.join(shapes[:4])})",
                trace_id=self._trace_id,
            )
        pending = list(range(n))
        results: List[Optional[ServeResult]] = [None] * n
        spent = [0.0] * n
        degradations: List[List[Tuple[str, str]]] = [[] for _ in range(n)]

        def degrade(rung: Rung, reason: str, indices) -> None:
            for i in indices:
                degradations[i].append((rung.key, reason))
            if self._fallbacks is not None:
                self._fallbacks.labels(rung=rung.key).inc(len(indices))
            self.log.record(
                rids[indices[0]], "degraded", device=rung.device,
                rung=rung.name,
                detail=(f"{reason} ({len(indices)} members)" if batched
                        else reason),
                trace_id=self._trace_id,
            )

        def finish(i: int, rung: Rung, out, seconds: float,
                   standalone_s: float, verified: bool) -> None:
            member = members[i]
            if (not rung.is_reference
                    and max(member.dims()) <= SMALL_GEMM_DIM):
                self.small_gemm.add(member.flops, seconds, standalone_s)
            results[i] = self._account(
                rids[i], rung.name, rung.device, out, spent[i] + seconds,
                queue_wait, deadline, verified, degradations[i], n)
            # A batch already charged its members' corrupt attempts to
            # the backlog as they burned; a stand-alone request charges
            # its whole service time once served.
            self._backlog_s += seconds if batched else results[i].service_s

        for rung in self.ladder.rungs:
            if not pending:
                break
            with self.obs.span(f"rung:{rung.key}",
                               members=len(pending)) as rung_span:
                if rung.key in self._static_rejected:
                    rung_span.set(outcome="skipped", reason="static_reject")
                    degrade(rung, "static analysis: "
                            f"{self._static_rejected[rung.key]}", pending)
                    continue
                if rung.key in self._quarantined:
                    rung_span.set(outcome="skipped", reason="quarantined")
                    degrade(rung, "kernel quarantined", pending)
                    continue
                breaker = self.breakers.get(rung.device) if rung.device else None
                if breaker is not None:
                    was_open = breaker.state is BreakerState.OPEN
                    allowed = breaker.allow(tick)
                    with self.obs.span("breaker", device=rung.device,
                                       state=breaker.state.value,
                                       allowed=allowed):
                        pass
                    if not allowed:
                        rung_span.set(outcome="skipped", reason="breaker_open")
                        degrade(rung, "circuit breaker open", pending)
                        continue
                    if was_open and breaker.state is BreakerState.HALF_OPEN:
                        self.log.record(rids[pending[0]], "breaker_probe",
                                        device=rung.device, rung=rung.name,
                                        trace_id=self._trace_id)
                if rung.is_reference:
                    # The host floor cannot fault or corrupt, and is
                    # never quarantined, breaker-gated or deadline-skipped.
                    for i in pending:
                        m = members[i]
                        out, seconds = rung.call(m.a, m.b, m.c, m.alpha,
                                                 m.beta, m.transa, m.transb)
                        finish(i, rung, out, seconds, seconds, verified=False)
                    rung_span.set(outcome="served")
                    pending = []
                    continue
                if deadline is not None:
                    # Conservative: the members' stand-alone predictions.
                    predicted = sum(
                        rung.predict_s(*members[i].dims()) for i in pending
                    )
                    remaining = (deadline - queue_wait
                                 - max(spent[i] for i in pending))
                    if predicted > remaining:
                        rung_span.set(outcome="skipped", reason="deadline")
                        degrade(
                            rung,
                            f"deadline: predicted {predicted * 1e3:.3f} ms > "
                            f"remaining {max(remaining, 0.0) * 1e3:.3f} ms",
                            pending,
                        )
                        continue
                try:
                    outs, charged, standalone = self._launch(
                        rung, members, pending, rids, batched)
                except RUNG_FAILURES as exc:
                    rung_span.set(outcome="failed", error=type(exc).__name__)
                    self._breaker_failure(rung.device, tick, rids[pending[0]],
                                          rung.name, str(exc))
                    degrade(rung, f"{type(exc).__name__}: {exc}", pending)
                    continue
                if breaker is not None:
                    prior = breaker.state
                    breaker.record_success()
                    if (prior is BreakerState.HALF_OPEN
                            and breaker.state is BreakerState.CLOSED):
                        self.log.record(rids[pending[0]], "breaker_close",
                                        device=rung.device, rung=rung.name,
                                        trace_id=self._trace_id)

                # Gate 4: per-member result verification.
                corrupt: List[int] = []
                for slot, i in enumerate(pending):
                    passed = self._freivalds(rids[i], members[i], outs[slot],
                                             rung.device, rung.name)
                    if passed is False:
                        # The corrupt attempt burned real device time.
                        spent[i] += charged[slot]
                        if batched:
                            self._backlog_s += charged[slot]
                        corrupt.append(i)
                        continue
                    finish(i, rung, outs[slot], charged[slot],
                           standalone[slot], verified=bool(passed))
                if corrupt:
                    rung_span.set(
                        outcome=("corrupt" if len(corrupt) == len(pending)
                                 else "partial_corrupt"),
                        corrupt=len(corrupt),
                    )
                    self._quarantine(rung, rids[corrupt[0]])
                    degrade(rung, "result corruption caught; re-serving",
                            corrupt)
                else:
                    rung_span.set(outcome="served")
                pending = corrupt
        assert not pending, "degradation ladder exhausted with members pending"
        return results

    def _account(self, rid: int, rung: str, device: str, out,
                 service_s: float, queue_wait: float,
                 deadline: Optional[float], verified: bool,
                 degradations: List[Tuple[str, str]],
                 batch_size: int = 1) -> ServeResult:
        """Gate 5 for one served request, on the ladder or sharded:
        count it, observe its latency, record a missed deadline, and
        return its :class:`ServeResult`."""
        self.counters.completed += 1
        self.counters.count_rung(rung)
        if degradations:
            self.counters.degraded += 1
        if self._service_hist is not None:
            self._service_hist.observe(service_s)
            self._wait_hist.observe(queue_wait)
        result = ServeResult(
            c=out, request_id=rid, rung=rung, device=device,
            degraded=bool(degradations), verified=verified,
            service_s=service_s, queue_wait_s=queue_wait,
            degradations=degradations, batch_size=batch_size,
        )
        if deadline is not None and queue_wait + service_s > deadline:
            result.deadline_missed = True
            self.counters.deadline_missed += 1
            self.log.record(
                rid, "deadline_missed", device=device, rung=rung,
                detail=(f"served in "
                        f"{(queue_wait + service_s) * 1e3:.3f} ms against "
                        f"a {deadline * 1e3:.3f} ms deadline"),
                trace_id=self._trace_id,
            )
        return result

    def _launch(self, rung: Rung, members, live, rids, batched: bool):
        """Run the ``live`` members through one device rung, under the
        watchdog.

        Returns three per-member lists: the results, the simulated
        seconds charged to each, and each one's stand-alone seconds
        (the small-GEMM ledger's sync baseline).  A batch is one
        :class:`~repro.gemm.batched.BatchedGemm` pipeline that charges
        each member its share.  A stand-alone request is one routine
        call whose clsim commands, traced while it runs, are bridged
        into spans here on the main thread; the tracer detaches inside
        the attempt, so a timed-out attempt leaves the queue unwrapped.
        """
        timeout = self.config.attempt_timeout_s
        if batched:
            injector = self._salted_injector(
                f"req:{rids[live[0]]}:batch:{rung.key}")
            batch = [members[i] for i in live]

            def attempt():
                return BatchedGemm(rung.routine(injector))(
                    [m.a for m in batch], [m.b for m in batch],
                    [m.c for m in batch],
                    alpha=[m.alpha for m in batch],
                    beta=[m.beta for m in batch],
                    transa=[m.transa for m in batch],
                    transb=[m.transb for m in batch],
                )

            done = call_with_timeout(attempt, timeout)
            return (done.matrices, done.member_seconds(),
                    [r.timings.total_s for r in done.results])
        (i,) = live
        m = members[i]
        injector = self._salted_injector(f"req:{rids[i]}:rung:{rung.key}")

        def attempt():
            if not self.obs.enabled:
                return rung.call(m.a, m.b, m.c, m.alpha, m.beta, m.transa,
                                 m.transb, injector=injector), ()
            # May raise: a build fault.
            tracer = attach_tracer(rung.routine(injector).queue)
            try:
                return rung.call(m.a, m.b, m.c, m.alpha, m.beta, m.transa,
                                 m.transb, injector=injector), tracer.records
            finally:
                tracer.detach()

        (out, seconds), records = call_with_timeout(attempt, timeout)
        bridge_records(self.obs, records)
        return [out], [seconds], [seconds]

    def _breaker_failure(self, device: str, tick: int, rid: int, rung: str,
                         cause: str) -> None:
        """Feed one runtime failure to ``device``'s circuit breaker; a
        failure that opens it is counted and incident-logged."""
        breaker = self.breakers.get(device)
        if breaker is not None and breaker.record_failure(tick):
            self.counters.breaker_trips += 1
            self.log.record(
                rid, "breaker_trip", device=device, rung=rung,
                detail=f"opened after: {cause}", trace_id=self._trace_id,
            )

    def _freivalds(self, rid: int, call: GemmCall, out, device: str,
                   rung: str, note: str = "") -> Optional[bool]:
        """Gate 4 for one served result: a seeded Freivalds check, when
        request ``rid`` is sampled (``verify_rate``).

        Returns ``None`` when it is not sampled, else whether the check
        passed.  A pass counts as verified; a failure is counted and
        incident-logged as corruption (``note`` ends the record's
        detail), and the caller re-serves the request.
        """
        cfg = self.config
        if self._unit("verify", rid) >= cfg.verify_rate:
            return None
        with self.obs.span("verify.freivalds",
                           rounds=self.verifier.rounds) as vspan:
            check = self.verifier.check(
                call.a, call.b, out, call.alpha, call.beta, call.c,
                call.transa, call.transb, key=f"req:{rid}",
            )
            vspan.set(passed=check.passed)
        if check.passed:
            self.counters.verified += 1
            return True
        self.counters.corruption_caught += 1
        self.log.record(
            rid, "corruption", device=device, rung=rung,
            detail=(f"Freivalds residual {check.max_residual:.3e} "
                    f"> tolerance {check.tolerance:.3e}{note}"),
            trace_id=self._trace_id,
        )
        return False

    # -- hot swap -------------------------------------------------------
    def hot_swap(self, device: str, params, request_id: int = -1) -> Rung:
        """Replace ``device``'s primary serving kernel in place.

        The background tuner calls this when it beats the serving
        configuration: the new kernel is statically verified first
        (a provably unsafe swap is refused with
        :class:`~repro.errors.ParameterError` and the old kernel keeps
        serving), then the ``tuned`` rung is rebuilt around the new
        parameters, and so is the device's shard-fleet member, in its
        place in the column split.  In-flight and queued requests are
        untouched — only future dispatches see the new kernel — and the
        rung's quarantine state is reset because it no longer describes
        the kernel now serving.
        """
        from repro.analyze.verifier import StaticVerifier
        from repro.errors import ParameterError

        old = self.ladder.primary_rung(device)
        rule = StaticVerifier(old.spec).gate(params)
        if rule is not None:
            self.log.record(
                request_id, "static_reject", device=device, rung="tuned",
                detail=f"hot swap refused: {rule}: {params.summary()}",
                trace_id=self._trace_id,
            )
            self.counters.static_rejects += 1
            raise ParameterError(
                f"hot swap refused: replacement kernel violates {rule}"
            )
        rung = self.ladder.replace_primary(device, params)
        if self.fleet is not None:
            self.fleet.replace_device(device, params)
        self._quarantined.pop(rung.key, None)
        self._static_rejected.pop(rung.key, None)
        self.counters.hot_swaps += 1
        self.log.record(
            request_id, "hot_swap", device=device, rung="tuned",
            detail=f"serving kernel replaced: {params.summary()}",
            trace_id=self._trace_id,
        )
        return rung

    # -- fleet membership -----------------------------------------------
    def enable_sharding(self) -> None:
        """Hold a shard fleet for :meth:`submit_sharded` from now on:
        a :class:`~repro.gemm.multidev.MultiDeviceGemm` over the ladder's
        tuned devices, in ladder order, built once two of them serve and
        kept in step by the membership methods below."""
        if not self._sharding:
            self._sharding = True
            self._join_fleet()

    def _join_fleet(self, device: Optional[str] = None) -> None:
        """Keep the shard fleet in step after ``device``'s rungs joined
        the ladder: append it, as the ladder appends its rungs, or build
        the fleet once two tuned devices serve."""
        if not self._sharding:
            return
        if self.fleet is not None:
            tuned = self.ladder.primary_rung(device)
            self.fleet.admit_device(tuned.spec, tuned.params)
            return
        tuned = [rung for rung in self.ladder.rungs if rung.name == "tuned"]
        if len(tuned) >= 2:
            from repro.gemm.multidev import MultiDeviceGemm

            self.fleet = MultiDeviceGemm(
                [rung.spec for rung in tuned], self.precision,
                {rung.device: rung.params for rung in tuned},
                obs=self.obs, measurement_noise=False,
            )

    def _leave_fleet(self, device: str) -> None:
        """Drop ``device`` from the shard fleet, if it is a member; a
        fleet left with one device is kept but no longer shards."""
        if self.fleet is not None and device in self.fleet.routines:
            self.fleet.retire_device(device)

    @property
    def serving_devices(self) -> Tuple[str, ...]:
        """Devices with live rungs on the ladder, in ladder order."""
        seen: List[str] = []
        for rung in self.ladder.rungs:
            if rung.device and rung.device not in seen:
                seen.append(rung.device)
        return tuple(seen)

    @property
    def parked_devices(self) -> Tuple[str, ...]:
        """Devices suspended off the ladder (suspected/draining)."""
        return tuple(sorted(self._parked))

    def admit_device(self, device, params=None, request_id: int = -1):
        """Bring a new device onto the serving ladder.

        The device's rung group is built, statically verified (refused
        kernels are recorded exactly like construction-time ones), and
        appended after the incumbents; a circuit breaker is created for
        it.  Returns the new rungs — empty when the device has nothing
        tuned at this precision, in which case nothing is admitted.
        """
        rungs = self._add_device(device, params, request_id)
        if rungs:
            self._join_fleet(rungs[0].device)
        return rungs

    def admit_parked(self, device, request_id: int = -1):
        """Admit a device straight into the parked set, warming.

        The rungs are built and verified as :meth:`admit_device` builds
        them and parked as ``suspend_device(reason="warming")`` parks
        them, with both records; the shard fleet gains the device only
        when :meth:`resume_device` puts it on the ladder.
        """
        rungs = self._add_device(device, None, request_id)
        if rungs:
            self.suspend_device(rungs[0].device, request_id, reason="warming")
        return rungs

    def _add_device(self, device, params, request_id: int):
        rungs = self.ladder.add_device(device, params)
        if not rungs:
            self.log.record(
                request_id, "fleet_admit", device=str(device),
                detail="refused: nothing tuned at this precision",
                trace_id=self._trace_id,
            )
            return rungs
        self._verify_rung_group(rungs)
        name = rungs[0].device
        self._ensure_breaker(name)
        self.counters.fleet_admits += 1
        self.log.record(
            request_id, "fleet_admit", device=name,
            detail=f"{len(rungs)} rungs admitted",
            trace_id=self._trace_id,
        )
        return rungs

    def suspend_device(self, device: str, request_id: int = -1,
                       reason: str = "suspected") -> None:
        """Park a device's rungs off the ladder (routing removal only).

        The rung objects — and their built routines — are kept, so
        :meth:`resume_device` restores service without paying kernel
        construction again.  Suspending a device that is already parked
        or has no rungs is a no-op.
        """
        rungs = self.ladder.remove_device(device)
        if not rungs:
            return
        self._parked[device] = rungs
        self._leave_fleet(device)
        self.log.record(
            request_id, "fleet_suspend", device=device, detail=reason,
            trace_id=self._trace_id,
        )

    def resume_device(self, device: str, request_id: int = -1) -> None:
        """Restore a parked device's rungs to the ladder."""
        rungs = self._parked.pop(device, None)
        if not rungs:
            return
        self.ladder.insert_device(rungs)
        self._join_fleet(device)
        self.log.record(
            request_id, "fleet_resume", device=device,
            detail=f"{len(rungs)} rungs restored",
            trace_id=self._trace_id,
        )

    def retire_device(self, device: str, request_id: int = -1,
                      reason: str = "drained") -> None:
        """Remove a device permanently (ladder + parked + quarantine).

        The breaker object is kept — a later re-admission of the same
        codename inherits its failure history, which is exactly what a
        flapping device deserves.
        """
        removed = self.ladder.remove_device(device)
        removed.extend(self._parked.pop(device, []))
        self._leave_fleet(device)
        for rung in removed:
            self._quarantined.pop(rung.key, None)
            self._static_rejected.pop(rung.key, None)
        if removed:
            self.counters.fleet_retires += 1
            self.log.record(
                request_id, "fleet_retire", device=device, detail=reason,
                trace_id=self._trace_id,
            )

    # -- quarantine and canaries ---------------------------------------
    def _maybe_canaries(self, tick: int, rid: int) -> None:
        cfg = self.config
        if (self._quarantined and cfg.canary_interval > 0
                and tick % cfg.canary_interval == 0):
            with self.obs.span("canaries",
                               quarantined=len(self._quarantined)):
                self._run_canaries(tick, rid)

    def _quarantine(self, rung: Rung, rid: int) -> None:
        if rung.key not in self._quarantined:
            self._quarantined[rung.key] = 0
            self.counters.quarantined += 1
            self.log.record(rid, "quarantine", device=rung.device,
                            rung=rung.name, trace_id=self._trace_id)

    def _canary_problem(self):
        """A fixed seeded known-answer GEMM (reference precomputed once)."""
        if self._canary_cache is None:
            n = _CANARY_SIZE
            rng = np.random.default_rng(self.config.seed + 0xCA0A)
            a = rng.standard_normal((n, n)).astype(self.dtype)
            b = rng.standard_normal((n, n)).astype(self.dtype)
            expected = reference_gemm("N", "N", 1.0, a, b, 0.0)
            self._canary_cache = (a, b, expected)
        return self._canary_cache

    def _known_answer(self, rung: Rung,
                      salt: str) -> Tuple[bool, Optional[float]]:
        """The one known-answer check: the seeded canary GEMM through
        ``rung`` under the watchdog, its faults salted with ``salt``.

        Returns ``(correct, seconds)``; ``seconds`` is the simulated
        time of the attempt, None when it faulted before timing anything.
        """
        a, b, expected = self._canary_problem()
        injector = self._salted_injector(salt)
        try:
            out, seconds = call_with_timeout(
                lambda: rung.call(a, b, None, 1.0, 0.0, "N", "N",
                                  injector=injector),
                self.config.attempt_timeout_s,
            )
        except RUNG_FAILURES:
            return False, None
        tol = 1e-4 if self.precision == "s" else 1e-10
        correct = bool(np.all(np.isfinite(out))) and (
            relative_error(out, expected) < tol
        )
        return correct, seconds

    def probe_parked(self, device: str,
                     salt: str) -> Tuple[bool, Optional[float]]:
        """Known-answer probe of a parked device's best rung.

        Returns ``(correct, latency_ratio)``: the probe's simulated
        seconds over the rung's noise-free prediction (None when the
        probe faulted, nothing is parked, or the prediction is zero).
        """
        rungs = self._parked.get(device)
        if not rungs:
            return False, None
        correct, seconds = self._known_answer(rungs[0], salt)
        if seconds is None:
            return False, None
        predicted = rungs[0].predict_s(_CANARY_SIZE, _CANARY_SIZE,
                                       _CANARY_SIZE)
        return correct, seconds / predicted if predicted > 0 else None

    def _run_canaries(self, tick: int, rid: int) -> None:
        """Probe each quarantined kernel with a known-answer GEMM."""
        rungs = {rung.key: rung for rung in self.ladder.rungs}
        for key in sorted(self._quarantined):
            rung = rungs.get(key)
            if rung is None:
                # The rung's device is parked (suspected/warming): the
                # fleet manager probes it; quarantine state waits here.
                continue
            self.counters.canaries_run += 1
            with self.obs.span(f"canary:{key}") as cspan:
                ok, _ = self._known_answer(rung, f"canary:{tick}:{key}")
                cspan.set(passed=ok)
            if ok:
                self._quarantined[key] += 1
                self.log.record(
                    rid, "canary_pass", device=rung.device, rung=rung.name,
                    detail=f"pass {self._quarantined[key]}"
                           f"/{self.config.canary_passes}",
                    trace_id=self._trace_id,
                )
                if self._quarantined[key] >= self.config.canary_passes:
                    del self._quarantined[key]
                    self.counters.readmitted += 1
                    self.log.record(rid, "readmit", device=rung.device,
                                    rung=rung.name,
                                    trace_id=self._trace_id)
            else:
                self._quarantined[key] = 0
                self.log.record(rid, "canary_fail", device=rung.device,
                                rung=rung.name, trace_id=self._trace_id)

    # -- introspection --------------------------------------------------
    def describe(self) -> str:
        lines = [f"GemmService ({'SGEMM' if self.precision == 's' else 'DGEMM'})"]
        lines.append(self.ladder.describe())
        for breaker in self.breakers.values():
            lines.append("  " + breaker.describe())
        if self._quarantined:
            lines.append(f"  quarantined: {', '.join(sorted(self._quarantined))}")
        return "\n".join(lines)
