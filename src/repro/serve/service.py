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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.specs import DeviceSpec
from repro.errors import (
    AdmissionError,
    CLError,
    InvalidRequestError,
    MeasurementTimeout,
)
from repro.clsim.trace import attach_tracer
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

#: Problems with every dimension at or below this are "small" for the
#: batching-throughput ledger — the size band where the paper's kernels
#: cannot amortise launch overhead and coalescing pays off.
SMALL_GEMM_DIM = 128


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
    #: Independent Freivalds rounds per check.
    verify_rounds: int = 2
    #: Rounding-error allowance factor (see FreivaldsVerifier).
    verify_tol_factor: float = 64.0
    # -- circuit breakers ---------------------------------------------
    breaker_failure_threshold: int = 3
    breaker_cooldown: int = 25
    breaker_probe_successes: int = 2
    # -- quarantine canaries ------------------------------------------
    #: Run known-answer canaries every N requests (0 disables).
    canary_interval: int = 50
    #: Consecutive canary passes that re-admit a quarantined kernel.
    canary_passes: int = 2
    #: Canary problem size (kept small: canaries ride the request path).
    canary_size: int = 32
    # -- misc ----------------------------------------------------------
    #: Wall-clock watchdog per rung attempt (kills injected hangs).
    attempt_timeout_s: Optional[float] = None
    #: Modelled host GEMM rate for the reference rung's time accounting.
    host_gflops: float = 8.0


@dataclass(frozen=True)
class GemmCall:
    """One GEMM problem, as the batch path carries it.

    A value object the async scheduler queues and
    :meth:`GemmService.submit_batch` consumes; ``validate`` returns a
    normalized copy (arrays cast to the service's dtype, transposes
    upper-cased) or raises :class:`~repro.errors.InvalidRequestError`.
    """

    a: np.ndarray
    b: np.ndarray
    c: Optional[np.ndarray] = None
    alpha: float = 1.0
    beta: float = 0.0
    transa: str = "N"
    transb: str = "N"

    def validate(self, dtype: np.dtype) -> "GemmCall":
        a, b, c, transa, transb = validate_gemm_request(
            self.a, self.b, self.c, self.alpha, self.beta,
            self.transa, self.transb,
        )
        with np.errstate(over="ignore"):  # an overflow is rejected below
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
        return GemmCall(a, b, c, self.alpha, self.beta, transa, transb)

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
        self._base_injector = fault_injector
        routine_kwargs.setdefault("measurement_noise", False)
        self.ladder = DegradationLadder(
            devices, precision, params,
            host_gflops=self.config.host_gflops, **routine_kwargs,
        )
        self.breakers: Dict[str, CircuitBreaker] = {}
        for rung in self.ladder.rungs:
            if rung.device and rung.device not in self.breakers:
                self.breakers[rung.device] = CircuitBreaker(
                    rung.device,
                    failure_threshold=self.config.breaker_failure_threshold,
                    cooldown_ticks=self.config.breaker_cooldown,
                    probe_successes=self.config.breaker_probe_successes,
                )
        self.verifier = FreivaldsVerifier(
            seed=self.config.seed,
            rounds=self.config.verify_rounds,
            tol_factor=self.config.verify_tol_factor,
        )
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
        self._static_rejected: Dict[str, str] = self._verify_rungs()
        self._tick = 0
        self._backlog_s = 0.0
        #: Small-GEMM throughput ledger (see :class:`BatchingAccount`).
        self.small_gemm = BatchingAccount()
        self._canary_cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _verify_rungs(self) -> Dict[str, str]:
        """Statically verify every device rung's kernel up front.

        A failing rung is never attempted — its launch failure is a
        foregone conclusion the prover can state in advance — and the
        refusal is incident-logged (request_id -1: a service-lifetime
        decision, not a per-request one) and counted.
        """
        rejected: Dict[str, str] = {}
        self._verify_rung_group(self.ladder.rungs, rejected)
        return rejected

    def _verify_rung_group(
        self, rungs: Sequence[Rung], rejected: Dict[str, str]
    ) -> None:
        """Run the static gate over ``rungs``, recording refusals."""
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
                rejected[rung.key] = rule
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
        if self._base_injector is None:
            return None
        return self._base_injector.salted(salt)

    def set_fault_clock(self, now_s: float) -> None:
        """Advance the fault plan's simulated clock.

        Window-correlated fault kinds (``zone_outage``, ``brownout``)
        decide by *time*, not per-request hashing; the async scheduler
        calls this each step so every injector the service re-salts from
        here on carries the current simulated instant.  A no-op without
        a fault plan or with a plan of purely per-request kinds.
        """
        if self._base_injector is not None and hasattr(
                self._base_injector, "at_time"):
            self._base_injector = self._base_injector.at_time(now_s)

    @property
    def quarantined(self) -> Tuple[str, ...]:
        """Currently quarantined rung keys (e.g. ``("tahiti:tuned",)``)."""
        return tuple(sorted(self._quarantined))

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
        self._tick += 1
        tick = self._tick
        rid = tick if request_id is None else request_id
        with self.obs.trace("serve.request", request_id=rid) as root:
            self._trace_id = root.trace_id
            try:
                result = self._submit_gates(
                    rid, tick, a, b, c, alpha, beta, transa, transb,
                    deadline_s, arrival_dt_s,
                )
                root.set(rung=result.rung, device=result.device,
                         degraded=result.degraded,
                         deadline_missed=result.deadline_missed)
            finally:
                self._trace_id = ""
        result.trace_id = root.trace_id
        return result

    __call__ = submit

    def _submit_gates(
        self, rid, tick, a, b, c, alpha, beta, transa, transb,
        deadline_s, arrival_dt_s,
    ) -> ServeResult:
        cfg = self.config
        self.counters.requests += 1

        # Gate 1: validation (typed errors, no device work).
        with self.obs.span("gate.validate"):
            try:
                call = GemmCall(a, b, c, alpha, beta, transa,
                                transb).validate(self.dtype)
            except InvalidRequestError as exc:
                self.counters.invalid += 1
                self.log.record(rid, "invalid", detail=str(exc),
                                trace_id=self._trace_id)
                raise
        a, b, c, transa, transb = (call.a, call.b, call.c,
                                   call.transa, call.transb)
        M, N, K = call.dims()

        # Gate 2: admission control (bounded simulated backlog).
        with self.obs.span("gate.admission") as admission:
            dt = cfg.interarrival_s if arrival_dt_s is None else arrival_dt_s
            self._backlog_s = max(0.0, self._backlog_s - max(0.0, dt))
            admission.set(backlog_ms=round(self._backlog_s * 1e3, 6))
            if self._backlog_s > cfg.max_backlog_s:
                self.counters.shed += 1
                admission.set(outcome="shed")
                self.log.record(
                    rid, "shed",
                    detail=(f"backlog {self._backlog_s * 1e3:.3f} ms exceeds "
                            f"budget {cfg.max_backlog_s * 1e3:.3f} ms"),
                    trace_id=self._trace_id,
                )
                # The backlog drains at one simulated second per second
                # of arrivals, so the excess over the budget *is* the
                # time until a resubmission clears admission.
                raise AdmissionError(
                    f"request {rid} shed: simulated backlog "
                    f"{self._backlog_s * 1e3:.3f} ms exceeds the "
                    f"{cfg.max_backlog_s * 1e3:.3f} ms budget",
                    retry_after_s=self._backlog_s - cfg.max_backlog_s,
                )
            admission.set(outcome="admitted")
        self.counters.admitted += 1
        queue_wait = self._backlog_s
        deadline = cfg.default_deadline_s if deadline_s is None else deadline_s

        # Quarantine maintenance: periodic known-answer canaries.
        self._maybe_canaries(tick, rid)

        # Gates 3+4: the ladder with verification.
        result = self._serve_ladder(
            rid, tick, a, b, c, alpha, beta, transa, transb,
            M, N, K, queue_wait, deadline,
        )

        # Gate 5: accounting.
        self._backlog_s += result.service_s
        self.counters.completed += 1
        self.counters.count_rung(result.rung)
        if result.degraded:
            self.counters.degraded += 1
        if self._service_hist is not None:
            self._service_hist.observe(result.service_s)
            self._wait_hist.observe(result.queue_wait_s)
        if deadline is not None and queue_wait + result.service_s > deadline:
            result.deadline_missed = True
            self.counters.deadline_missed += 1
            self.log.record(
                rid, "deadline_missed", device=result.device,
                rung=result.rung,
                detail=(f"served in {(queue_wait + result.service_s) * 1e3:.3f}"
                        f" ms against a {deadline * 1e3:.3f} ms deadline"),
                trace_id=self._trace_id,
            )
        return result

    def _serve_ladder(
        self, rid, tick, a, b, c, alpha, beta, transa, transb,
        M, N, K, queue_wait, deadline,
    ) -> ServeResult:
        cfg = self.config
        spent = 0.0
        degradations: List[Tuple[str, str]] = []

        def degrade(rung: Rung, reason: str) -> None:
            degradations.append((rung.key, reason))
            if self._fallbacks is not None:
                self._fallbacks.labels(rung=rung.key).inc()
            self.log.record(rid, "degraded", device=rung.device,
                            rung=rung.name, detail=reason,
                            trace_id=self._trace_id)

        for rung in self.ladder.rungs:
            with self.obs.span(f"rung:{rung.key}") as rung_span:
                if rung.key in self._static_rejected:
                    rung_span.set(outcome="skipped", reason="static_reject")
                    degrade(
                        rung,
                        "static analysis: "
                        f"{self._static_rejected[rung.key]}",
                    )
                    continue
                if rung.key in self._quarantined:
                    rung_span.set(outcome="skipped", reason="quarantined")
                    degrade(rung, "kernel quarantined")
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
                        degrade(rung, "circuit breaker open")
                        continue
                    if was_open and breaker.state is BreakerState.HALF_OPEN:
                        self.log.record(rid, "breaker_probe",
                                        device=rung.device, rung=rung.name,
                                        trace_id=self._trace_id)
                if deadline is not None and not rung.is_reference:
                    remaining = deadline - queue_wait - spent
                    predicted = rung.predict_s(M, N, K)
                    if predicted > remaining:
                        rung_span.set(outcome="skipped", reason="deadline")
                        degrade(
                            rung,
                            f"deadline: predicted {predicted * 1e3:.3f} ms > "
                            f"remaining {max(remaining, 0.0) * 1e3:.3f} ms",
                        )
                        continue
                injector = self._salted_injector(f"req:{rid}:rung:{rung.key}")
                attempt = self._rung_attempt(rung, injector, a, b, c,
                                             alpha, beta, transa, transb)
                try:
                    (out, seconds), records = call_with_timeout(
                        attempt, cfg.attempt_timeout_s
                    )
                except (CLError, MeasurementTimeout) as exc:
                    rung_span.set(outcome="failed",
                                  error=type(exc).__name__)
                    if breaker is not None and breaker.record_failure(tick):
                        self.counters.breaker_trips += 1
                        self.log.record(
                            rid, "breaker_trip", device=rung.device,
                            rung=rung.name,
                            detail=f"opened after: {exc}",
                            trace_id=self._trace_id,
                        )
                    degrade(rung, f"{type(exc).__name__}: {exc}")
                    continue
                bridge_records(self.obs, records)
                if breaker is not None:
                    prior = breaker.state
                    breaker.record_success(tick)
                    if (prior is BreakerState.HALF_OPEN
                            and breaker.state is BreakerState.CLOSED):
                        self.log.record(rid, "breaker_close",
                                        device=rung.device, rung=rung.name,
                                        trace_id=self._trace_id)

                # Gate 4: probabilistic result verification.
                verified = False
                if not rung.is_reference and (
                        self._unit("verify", rid) < cfg.verify_rate):
                    with self.obs.span("verify.freivalds",
                                       rounds=cfg.verify_rounds) as vspan:
                        check = self.verifier.check(
                            a, b, out, alpha, beta, c, transa, transb,
                            key=f"req:{rid}",
                        )
                        vspan.set(passed=check.passed)
                    if not check.passed:
                        rung_span.set(outcome="corrupt")
                        self.counters.corruption_caught += 1
                        self.log.record(
                            rid, "corruption", device=rung.device,
                            rung=rung.name,
                            detail=(f"Freivalds residual "
                                    f"{check.max_residual:.3e} "
                                    f"> tolerance {check.tolerance:.3e}"),
                            trace_id=self._trace_id,
                        )
                        self._quarantine(rung, rid)
                        spent += seconds  # the corrupt attempt burned real time
                        degrade(rung, "result corruption caught; re-serving")
                        continue
                    verified = True
                    self.counters.verified += 1
                rung_span.set(outcome="served", verified=verified,
                              service_ms=round((spent + seconds) * 1e3, 6))
                if not rung.is_reference and max(M, N, K) <= SMALL_GEMM_DIM:
                    # A stand-alone serve is its own sync baseline.
                    self.small_gemm.add(2.0 * M * N * K, seconds, seconds)
                return ServeResult(
                    c=out, request_id=rid, rung=rung.name, device=rung.device,
                    degraded=bool(degradations), verified=verified,
                    service_s=spent + seconds, queue_wait_s=queue_wait,
                    degradations=degradations,
                )
        # Unreachable: the reference rung cannot fault, cannot corrupt,
        # and is never quarantined, breaker-gated, or deadline-skipped.
        raise AssertionError("degradation ladder exhausted")

    def _rung_attempt(self, rung, injector, a, b, c, alpha, beta,
                      transa, transb):
        """Build the watchdogged attempt callable for one rung try.

        Returns ``((c, seconds), records)`` where *records* are the
        clsim commands traced during the attempt (empty with tracing off
        or on the host rung).  The command tracer detaches inside the
        callable, so a timed-out attempt leaves the queue unwrapped; the
        records are bridged into spans by the caller on the main thread.
        """
        if not self.obs.enabled or rung.is_reference:
            return lambda: (
                rung.call(a, b, c, alpha, beta, transa, transb,
                          injector=injector),
                (),
            )

        def attempt():
            routine = rung.routine(injector)  # may raise: a build fault
            tracer = attach_tracer(routine.queue)
            try:
                return (
                    rung.call(a, b, c, alpha, beta, transa, transb,
                              injector=injector),
                    tracer.records,
                )
            finally:
                tracer.detach()

        return attempt

    # -- the batch request path ----------------------------------------
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
        from repro.errors import InvalidBatchError
        from repro.gemm.batched import BatchedGemm

        cfg = self.config
        self._tick += 1
        tick = self._tick
        n = len(members)
        if n == 0:
            raise InvalidBatchError("empty batch")
        if request_ids is None:
            rids = [tick] * n
        else:
            rids = list(request_ids)
            if len(rids) != n:
                raise InvalidBatchError(
                    f"{len(rids)} request ids for {n} members"
                )
        self.counters.requests += n
        with self.obs.trace("serve.batch", members=n,
                            request_id=rids[0]) as root:
            self._trace_id = root.trace_id
            try:
                # Gate 1: the whole batch validates before any member runs.
                with self.obs.span("gate.validate", members=n):
                    normalized = []
                    for i, member in enumerate(members):
                        try:
                            normalized.append(member.validate(self.dtype))
                        except InvalidRequestError as exc:
                            self.counters.invalid += n
                            self.log.record(rids[i], "invalid",
                                            detail=f"batch member {i}: {exc}",
                                            trace_id=self._trace_id)
                            raise InvalidBatchError(
                                f"member {i}: {exc}", member=i
                            ) from exc

                # Gate 2: admission — the batch is one unit of backlog.
                with self.obs.span("gate.admission") as admission:
                    dt = (cfg.interarrival_s if arrival_dt_s is None
                          else arrival_dt_s)
                    self._backlog_s = max(0.0, self._backlog_s - max(0.0, dt))
                    admission.set(backlog_ms=round(self._backlog_s * 1e3, 6))
                    if self._backlog_s > cfg.max_backlog_s:
                        self.counters.shed += n
                        admission.set(outcome="shed")
                        self.log.record(
                            rids[0], "shed",
                            detail=(f"batch of {n} shed: backlog "
                                    f"{self._backlog_s * 1e3:.3f} ms exceeds "
                                    f"budget {cfg.max_backlog_s * 1e3:.3f} ms"),
                            trace_id=self._trace_id,
                        )
                        raise AdmissionError(
                            f"batch of {n} shed: simulated backlog "
                            f"{self._backlog_s * 1e3:.3f} ms exceeds the "
                            f"{cfg.max_backlog_s * 1e3:.3f} ms budget",
                            retry_after_s=self._backlog_s - cfg.max_backlog_s,
                        )
                    admission.set(outcome="admitted")
                self.counters.admitted += n
                queue_wait = self._backlog_s
                deadline = (cfg.default_deadline_s if deadline_s is None
                            else deadline_s)
                self._maybe_canaries(tick, rids[0])
                results = self._serve_batch_ladder(
                    BatchedGemm, tick, normalized, rids, queue_wait, deadline,
                )
                root.set(members=n, rung=results[0].rung)
            finally:
                self._trace_id = ""
        for result in results:
            result.trace_id = root.trace_id
        return results

    def _serve_batch_ladder(
        self, batched_cls, tick, members, rids, queue_wait, deadline,
    ) -> List[ServeResult]:
        """Gates 3-5 for a batch: one pipelined launch per rung, with
        per-member verification and per-member fallback on corruption."""
        cfg = self.config
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
        outs: List[Optional[ServeResult]] = [None] * n
        spent = [0.0] * n
        degradations: List[List[Tuple[str, str]]] = [[] for _ in range(n)]

        def degrade(rung: Rung, reason: str, indices) -> None:
            for i in indices:
                degradations[i].append((rung.key, reason))
            if self._fallbacks is not None:
                self._fallbacks.labels(rung=rung.key).inc(len(indices))
            self.log.record(rids[indices[0]], "degraded", device=rung.device,
                            rung=rung.name,
                            detail=f"{reason} ({len(indices)} members)",
                            trace_id=self._trace_id)

        def finish(i: int, rung: Rung, out, seconds: float,
                   verified: bool, standalone_s: Optional[float] = None) -> None:
            member = members[i]
            service_s = spent[i] + seconds
            if (not rung.is_reference
                    and max(member.dims()) <= SMALL_GEMM_DIM):
                self.small_gemm.add(
                    member.flops, seconds,
                    seconds if standalone_s is None else standalone_s,
                )
            self.counters.completed += 1
            self.counters.count_rung(rung.name)
            if degradations[i]:
                self.counters.degraded += 1
            if self._service_hist is not None:
                self._service_hist.observe(service_s)
                self._wait_hist.observe(queue_wait)
            result = ServeResult(
                c=out, request_id=rids[i], rung=rung.name, device=rung.device,
                degraded=bool(degradations[i]), verified=verified,
                service_s=service_s, queue_wait_s=queue_wait,
                degradations=degradations[i], batch_size=n,
            )
            if (deadline is not None
                    and queue_wait + service_s > deadline):
                result.deadline_missed = True
                self.counters.deadline_missed += 1
                self.log.record(
                    rids[i], "deadline_missed", device=rung.device,
                    rung=rung.name,
                    detail=(f"served in "
                            f"{(queue_wait + service_s) * 1e3:.3f} ms against "
                            f"a {deadline * 1e3:.3f} ms deadline"),
                    trace_id=self._trace_id,
                )
            outs[i] = result
            self._backlog_s += seconds

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
                if breaker is not None and not breaker.allow(tick):
                    rung_span.set(outcome="skipped", reason="breaker_open")
                    degrade(rung, "circuit breaker open", pending)
                    continue
                if rung.is_reference:
                    # The host floor: serve each pending member exactly.
                    for i in pending:
                        m = members[i]
                        out, seconds = rung.call(
                            m.a, m.b, m.c, m.alpha, m.beta,
                            m.transa, m.transb,
                        )
                        finish(i, rung, out, seconds, verified=False)
                    pending = []
                    continue
                if deadline is not None:
                    # Conservative pipelined estimate for the batch.
                    predicted = sum(
                        rung.predict_s(*members[i].dims()) for i in pending
                    )
                    remaining = deadline - queue_wait - max(spent[i] for i in pending)
                    if predicted > remaining:
                        rung_span.set(outcome="skipped", reason="deadline")
                        degrade(
                            rung,
                            f"deadline: predicted {predicted * 1e3:.3f} ms > "
                            f"remaining {max(remaining, 0.0) * 1e3:.3f} ms",
                            pending,
                        )
                        continue
                injector = self._salted_injector(
                    f"req:{rids[pending[0]]}:batch:{rung.key}"
                )
                live = list(pending)

                def attempt(rung=rung, live=live, injector=injector):
                    routine = rung.routine(injector)
                    batched = batched_cls(routine)
                    return batched(
                        [members[i].a for i in live],
                        [members[i].b for i in live],
                        [members[i].c for i in live],
                        alpha=[members[i].alpha for i in live],
                        beta=[members[i].beta for i in live],
                        transa=[members[i].transa for i in live],
                        transb=[members[i].transb for i in live],
                    )

                try:
                    batch_result = call_with_timeout(
                        attempt, cfg.attempt_timeout_s
                    )
                except (CLError, MeasurementTimeout) as exc:
                    rung_span.set(outcome="failed", error=type(exc).__name__)
                    if breaker is not None and breaker.record_failure(tick):
                        self.counters.breaker_trips += 1
                        self.log.record(
                            rids[pending[0]], "breaker_trip",
                            device=rung.device, rung=rung.name,
                            detail=f"opened after: {exc}",
                            trace_id=self._trace_id,
                        )
                    degrade(rung, f"{type(exc).__name__}: {exc}", pending)
                    continue
                if breaker is not None:
                    breaker.record_success(tick)
                shares = batch_result.member_seconds()
                corrupt: List[int] = []
                for slot, i in enumerate(live):
                    m = members[i]
                    verified = False
                    if self._unit("verify", rids[i]) < cfg.verify_rate:
                        check = self.verifier.check(
                            m.a, m.b, batch_result[slot].c, m.alpha, m.beta,
                            m.c, m.transa, m.transb, key=f"req:{rids[i]}",
                        )
                        if not check.passed:
                            self.counters.corruption_caught += 1
                            self.log.record(
                                rids[i], "corruption", device=rung.device,
                                rung=rung.name,
                                detail=(f"Freivalds residual "
                                        f"{check.max_residual:.3e} "
                                        f"> tolerance {check.tolerance:.3e}"),
                                trace_id=self._trace_id,
                            )
                            # The corrupt attempt burned real device time:
                            # it counts against both the member's service
                            # accounting and the admission backlog.
                            spent[i] += shares[slot]
                            self._backlog_s += shares[slot]
                            corrupt.append(i)
                            continue
                        verified = True
                        self.counters.verified += 1
                    finish(i, rung, batch_result[slot].c, shares[slot],
                           verified,
                           standalone_s=batch_result[slot].timings.total_s)
                if corrupt:
                    rung_span.set(outcome="partial_corrupt",
                                  corrupt=len(corrupt))
                    self._quarantine(rung, rids[corrupt[0]])
                    degrade(rung, "result corruption caught; re-serving",
                            corrupt)
                else:
                    rung_span.set(outcome="served")
                pending = corrupt
        assert not pending, "batch ladder exhausted with members pending"
        return [r for r in outs if r is not None]

    # -- hot swap -------------------------------------------------------
    def hot_swap(self, device: str, params, request_id: int = -1) -> Rung:
        """Replace ``device``'s primary serving kernel in place.

        The background tuner calls this when it beats the serving
        configuration: the new kernel is statically verified first
        (a provably unsafe swap is refused with
        :class:`~repro.errors.ParameterError` and the old kernel keeps
        serving), then the ``tuned`` rung is rebuilt around the new
        parameters.  In-flight and queued requests are untouched — only
        future dispatches see the new kernel — and the rung's
        quarantine state is reset because it no longer describes the
        kernel now serving.
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
        rungs = self.ladder.add_device(device, params)
        if not rungs:
            self.log.record(
                request_id, "fleet_admit", device=str(device),
                detail="refused: nothing tuned at this precision",
                trace_id=self._trace_id,
            )
            return rungs
        self._verify_rung_group(rungs, self._static_rejected)
        name = rungs[0].device
        if name not in self.breakers:
            self.breakers[name] = CircuitBreaker(
                name,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_ticks=self.config.breaker_cooldown,
                probe_successes=self.config.breaker_probe_successes,
            )
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
            n = self.config.canary_size
            rng = np.random.default_rng(self.config.seed + 0xCA0A)
            a = rng.standard_normal((n, n)).astype(self.dtype)
            b = rng.standard_normal((n, n)).astype(self.dtype)
            expected = reference_gemm("N", "N", 1.0, a, b, 0.0)
            self._canary_cache = (a, b, expected)
        return self._canary_cache

    def _run_canaries(self, tick: int, rid: int) -> None:
        """Probe each quarantined kernel with a known-answer GEMM."""
        a, b, expected = self._canary_problem()
        tol = 1e-4 if self.precision == "s" else 1e-10
        rungs = {rung.key: rung for rung in self.ladder.rungs}
        for key in sorted(self._quarantined):
            rung = rungs.get(key)
            if rung is None:
                # The rung's device is parked (suspected/warming): the
                # fleet manager probes it; quarantine state waits here.
                continue
            self.counters.canaries_run += 1
            injector = self._salted_injector(f"canary:{tick}:{key}")
            with self.obs.span(f"canary:{key}") as cspan:
                try:
                    out, _ = call_with_timeout(
                        lambda: rung.call(a, b, None, 1.0, 0.0, "N", "N",
                                          injector=injector),
                        self.config.attempt_timeout_s,
                    )
                    ok = bool(np.all(np.isfinite(out))) \
                        and relative_error(out, expected) < tol
                except (CLError, MeasurementTimeout):
                    ok = False
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
