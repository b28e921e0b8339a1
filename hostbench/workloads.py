"""The benchmark's workloads, driven through ``repro``'s public entry points.

A workload is measured in rounds.  A round builds a fresh system, runs
the workload's seeded operations through it and checks every output
against numpy.  Only the system calls of a round are timed on the host
clock; generating operands and computing reference answers are harness
work, timed apart and never traced.  A round does the same work for
every seed: the seed picks operand values, never shapes or counts, so
runs with different seeds measure the same thing.  Rounds of one seed
are identical, so a round's deterministic outcome (its ``digest``) must
repeat exactly, traced or not.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from layers import host_clock

#: Largest elementwise error, relative to the reference's largest
#: magnitude, that a float64 response may carry (the serving soak's bar).
TOLERANCE = 1e-10


@dataclass
class RoundResult:
    """What one round measured and checked."""

    #: Host seconds inside the round's timed system calls.
    host_s: float = 0.0
    #: Host seconds of each op.
    op_s: List[float] = field(default_factory=list)
    #: Candidates evaluated (tune) or requests answered correctly (serve).
    work: int = 0
    attempted: int = 0
    #: Failed ops; ``wrong`` of them are wrong or missing answers.
    failed: int = 0
    wrong: int = 0
    failures: List[str] = field(default_factory=list)
    #: Simulated-time results: deterministic guards.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Public counters of the layers: deterministic.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Harness host seconds: operand generation and reference answers.
    operands_s: float = 0.0
    reference_s: float = 0.0
    #: Fingerprint of the round's deterministic outcome.
    digest: str = ""

    def fail(self, why: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        self.failures.append(why)


def relative_error(out, expected: np.ndarray) -> float:
    """Largest elementwise error relative to the reference's magnitude."""
    out = np.asarray(out)
    if out.shape != expected.shape:
        return math.inf
    scale = max(float(np.abs(expected).max()), 1e-30)
    return float(np.abs(out - expected).max()) / scale


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def fingerprint(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def harness(tracer):
    """Context for harness work inside a round: never traced."""
    return tracer.paused() if tracer is not None else nullcontext()


def serve_counters(service) -> Dict[str, float]:
    """The service layer's public counters."""
    counters = service.counters
    completed = counters.completed
    tuned = counters.served_by_rung.get("tuned", 0)
    return {
        "serve.degraded": counters.degraded,
        "serve.quarantined": counters.quarantined,
        "serve.canaries_run": counters.canaries_run,
        "serve.breaker_trips": counters.breaker_trips,
        "serve.tuned_ratio": tuned / completed if completed else 0.0,
    }


class TuneSweep:
    """Exhaustive tunes over a fixed slice of the space, tahiti/s then
    bulldozer/d.

    One op is one tune; a round is both.  A full-space tune takes 6-13 s
    of host time, so a run would hold one sample; each tune therefore
    sweeps the first ``SLICE`` candidates of the exhaustive enumeration.
    Every candidate is a distinct parameter vector, so codegen, the
    static gate, the perf model and the tuner's bookkeeping do all the
    work.  On tahiti/s the gate rejects few candidates, on bulldozer/d
    many (the PL-DGEMM quirk), so both of its paths run.  The space is
    enumerated with a fixed seed, so every run sweeps the same
    candidates; ``--seed`` seeds the operands that check each winner.
    """

    name = "tune-sweep"
    TARGETS = (("tahiti", "s"), ("bulldozer", "d"))
    SLICE = 800
    TUNE_SEED = 0
    per_op_latency = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.budget = 200 if tiny else self.SLICE

    def run_round(self, tracer=None) -> RoundResult:
        from repro.tuner.search import SearchEngine, TuningConfig

        res = RoundResult()
        outcomes: List = []
        winners: List[float] = []
        generated = measured = 0
        for device, precision in self.TARGETS:
            res.attempted += 1
            config = TuningConfig(budget=self.budget, seed=self.TUNE_SEED)
            start = host_clock()
            try:
                result = SearchEngine(device, precision, config, workers=1,
                                      static_gate=True).run()
            except Exception as exc:  # a tune that raises is a failed op
                res.host_s += host_clock() - start
                res.fail(f"{device}/{precision} tune raised "
                         f"{type(exc).__name__}: {exc}")
                continue
            elapsed = host_clock() - start
            res.host_s += elapsed
            res.op_s.append(elapsed)
            with harness(tracer):
                stats = result.stats
                generated += stats.generated
                measured += stats.measured
                start = host_clock()
                error = self._check_winner(result)
                res.reference_s += host_clock() - start
                if error is not None:
                    res.fail(f"{device}/{precision} winner: {error}")
                winners.append(result.best.gflops)
                outcomes.append([device, precision,
                                 result.best.params.to_json(),
                                 result.best.gflops, stats.comparable_dict()])
        res.work = generated
        res.sim = {"sim_gflops": sum(winners) / len(winners) if winners else 0.0}
        res.counters = {
            "tuner.candidates": generated,
            "tuner.measured_ratio": measured / generated if generated else 0.0,
        }
        res.digest = fingerprint(outcomes)
        return res

    def _check_winner(self, result) -> Optional[str]:
        """Run the winning kernel on an odd-sized problem against numpy."""
        from repro.gemm.routine import GemmRoutine

        routine = GemmRoutine(result.device, result.best.params,
                              measurement_noise=False)
        rng = np.random.default_rng([self.seed, 17])
        a = rng.standard_normal((67, 53)).astype(routine.dtype)
        b = rng.standard_normal((53, 45)).astype(routine.dtype)
        expected = a.astype(np.float64) @ b.astype(np.float64)
        error = relative_error(routine(a, b).c, expected)
        tolerance = TOLERANCE if result.precision == "d" else 1e-4
        return None if error <= tolerance else f"relative error {error:.3e}"


class ServeChurn:
    """The four-tenant mix through the async scheduler, under fleet chaos.

    ``DEFAULT_TENANT_LOADS`` (sizes 16-320) stream through an
    ``AsyncScheduler`` over tahiti+cypress/d with the ``fleet-chaos``
    fault plan, a ``FleetManager`` ticked after every step and
    observability on with a bounded trace store, as ``repro soak
    --fleet`` runs them.  Arrivals are scheduled on the simulated clock.
    One op is one ``step()`` plus the fleet tick.

    Two departures from the churn soak keep every request answered, so
    that no operation fails: the latency tenant keeps its weight and
    sizes but has no deadline (under fleet-chaos outages its 5 ms
    deadline cancels about 3% of requests), and arrivals come at a mean
    gap of ``INTERARRIVAL_S``: of a 1,000-request round, the churn
    soak's 2.5e-5 s gap sheds 15.5% past their retries, 5e-5 s sheds
    2.8% and 1e-4 s sheds none.
    """

    name = "serve-churn"
    DEVICES = ("tahiti", "cypress")
    FAULT_PLAN, FAULT_SEED = "fleet-chaos", 7
    #: Mean simulated gap between arrivals of the merged stream.
    INTERARRIVAL_S = 1e-4
    #: Arrivals are submitted this far ahead of the simulated clock.
    LOOKAHEAD_S = 5e-4
    #: The churn soak's demand wave: gaps stretch in each calm half-cycle.
    LOAD_CYCLE_S, LOAD_CALM = 0.25, 4.0
    TRACE_LIMIT = 64
    SHAPE_SEED = 0
    per_op_latency = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from repro.serve import DEFAULT_TENANT_LOADS

        self.seed = seed
        self.requests = 60 if tiny else 1000
        self.loads = tuple(replace(load, deadline_s=None)
                           for load in DEFAULT_TENANT_LOADS)

    def _system(self):
        from repro.clsim.faults import FaultInjector, FaultPlan
        from repro.obs import Observability
        from repro.serve import (
            AsyncScheduler,
            AutoscaleConfig,
            FleetConfig,
            FleetManager,
            GemmService,
            SchedulerConfig,
            ServiceConfig,
        )

        obs = Observability(seed=self.seed, trace_limit=self.TRACE_LIMIT)
        service = GemmService(
            list(self.DEVICES), "d",
            config=ServiceConfig(seed=self.seed, default_deadline_s=None,
                                 canary_interval=3, canary_passes=1,
                                 attempt_timeout_s=None),
            fault_injector=FaultInjector(
                FaultPlan.parse(self.FAULT_PLAN, seed=self.FAULT_SEED)),
            obs=obs,
        )
        scheduler = AsyncScheduler(
            service, [load.tenant_config() for load in self.loads],
            SchedulerConfig(max_batch=24), obs=obs,
        )
        manager = FleetManager(scheduler, FleetConfig(autoscale=AutoscaleConfig(
            max_devices=6, grow_queue_depth=48.0, shrink_queue_depth=16.0,
            eval_interval_s=0.002, cooldown_s=0.02,
        )))
        return obs, service, scheduler, manager

    def _arrivals(self, requests: int):
        """``(arrival_s, tenant, problem)`` in arrival order; operands are
        generated lazily, one problem ahead per tenant."""
        loads = self.loads
        total = sum(load.load_share for load in loads)
        counts = [int(requests * load.load_share / total) for load in loads]
        counts[0] += requests - sum(counts)  # the largest share takes the rest
        horizon = requests * self.INTERARRIVAL_S
        streams = [
            self._stream(load, count, horizon,
                         np.random.default_rng([self.SHAPE_SEED, i]),
                         np.random.default_rng([self.seed, i]))
            for i, (load, count) in enumerate(zip(loads, counts))
        ]
        return heapq.merge(*streams, key=lambda item: item[0])

    def _stream(self, load, count: int, horizon: float, shape_rng, rng):
        """One tenant's arrivals: times, shapes and transposes from
        ``shape_rng``, the same for every seed; values from ``rng``."""
        gap = horizon / max(count, 1)
        t = gap * float(shape_rng.uniform())
        for _ in range(count):
            m = n = k = int(shape_rng.choice(load.sizes))
            if not load.square:
                n = int(shape_rng.choice(load.sizes))
                k = int(shape_rng.choice(load.sizes))
            transa = "T" if shape_rng.random() < load.trans_rate else "N"
            transb = "T" if shape_rng.random() < load.trans_rate else "N"
            use_beta = shape_rng.random() < load.beta_rate
            alpha = float(rng.uniform(-2.0, 2.0))
            beta = float(rng.uniform(-1.0, 1.0)) if use_beta else 0.0
            a = rng.standard_normal((m, k) if transa == "N" else (k, m))
            b = rng.standard_normal((k, n) if transb == "N" else (n, k))
            c = rng.standard_normal((m, n)) if use_beta else None
            yield t, load.name, (a, b, c, alpha, beta, transa, transb)
            calm = (t % self.LOAD_CYCLE_S) >= self.LOAD_CYCLE_S / 2
            t += (gap * float(shape_rng.uniform(0.2, 1.8))
                  * (self.LOAD_CALM if calm else 1.0))

    def run_round(self, tracer=None) -> RoundResult:
        res = RoundResult()
        obs, service, scheduler, manager = self._system()
        done: List = []

        def on_complete(ticket, request) -> None:
            manager.observe(ticket, request)
            done.append(ticket)

        scheduler.on_complete = on_complete
        arrivals = self._arrivals(self.requests)
        problems: Dict[int, tuple] = {}
        outcomes: List = []
        latencies: List[float] = []
        flops = [0.0]

        def next_arrival():
            with harness(tracer):
                start = host_clock()
                item = next(arrivals, None)
                res.operands_s += host_clock() - start
            return item

        def check() -> None:
            with harness(tracer):
                start = host_clock()
                for ticket in done:
                    a, b, c, alpha, beta, transa, transb = problems.pop(ticket.rid)
                    if ticket.status != "served":
                        res.fail(f"request {ticket.rid} ({ticket.tenant}) "
                                 f"{ticket.status}", wrong=False)
                        outcomes.append((ticket.rid, ticket.status))
                        continue
                    opa = a.T if transa == "T" else a
                    opb = b.T if transb == "T" else b
                    expected = alpha * (opa @ opb)
                    if c is not None:
                        expected += beta * c
                    error = relative_error(ticket.result.c, expected)
                    ticket.result.c = None  # release the response
                    if error <= TOLERANCE:
                        res.work += 1
                    else:
                        res.fail(f"request {ticket.rid} via "
                                 f"{ticket.result.rung}: relative error "
                                 f"{error:.3e}")
                    latencies.append(ticket.latency_s)
                    flops[0] += 2.0 * opa.shape[0] * opa.shape[1] * opb.shape[1]
                    outcomes.append((ticket.rid, ticket.status,
                                     ticket.result.rung, ticket.latency_s))
                done.clear()
                res.reference_s += host_clock() - start

        pending = next_arrival()
        while True:
            while (pending is not None
                   and pending[0] <= scheduler.now + self.LOOKAHEAD_S):
                arrival_s, tenant, problem = pending
                res.attempted += 1
                start = host_clock()
                ticket = scheduler.submit(tenant, *problem, arrival_s=arrival_s)
                res.host_s += host_clock() - start
                problems[ticket.rid] = problem
                pending = next_arrival()
            start = host_clock()
            stepped = scheduler.step()
            if stepped:
                manager.tick(scheduler.now)
            elapsed = host_clock() - start
            res.host_s += elapsed
            if stepped:
                res.op_s.append(elapsed)
            check()
            if not stepped:
                if pending is None:
                    break
                # Idle: jump the simulated clock to the next arrival.
                scheduler.now = max(scheduler.now, pending[0])
        start = host_clock()
        scheduler.drain()
        manager.tick(scheduler.now)
        res.host_s += host_clock() - start
        check()

        duration = scheduler.now
        res.sim = {
            "sim_gflops": flops[0] / duration / 1e9 if duration > 0 else 0.0,
            "sim_p99_ms": percentile(latencies, 99) * 1e3,
        }
        counters = service.counters
        res.counters = serve_counters(service)
        res.counters.update({
            "sched.batches": counters.batches,
            "sched.members_per_batch": (counters.batched_members / counters.batches
                                        if counters.batches else 0.0),
            "sched.hard_shed": sum(state.hard_shed for state in scheduler.queues),
            "fleet.scale_events": len(manager.scale_events),
            "obs.traces_dropped": obs.tracer.dropped,
        })
        res.digest = fingerprint([outcomes, counters.as_dict(), duration,
                                  res.counters])
        return res


class ServeLarge:
    """One closed-loop caller submitting large mixed GEMMs on tahiti/d.

    The shapes are fixed: M and N drawn once from 384-1024, K from
    ``K_VALUES``, a quarter of the operands transposed.  The seed picks
    the operand values, so every response is checked against a slice of
    one of a few reference products computed once per process instead
    of a fresh O(n^3) reference.  No faults, observability off.  One op
    is one ``GemmService.submit``.
    """

    name = "serve-large"
    LOW, HIGH = 384, 1024
    TRANS_RATE = 0.25
    K_VALUES = (448, 640, 832, 1024)
    SHAPE_SEED = 0
    per_op_latency = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        rng = np.random.default_rng(self.SHAPE_SEED)
        self.shapes = []
        for _ in range(4 if tiny else 24):
            m, n = (int(x) for x in rng.integers(self.LOW, self.HIGH + 1, 2))
            k = self.K_VALUES[int(rng.integers(len(self.K_VALUES)))]
            transa = "T" if rng.random() < self.TRANS_RATE else "N"
            transb = "T" if rng.random() < self.TRANS_RATE else "N"
            self.shapes.append((m, n, k, transa, transb,
                                float(rng.uniform(-2.0, 2.0))))
        self._operands = None

    def _service(self):
        from repro.serve import GemmService, ServiceConfig

        return GemmService("tahiti", "d", config=ServiceConfig(
            seed=self.seed, attempt_timeout_s=None))

    def _references(self, res: RoundResult):
        """The seeded operands and their products, made on first use."""
        if self._operands is None:
            rng = np.random.default_rng([self.seed, 1])
            start = host_clock()
            A = rng.standard_normal((self.HIGH, self.HIGH))
            B = rng.standard_normal((self.HIGH, self.HIGH))
            res.operands_s += host_clock() - start
            start = host_clock()
            products = {k: A[:, :k] @ B[:k, :]
                        for k in sorted({shape[2] for shape in self.shapes})}
            res.reference_s += host_clock() - start
            self._operands = A, B, products
        return self._operands

    def run_round(self, tracer=None) -> RoundResult:
        from repro.errors import ReproError

        res = RoundResult()
        with harness(tracer):
            A, B, products = self._references(res)
        service = self._service()
        arrival_dt = 0.0
        latencies: List[float] = []
        outcomes: List = []
        flops = busy = 0.0
        for m, n, k, transa, transb, alpha in self.shapes:
            with harness(tracer):
                start = host_clock()
                a = np.ascontiguousarray(A[:m, :k].T if transa == "T" else A[:m, :k])
                b = np.ascontiguousarray(B[:k, :n].T if transb == "T" else B[:k, :n])
                res.operands_s += host_clock() - start
            res.attempted += 1
            start = host_clock()
            try:
                result = service.submit(a, b, alpha=alpha, transa=transa,
                                        transb=transb, arrival_dt_s=arrival_dt)
            except ReproError as exc:
                res.host_s += host_clock() - start
                res.fail(f"request {res.attempted}: {type(exc).__name__}: "
                         f"{exc}", wrong=False)
                continue
            elapsed = host_clock() - start
            res.host_s += elapsed
            res.op_s.append(elapsed)
            with harness(tracer):
                start = host_clock()
                error = relative_error(result.c, alpha * products[k][:m, :n])
                res.reference_s += host_clock() - start
            if error <= TOLERANCE:
                res.work += 1
            else:
                res.fail(f"request {result.request_id} via {result.rung}: "
                         f"relative error {error:.3e}")
            # Closed loop: the caller's next request leaves as this one returns.
            arrival_dt = result.queue_wait_s + result.service_s
            latencies.append(arrival_dt)
            flops += 2.0 * m * n * k
            busy += result.service_s
            outcomes.append((result.request_id, result.rung, result.service_s,
                             result.verified, result.degraded))
        res.sim = {
            "sim_gflops": flops / busy / 1e9 if busy > 0 else 0.0,
            "sim_p99_ms": percentile(latencies, 99) * 1e3,
        }
        res.counters = serve_counters(service)
        res.digest = fingerprint([outcomes, service.counters.as_dict()])
        return res


WORKLOADS = {cls.name: cls for cls in (TuneSweep, ServeChurn, ServeLarge)}


def make(name: str, seed: int, tiny: bool = False):
    return WORKLOADS[name](seed, tiny)
