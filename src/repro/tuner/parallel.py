"""Deterministic fan-out of candidate kernel evaluation.

The paper's search measures candidates one at a time; CLTune-style
auto-tuners fan the evaluation out over workers and merge results into a
persisted database.  This module provides that executor layer for
:class:`~repro.tuner.search.SearchEngine`: batches of ``(params, shape)``
tasks are dispatched over :mod:`concurrent.futures` workers and the
outcomes are returned **in task order**, regardless of completion order.
Because the simulator's measurement noise is a deterministic function of
``(device, params, size)``, a parallel search with the same seed and
budget scores every candidate identically to a serial one — and
therefore selects the identical winning kernel.

Failures are classified inside the worker into the paper's categories
(generation / build / launch) so outcomes cross the executor boundary as
plain data rather than exceptions.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.codegen.params import KernelParams
from repro.codegen.plan import build_plan
from repro.devices.specs import DeviceSpec
from repro.errors import (
    BuildError,
    LaunchError,
    MeasurementTimeout,
    ParameterError,
    TransientError,
)
from repro.perfmodel.model import (
    check_execution_quirks,
    check_resources,
    estimate_kernel_time,
)
from repro.tuner.resilience import (
    ResilienceConfig,
    call_with_timeout,
    robust_aggregate,
    run_with_retry,
)

__all__ = [
    "EvalTask",
    "EvalOutcome",
    "CandidateEvaluator",
    "measure_once",
    "evaluate_candidate",
    "evaluate_candidate_resilient",
]

#: Outcome failure categories, matching TuningStats counters.
FAILURE_GENERATION = "generation"
FAILURE_BUILD = "build"
FAILURE_LAUNCH = "launch"
#: Resilience-layer categories: the retry budget was exhausted.
FAILURE_TRANSIENT = "transient"
FAILURE_TIMEOUT = "timeout"


@dataclass(frozen=True)
class EvalTask:
    """One candidate evaluation request."""

    params: KernelParams
    shape: Tuple[int, int, int]


@dataclass(frozen=True)
class EvalOutcome:
    """The result of one candidate evaluation (success or failure)."""

    params: KernelParams
    shape: Tuple[int, int, int]
    gflops: Optional[float] = None
    failure: Optional[str] = None
    #: True when the value came from a measurement cache, not a worker.
    cached: bool = False
    #: Retries the resilience layer spent to produce this outcome.
    retries: int = 0
    #: Fault classes absorbed (retried or rejected) during evaluation —
    #: one entry per event, e.g. ``("build", "timing", "timing")``.
    faults: Tuple[str, ...] = ()
    #: Compiler diagnostics for ``failure="build"`` outcomes; round-trips
    #: through the measurement cache.
    build_log: Optional[str] = None
    #: True when the failure came from the fault plan, not the kernel —
    #: such failures are never persisted to the measurement cache.
    injected: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


def measure_once(
    spec: DeviceSpec,
    params: KernelParams,
    M: int,
    N: int,
    K: int,
    noise: bool = True,
) -> float:
    """One simulated kernel measurement, in GFlop/s.

    Performs the same build/launch validation the simulator's compiler
    and queue would: structural plan verification, device resource
    checks, and execution quirks.  Raises the corresponding error.  The
    resource check reads the candidate's device fit, which the static
    gate has usually proved already; ``estimate_kernel_time`` reads it
    again at no cost.
    """
    build_plan(params)  # ParameterError -> failed generation
    check_resources(spec, params)  # ResourceError -> failed build
    check_execution_quirks(spec, params)  # LaunchError -> failed run
    return estimate_kernel_time(spec, params, M, N, K, noise=noise).gflops


def evaluate_candidate(
    spec: DeviceSpec, task: EvalTask, noise: bool = True
) -> EvalOutcome:
    """Measure one task, classifying failures into paper categories."""
    M, N, K = task.shape
    try:
        gflops = measure_once(spec, task.params, M, N, K, noise=noise)
    except ParameterError:
        return EvalOutcome(task.params, task.shape, failure=FAILURE_GENERATION)
    except BuildError as exc:
        return EvalOutcome(
            task.params, task.shape, failure=FAILURE_BUILD,
            build_log=exc.build_log,
        )
    except LaunchError:
        return EvalOutcome(task.params, task.shape, failure=FAILURE_LAUNCH)
    return EvalOutcome(task.params, task.shape, gflops=gflops)


def _task_fault_key(task: EvalTask) -> str:
    """Stable per-candidate injection key: params identity + shape."""
    M, N, K = task.shape
    return f"{task.params.to_json()}|{M}x{N}x{K}"


def evaluate_candidate_resilient(
    spec: DeviceSpec,
    task: EvalTask,
    noise: bool,
    injector,
    config: ResilienceConfig,
) -> EvalOutcome:
    """Measure one task under fault injection and resilience policies.

    One call owns the candidate's whole failure-handling story: injected
    build/launch/device-lost faults are retried with backoff (each retry
    re-rolls the deterministic fault decision via the attempt number),
    hung measurements are killed by the wall-clock watchdog and retried,
    and the timing samples are aggregated median-of-k with outlier
    rejection so spikes cannot bias the score.  Everything is a pure
    function of ``(spec, task, injector, config)`` — evaluation order and
    worker count cannot change the outcome.
    """
    M, N, K = task.shape
    key = _task_fault_key(task)
    device = spec.codename
    faults: List[str] = []
    used = {"retries": 0}

    def one_attempt(attempt: int) -> float:
        used["retries"] = attempt
        if injector is not None:
            injector.check_build(device, key, attempt, task.params)
            injector.check_launch(device, key, attempt, task.params)

        def measured() -> float:
            if injector is not None:
                hang = injector.hang_seconds(device, key, attempt, task.params)
                if hang > 0.0:
                    time.sleep(hang)
            return measure_once(spec, task.params, M, N, K, noise=noise)

        base = call_with_timeout(measured, config.measure_timeout_s)
        samples = max(1, config.samples)
        values = []
        for s in range(samples):
            factor = 1.0
            if injector is not None:
                factor = injector.timing_factor(
                    device, f"{key}|s{s}", attempt, task.params
                )
            # A spike multiplies the run's *time*, so it divides the rate.
            values.append(base / factor)
        rate, outliers = robust_aggregate(values, config.outlier_rel)
        faults.extend(["timing"] * outliers)
        return rate

    try:
        gflops = run_with_retry(one_attempt, config, on_fault=faults.append)
    except ParameterError:
        return EvalOutcome(task.params, task.shape, failure=FAILURE_GENERATION)
    except BuildError as exc:
        return EvalOutcome(
            task.params, task.shape, failure=FAILURE_BUILD,
            retries=used["retries"], faults=tuple(faults),
            build_log=exc.build_log, injected=getattr(exc, "injected", False),
        )
    except LaunchError as exc:
        return EvalOutcome(
            task.params, task.shape, failure=FAILURE_LAUNCH,
            retries=used["retries"], faults=tuple(faults),
            injected=getattr(exc, "injected", False),
        )
    except MeasurementTimeout:
        return EvalOutcome(
            task.params, task.shape, failure=FAILURE_TIMEOUT,
            retries=used["retries"], faults=tuple(faults), injected=True,
        )
    except TransientError:
        return EvalOutcome(
            task.params, task.shape, failure=FAILURE_TRANSIENT,
            retries=used["retries"], faults=tuple(faults), injected=True,
        )
    return EvalOutcome(
        task.params, task.shape, gflops=gflops,
        retries=used["retries"], faults=tuple(faults),
    )


def _evaluate_star(args) -> EvalOutcome:
    """Top-level adapter so process pools can pickle the work item."""
    spec, task, noise, injector, config = args
    if injector is not None or config is not None:
        return evaluate_candidate_resilient(
            spec, task, noise, injector, config or ResilienceConfig()
        )
    return evaluate_candidate(spec, task, noise)


class CandidateEvaluator:
    """Evaluates task batches serially or over a worker pool.

    ``workers == 1`` evaluates inline (no pool, no overhead); ``workers
    > 1`` fans out over a thread pool (default) or, with
    ``kind="process"``, a process pool.  Either way
    :meth:`evaluate` returns outcomes in task order, which is what makes
    parallel searches reproduce serial ones exactly.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        noise: bool = True,
        workers: int = 1,
        kind: str = "thread",
        injector=None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        if kind not in ("thread", "process"):
            raise ValueError(f"kind must be 'thread' or 'process', got {kind!r}")
        self.spec = spec
        self.noise = noise
        self.workers = max(1, int(workers))
        self.kind = kind
        #: Optional :class:`repro.clsim.faults.FaultInjector`; with it (or
        #: an explicit resilience config) evaluation goes through the
        #: retry/watchdog/robust-timing path.  Both objects are immutable
        #: and picklable, so process pools agree with the parent.
        self.injector = injector
        self.resilience = resilience
        if injector is not None and resilience is None:
            self.resilience = ResilienceConfig()
        self._pool: Optional[Executor] = None
        # Guards lazy pool creation/teardown: evaluate() may be called
        # from a fleet worker thread while another thread closes the
        # evaluator (chaos soak churn), and an unguarded check-then-set
        # can leak a second executor.
        self._pool_lock = threading.Lock()

    @property
    def resilient(self) -> bool:
        return self.injector is not None or self.resilience is not None

    # -- lifecycle -------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        with self._pool_lock:
            if self._pool is None:
                if self.kind == "process":
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                else:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers, thread_name_prefix="repro-tune"
                    )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            # Shut down outside the lock: worker threads finishing their
            # last task must not deadlock against a closer holding it.
            pool.shutdown(wait=True)

    def __enter__(self) -> "CandidateEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- evaluation ------------------------------------------------------
    def evaluate(self, tasks: Sequence[EvalTask]) -> List[EvalOutcome]:
        """Evaluate a batch, returning outcomes in task order.

        Duplicate tasks within the batch (same params and shape — e.g.
        overlapping warm-start lists from a search strategy) are
        evaluated once and the outcome fanned out: every evaluation path
        is a pure function of ``(spec, task, injector, config)``, so the
        copies are indistinguishable from re-runs.
        """
        if not tasks:
            return []
        unique: dict = {}
        slots: List[int] = []  # per-task index into work_tasks
        work_tasks: List[EvalTask] = []
        for t in tasks:
            key = (t.params.cache_key(), t.shape)
            if key not in unique:
                unique[key] = len(work_tasks)
                work_tasks.append(t)
            slots.append(unique[key])
        if self.workers == 1 or len(work_tasks) == 1:
            results = [self._evaluate_one(t) for t in work_tasks]
        else:
            pool = self._ensure_pool()
            work = [
                (self.spec, t, self.noise, self.injector, self.resilience)
                for t in work_tasks
            ]
            # Executor.map preserves input order regardless of completion
            # order.
            results = list(pool.map(_evaluate_star, work))
        return [results[i] for i in slots]

    def _evaluate_one(self, task: EvalTask) -> EvalOutcome:
        if self.resilient:
            return evaluate_candidate_resilient(
                self.spec, task, self.noise, self.injector,
                self.resilience or ResilienceConfig(),
            )
        return evaluate_candidate(self.spec, task, self.noise)
