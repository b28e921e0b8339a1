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

One evaluator, :func:`evaluate_candidate`, classifies failures inside
the worker into the paper's categories (generation / build / launch) or
the resilience layer's, so outcomes cross the executor boundary as plain
data rather than exceptions.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.codegen.params import KernelParams
from repro.codegen.plan import build_plan
from repro.devices.specs import DeviceSpec
from repro.errors import (
    BuildError,
    LaunchError,
    MeasurementTimeout,
    ParameterError,
    TransientError,
    ValidationError,
)
from repro.perfmodel.model import (
    check_execution_quirks,
    check_resources,
    estimate_kernel_time,
)
from repro.tuner.resilience import (
    SINGLE_SHOT,
    ResilienceConfig,
    call_with_timeout,
    resilience_policy,
    robust_aggregate,
    run_with_retry,
)

__all__ = [
    "EvalTask",
    "EvalOutcome",
    "CandidateEvaluator",
    "measure_once",
    "evaluate_candidate",
    "run_attempts",
]

#: Outcome failure categories, matching TuningStats counters.
FAILURE_GENERATION = "generation"
FAILURE_BUILD = "build"
FAILURE_LAUNCH = "launch"
#: Finalist verification: the kernel computed a wrong result.
FAILURE_VALIDATION = "validation"
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


def run_attempts(
    task: EvalTask,
    attempt: Callable[[int], Tuple[Optional[float], Tuple[str, ...]]],
    config: ResilienceConfig,
) -> EvalOutcome:
    """The tuner's one attempt loop, for measurement and verification.

    ``attempt(n)`` gets the 0-based attempt number, so deterministic
    fault decisions re-roll per retry, and returns its rate and the
    fault classes it absorbed without failing (timing outliers).  Each
    attempt runs under ``config``'s watchdog; transient faults and
    timeouts are retried with backoff.  The outcome carries the rate or
    the failure's category, the retries spent and every absorbed fault.
    """
    retries = 0
    faults: List[str] = []

    def watched(n: int) -> Optional[float]:
        nonlocal retries
        retries = n
        value, absorbed = call_with_timeout(
            lambda: attempt(n), config.measure_timeout_s
        )
        faults.extend(absorbed)
        return value

    params, shape = task.params, task.shape
    build_log = None
    try:
        value = run_with_retry(watched, config, on_fault=faults.append)
    except ParameterError:
        return EvalOutcome(params, shape, failure=FAILURE_GENERATION)
    except BuildError as exc:
        failure, build_log = FAILURE_BUILD, exc.build_log
        injected = getattr(exc, "injected", False)
    except LaunchError as exc:
        failure, injected = FAILURE_LAUNCH, getattr(exc, "injected", False)
    except ValidationError:
        failure, injected = FAILURE_VALIDATION, False
    except MeasurementTimeout:
        failure, injected = FAILURE_TIMEOUT, True
    except TransientError:
        failure, injected = FAILURE_TRANSIENT, True
    else:
        return EvalOutcome(params, shape, gflops=value, retries=retries,
                           faults=tuple(faults))
    return EvalOutcome(params, shape, failure=failure, retries=retries,
                       faults=tuple(faults), build_log=build_log,
                       injected=injected)


def _task_fault_key(task: EvalTask) -> str:
    """Stable per-candidate injection key: params identity + shape."""
    M, N, K = task.shape
    return f"{task.params.to_json()}|{M}x{N}x{K}"


def evaluate_candidate(
    spec: DeviceSpec,
    task: EvalTask,
    noise: bool = True,
    injector=None,
    config: Optional[ResilienceConfig] = None,
) -> EvalOutcome:
    """Measure one task, classifying failures into paper categories.

    Without a fault plan or config: one attempt, one sample, no watchdog
    (:data:`SINGLE_SHOT`).  With them, injected faults and hangs are
    retried and the timing samples aggregated median-of-k, so spikes
    cannot bias the score.  The outcome is a pure function of ``(spec,
    task, injector, config)``, whatever the evaluation order or workers.
    """
    config = resilience_policy(injector, config) or SINGLE_SHOT
    params = task.params
    M, N, K = task.shape
    device = spec.codename
    key = None if injector is None else _task_fault_key(task)

    def attempt(n: int) -> Tuple[float, Tuple[str, ...]]:
        if injector is not None:
            injector.check_build(device, key, n, params)
            injector.check_launch(device, key, n, params)
            hang = injector.hang_seconds(device, key, n, params)
            if hang > 0.0:
                time.sleep(hang)
        base = measure_once(spec, params, M, N, K, noise=noise)
        # A spike multiplies the run's *time*, so it divides the rate.
        values = [
            base if injector is None
            else base / injector.timing_factor(device, f"{key}|s{s}", n, params)
            for s in range(max(1, config.samples))
        ]
        rate, outliers = robust_aggregate(values, config.outlier_rel)
        return rate, ("timing",) * outliers

    return run_attempts(task, attempt, config)


class CandidateEvaluator:
    """Evaluates task batches serially or over a worker pool.

    ``workers == 1`` evaluates inline (no pool, no overhead); ``workers
    > 1`` fans out over a thread pool.  Either way :meth:`evaluate`
    returns outcomes in task order, which is what makes parallel
    searches reproduce serial ones exactly.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        noise: bool = True,
        workers: int = 1,
        injector=None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.spec = spec
        self.noise = noise
        self.workers = max(1, int(workers))
        #: Optional :class:`repro.clsim.faults.FaultInjector` and the
        #: resilience config that absorbs it (see
        #: :func:`evaluate_candidate`).  Both objects are immutable, so
        #: every worker thread decides faults alike.
        self.injector = injector
        self.resilience = resilience
        self._pool: Optional[ThreadPoolExecutor] = None
        # Guards lazy pool creation/teardown: evaluate() may be called
        # from a fleet worker thread while another thread closes the
        # evaluator (chaos soak churn), and an unguarded check-then-set
        # can leak a second executor.
        self._pool_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
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
        slots: List[int] = []  # per-task index into work
        work: List[tuple] = []  # evaluate_candidate arguments per unique task
        for t in tasks:
            key = (t.params.cache_key(), t.shape)
            if key not in unique:
                unique[key] = len(work)
                work.append((self.spec, t, self.noise, self.injector,
                             self.resilience))
            slots.append(unique[key])
        if self.workers == 1 or len(work) == 1:
            results = [evaluate_candidate(*w) for w in work]
        else:
            # Executor.map preserves input order regardless of completion
            # order.
            results = list(self._ensure_pool().map(
                lambda w: evaluate_candidate(*w), work))
        return [results[i] for i in slots]
