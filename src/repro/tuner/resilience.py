"""Resilience policies for tuning under unreliable execution.

The paper's search quietly survives real-device failures ("kernels which
are failed in code generation, compilation or testing are not counted",
Section III-F); production tuners like CLTune treat per-kernel failures
as first-class outcomes.  This module supplies the policies that let
:class:`~repro.tuner.search.SearchEngine` keep selecting *correct*
winners when the runtime misbehaves:

* **retry with backoff** — transient faults (flaky builds, launch
  hiccups, device resets) are retried up to a budget; every retry
  re-rolls the (deterministic) fault decision with a new attempt number;
* **watchdog timeout** — a measurement that hangs past a wall-clock
  budget is killed and counted as a transient failure
  (:class:`~repro.errors.MeasurementTimeout`);
* **robust timing aggregation** — median-of-k with relative-deviation
  outlier rejection replaces raw best-of-run, so an injected (or real)
  timing spike cannot promote or demote a candidate;
* **quarantine** — a candidate that exhausts its retry budget is demoted:
  excluded from scoring and from the finalist ranking even if an earlier
  stage measured it successfully.

All policies are order-independent: retries happen *inside* one
candidate's evaluation and quarantine is keyed by the candidate's digest,
so serial and parallel searches under the same fault plan make identical
decisions.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.errors import MeasurementTimeout, TransientError

__all__ = [
    "ResilienceConfig",
    "SINGLE_SHOT",
    "resilience_policy",
    "call_with_timeout",
    "robust_aggregate",
    "run_with_retry",
    "Quarantine",
]

T = TypeVar("T")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the failure-handling layer.

    Any config keeps a fault-free search's results bit-identical to a
    search without one: clean measurements are deterministic, so the
    ``samples`` timing samples are equal and :func:`robust_aggregate`
    returns that value exactly, and no retry or timeout path is ever
    taken.  A search without a config runs :data:`SINGLE_SHOT`.
    """

    #: Additional attempts after the first for transient faults.
    max_retries: int = 2
    #: Sleep before the first retry, in seconds (kept tiny: the simulated
    #: runtime "recovers" instantly; real deployments raise this).
    backoff_s: float = 0.005
    #: Multiplier on the sleep per further retry.
    backoff_factor: float = 2.0
    #: Wall-clock watchdog per measurement; ``None`` disables the watchdog.
    measure_timeout_s: Optional[float] = None
    #: Timing samples per measurement (median-of-k).  1 = single-shot.
    samples: int = 3
    #: Samples deviating from the median by more than this fraction are
    #: rejected as outliers before averaging.
    outlier_rel: float = 0.25

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** max(0, attempt - 1)

    def to_dict(self) -> Dict:
        return {
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "measure_timeout_s": self.measure_timeout_s,
            "samples": self.samples,
            "outlier_rel": self.outlier_rel,
        }


#: The policy of a run with neither a fault plan nor a resilience config:
#: one attempt, one timing sample, no watchdog.
SINGLE_SHOT = ResilienceConfig(max_retries=0, samples=1)


def resilience_policy(injector, config: Optional[ResilienceConfig]
                      ) -> Optional[ResilienceConfig]:
    """The resilience config a run uses: ``config`` when given, the
    defaults for a fault-injected run without one, else ``None``."""
    if config is None and injector is not None:
        return ResilienceConfig()
    return config


def call_with_timeout(
    fn: Callable[[], T], timeout_s: Optional[float]
) -> T:
    """Run ``fn`` under a wall-clock watchdog.

    The callable runs in a daemon thread; if it has not finished within
    ``timeout_s`` a :class:`MeasurementTimeout` is raised and the hung
    thread is abandoned (Python threads cannot be killed — injected hangs
    are bounded sleeps, so abandoned threads drain quickly).  With
    ``timeout_s=None`` the call runs inline with no thread overhead.
    """
    if timeout_s is None:
        return fn()
    # Lock-free by design (audited against host.race.unlocked-attr):
    # `result`/`error` are locals shared with exactly one runner thread,
    # each side only appends, and the reads below are ordered after the
    # writes by the join() happens-before edge.  A timed-out runner may
    # still append later, but its list is never read again.
    result: List[T] = []
    error: List[BaseException] = []

    def runner() -> None:
        try:
            result.append(fn())
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            error.append(exc)

    thread = threading.Thread(target=runner, daemon=True, name="repro-watchdog")
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise MeasurementTimeout(
            f"measurement exceeded the {timeout_s * 1000:.0f} ms watchdog budget"
        )
    if error:
        raise error[0]
    return result[0]


def robust_aggregate(
    values: Sequence[float], outlier_rel: float = 0.25
) -> Tuple[float, int]:
    """Median-of-k with outlier rejection; returns ``(rate, n_outliers)``.

    Samples whose relative deviation from the median exceeds
    ``outlier_rel`` are discarded (an injected timing spike, a paging
    stall); the survivors' mean is returned, computed as the median plus
    their mean deviation from it.  That form is exact where a plain mean
    is not (``(0.1 + 0.1 + 0.1) / 3 != 0.1``): when every clean sample is
    identical — as in the deterministic simulator — the deviations are
    zero and the aggregate *is* the clean value, as long as a majority of
    samples is clean.
    """
    if not values:
        raise ValueError("robust_aggregate needs at least one sample")
    if len(values) == 1:
        return values[0], 0
    median = statistics.median(values)
    if median == 0.0:
        return median, 0
    survivors = [v for v in values if abs(v - median) / abs(median) <= outlier_rel]
    if not survivors:  # pathological: everything disagrees with the median
        return median, len(values)
    deviation = sum(v - median for v in survivors) / len(survivors)
    return median + deviation, len(values) - len(survivors)


def run_with_retry(
    fn: Callable[[int], T],
    config: ResilienceConfig,
    on_fault: Optional[Callable[[str], None]] = None,
) -> T:
    """Call ``fn(attempt)`` retrying transient faults with backoff.

    ``fn`` receives the attempt number (0-based) so deterministic fault
    decisions re-roll per retry.  :class:`TransientError` (including
    :class:`~repro.errors.DeviceLostError`) and
    :class:`~repro.errors.MeasurementTimeout` are retried up to
    ``config.max_retries`` times; the final failure propagates.
    ``on_fault`` observes each absorbed fault's class.
    """
    attempt = 0
    while True:
        try:
            return fn(attempt)
        except (TransientError, MeasurementTimeout) as exc:
            kind = getattr(exc, "fault_kind", "timeout")
            if on_fault is not None:
                on_fault(kind)
            if attempt >= config.max_retries:
                raise
            attempt += 1
            delay = config.backoff(attempt)
            if delay > 0:
                time.sleep(delay)


class Quarantine:
    """Registry of demoted (persistently flaky) candidates.

    A candidate lands here when one of its evaluations exhausts the
    retry budget — it failed ``max_retries + 1`` consecutive attempts,
    which a production tuner cannot distinguish from a kernel that will
    flake in deployment.  Quarantined candidates are excluded from
    scoring *and* retroactively from the finalist ranking (a finalist
    that starts flaking during the size sweep is demoted, not trusted).

    Keyed by the candidate's parameter digest, so the registry's content
    is independent of evaluation order (serial == parallel).
    """

    def __init__(self) -> None:
        self._digests: Set[str] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def demote(self, digest: str) -> bool:
        """Record a demotion; True when the digest is newly quarantined."""
        with self._lock:
            if digest in self._digests:
                return False
            self._digests.add(digest)
            return True
