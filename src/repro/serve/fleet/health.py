"""Per-device health: a phi-accrual-style failure detector.

Classic phi-accrual (Hayashibara et al.) scores the suspicion that a
peer is down from the distribution of heartbeat gaps.  Serving GEMMs
has no heartbeats, but it has richer evidence: every dispatch yields an
observed/predicted latency ratio, every fault, breaker trip, or failed
Freivalds check is an explicit failure event, and the circuit breaker
publishes its state.  :class:`DeviceHealth` folds the three into one
suspicion level ``phi >= 0`` and a bounded ``score = 1 / (1 + phi)``
in ``(0, 1]``:

* failure events accrue a load that *decays per successful dispatch*
  (multiplied by ``1 - DISPATCH_DECAY`` each time the device completes
  work, by ``1 - PROBE_DECAY`` on each clean health probe).  Decaying
  per event rather than per second makes the detector measure the
  failure **fraction** — in the simulator thousands of dispatches fit
  in a millisecond, so any clock-based half-life would see baseline
  chaos (a few percent of injected faults) and a total outage as the
  same "many failures per second" and suspect everything.  Per-dispatch
  decay instead settles at ``weight * failure_fraction /
  DISPATCH_DECAY``: calm at baseline, saturating only when most of the
  work fails — i.e. during a real outage, when no successes arrive to
  decay it;
* sustained latency inflation — the brownout signature: slower, never
  lost — contributes ``max(0, EWMA(observed/predicted) - LATENCY_SLACK)``;
* an open breaker pins phi high, a half-open one moderately.

The fleet manager reads ``score`` against two thresholds with a gap
between them (suspect below :data:`SUSPECT_THRESHOLD`, eligible to
recover above :data:`RECOVER_THRESHOLD`), so a device hovering at the
boundary cannot oscillate between serving and suspected every
evaluation.  Each record also keeps the device's streak of consecutive
clean probes, which the manager reads to warm up or recover a parked
device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serve.breaker import BreakerState

__all__ = ["DeviceHealth"]

#: Phi contribution of an open / half-open circuit breaker.
_BREAKER_PHI = {BreakerState.OPEN: 4.0, BreakerState.HALF_OPEN: 1.0}
#: Fraction of the failure load shed per successful dispatch.  The load
#: settles at ``failure_fraction / DISPATCH_DECAY`` under steady
#: traffic, so a device must fail more than ~12% of its work (3 phi at
#: SUSPECT_THRESHOLD) before suspicion builds.
DISPATCH_DECAY = 0.04
#: Fraction shed per *clean* health probe — probes are deliberate
#: known-answer checks, so each one is strong evidence: from the
#: MAX_LOAD ceiling, ``log(MAX_LOAD) / PROBE_DECAY`` clean probes reach
#: phi < 1.
PROBE_DECAY = 0.5
#: EWMA weight for the observed/predicted latency ratio.
LATENCY_ALPHA = 0.25
#: Latency ratio below this contributes nothing to phi (tuned kernels
#: routinely run a little off their noise-free prediction).
LATENCY_SLACK = 2.0
#: Failure load saturates here, bounding post-outage recovery to a
#: fixed number of clean probes regardless of outage length.
MAX_LOAD = 8.0
#: Score below this suspects a serving device ...
SUSPECT_THRESHOLD = 0.25
#: ... and only a score back above this (plus clean probes) recovers it
#: — the hysteresis gap prevents suspect/recover oscillation.
RECOVER_THRESHOLD = 0.5


@dataclass
class DeviceHealth:
    """Accrued health evidence for one device."""

    device: str
    #: Failure load, decayed per successful dispatch / clean probe.
    _load: float = 0.0
    #: EWMA of observed/predicted dispatch latency.
    _ratio: float = 1.0
    #: Consecutive clean probes (reset by any other probe, and by the
    #: manager when it suspends the device).
    probe_streak: int = 0
    # -- lifetime evidence counts ---------------------------------------
    dispatches: int = 0
    failure_events: int = 0

    def observe_dispatch(self, observed_s: float, predicted_s: float) -> None:
        """Fold one completed dispatch in: decay load, update the EWMA."""
        self.dispatches += 1
        self._load *= 1.0 - DISPATCH_DECAY
        if predicted_s <= 0.0 or observed_s < 0.0:
            return
        self._ratio += LATENCY_ALPHA * (observed_s / predicted_s - self._ratio)

    def observe_probe(self, ratio: Optional[float], clean: bool) -> None:
        """Fold one health probe in (``ratio`` is observed/predicted).

        A clean probe (correct *and* fast) extends the streak and sheds
        ``PROBE_DECAY`` of the load — deliberate known-answer evidence
        outweighs one routine dispatch; any other probe ends the streak.
        The measured ratio always feeds the latency EWMA, which is how a
        browned-out device's ratio relaxes back under the slack once the
        episode ends.  Probe *failures* are the caller's to report via
        :meth:`observe_failure`.
        """
        if clean:
            self.probe_streak += 1
            self._load *= 1.0 - PROBE_DECAY
        else:
            self.probe_streak = 0
        if ratio is not None and ratio >= 0.0:
            self._ratio += LATENCY_ALPHA * (ratio - self._ratio)

    def observe_failure(self, weight: float = 1.0) -> None:
        """Accrue one failure event (breaker trip, fault, bad canary).

        The load saturates at ``MAX_LOAD``: suspicion cannot grow
        without bound during a long outage, so the number of clean
        probes back to a recoverable score is bounded too.
        """
        self.failure_events += 1
        self._load = min(self._load + max(0.0, weight), MAX_LOAD)

    def phi(self, breaker_state: Optional[BreakerState] = None) -> float:
        """Current suspicion level (0 = perfectly healthy)."""
        return (self._load
                + max(0.0, self._ratio - LATENCY_SLACK)
                + _BREAKER_PHI.get(breaker_state, 0.0))

    def score(self, breaker_state: Optional[BreakerState] = None) -> float:
        """Bounded health score in (0, 1]; 1 is perfectly healthy."""
        return 1.0 / (1.0 + self.phi(breaker_state))
