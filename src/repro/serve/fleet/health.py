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
  (multiplied by ``1 - dispatch_decay`` each time the device completes
  work, by ``1 - probe_decay`` on each clean health probe).  Decaying
  per event rather than per second makes the detector measure the
  failure **fraction** — in the simulator thousands of dispatches fit
  in a millisecond, so any clock-based half-life would see baseline
  chaos (a few percent of injected faults) and a total outage as the
  same "many failures per second" and suspect everything.  Per-dispatch
  decay instead settles at ``weight * failure_fraction /
  dispatch_decay``: calm at baseline, saturating only when most of the
  work fails — i.e. during a real outage, when no successes arrive to
  decay it;
* sustained latency inflation — the brownout signature: slower, never
  lost — contributes ``max(0, EWMA(observed/predicted) - slack)``;
* an open breaker pins phi high, a half-open one moderately.

The fleet manager reads ``score`` against two thresholds with a gap
between them (suspect below ``suspect_threshold``, eligible to recover
above ``recover_threshold``), so a device hovering at the boundary
cannot oscillate between serving and suspected every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.serve.breaker import BreakerState

__all__ = ["HealthConfig", "DeviceHealth"]

#: Phi contribution of an open / half-open circuit breaker.
_BREAKER_PHI = {BreakerState.OPEN: 4.0, BreakerState.HALF_OPEN: 1.0}


@dataclass(frozen=True)
class HealthConfig:
    """Failure-detector knobs."""

    #: Fraction of the failure load shed per successful dispatch.  The
    #: load settles at ``failure_fraction / dispatch_decay`` under
    #: steady traffic, so with the default a device must fail more
    #: than ~12% of its work (3 phi at suspect_threshold 0.25) before
    #: suspicion builds.
    dispatch_decay: float = 0.04
    #: Fraction shed per *clean* health probe — probes are deliberate
    #: known-answer checks, so each one is strong evidence: from the
    #: ``max_load`` ceiling, ``log(max_load) / probe_decay`` clean
    #: probes reach phi < 1.
    probe_decay: float = 0.5
    #: EWMA weight for the observed/predicted latency ratio.
    latency_alpha: float = 0.25
    #: Latency ratio below this contributes nothing to phi (tuned
    #: kernels routinely run a little off their noise-free prediction).
    latency_slack: float = 2.0
    #: Failure load saturates here, bounding post-outage recovery to a
    #: fixed number of clean probes regardless of outage length.
    max_load: float = 8.0
    #: Score below this suspects a serving device ...
    suspect_threshold: float = 0.25
    #: ... and only a score back above this (plus clean probes) recovers
    #: it — the hysteresis gap prevents suspect/recover oscillation.
    recover_threshold: float = 0.5

    def __post_init__(self):
        if not 0 < self.dispatch_decay < 1:
            raise ValueError("dispatch_decay must be in (0, 1)")
        if not 0 < self.probe_decay < 1:
            raise ValueError("probe_decay must be in (0, 1)")
        if not 0 < self.latency_alpha <= 1:
            raise ValueError("latency_alpha must be in (0, 1]")
        if not 0 < self.suspect_threshold <= self.recover_threshold <= 1:
            raise ValueError(
                "need 0 < suspect_threshold <= recover_threshold <= 1"
            )


@dataclass
class DeviceHealth:
    """Accrued health evidence for one device."""

    device: str
    config: HealthConfig = field(default_factory=HealthConfig)
    #: Failure load, decayed per successful dispatch / clean probe.
    _load: float = 0.0
    #: EWMA of observed/predicted dispatch latency.
    _ratio: float = 1.0
    # -- lifetime evidence counts ---------------------------------------
    dispatches: int = 0
    probes: int = 0
    failure_events: int = 0

    def observe_dispatch(
        self, now_s: float, observed_s: float, predicted_s: float
    ) -> None:
        """Fold one completed dispatch in: decay load, update the EWMA."""
        self.dispatches += 1
        self._load *= 1.0 - self.config.dispatch_decay
        if predicted_s <= 0.0 or observed_s < 0.0:
            return
        alpha = self.config.latency_alpha
        self._ratio += alpha * (observed_s / predicted_s - self._ratio)

    def observe_probe(
        self, now_s: float, ratio: Optional[float], clean: bool
    ) -> None:
        """Fold one health probe in (``ratio`` is observed/predicted).

        A clean probe (correct *and* fast) sheds ``probe_decay`` of the
        load — deliberate known-answer evidence outweighs one routine
        dispatch.  The measured ratio always feeds the latency EWMA,
        which is how a browned-out device's ratio relaxes back under
        the slack once the episode ends.  Probe *failures* are the
        caller's to report via :meth:`observe_failure`.
        """
        self.probes += 1
        if clean:
            self._load *= 1.0 - self.config.probe_decay
        if ratio is not None and ratio >= 0.0:
            alpha = self.config.latency_alpha
            self._ratio += alpha * (ratio - self._ratio)

    def observe_failure(self, now_s: float, weight: float = 1.0) -> None:
        """Accrue one failure event (breaker trip, fault, bad canary).

        The load saturates at ``max_load``: suspicion cannot grow
        without bound during a long outage, so the number of clean
        probes back to a recoverable score is bounded too.
        """
        self.failure_events += 1
        self._load = min(self._load + max(0.0, weight), self.config.max_load)

    def phi(self, now_s: float,
            breaker_state: Optional[BreakerState] = None) -> float:
        """Current suspicion level (0 = perfectly healthy)."""
        return (self._load
                + max(0.0, self._ratio - self.config.latency_slack)
                + _BREAKER_PHI.get(breaker_state, 0.0))

    def score(self, now_s: float,
              breaker_state: Optional[BreakerState] = None) -> float:
        """Bounded health score in (0, 1]; 1 is perfectly healthy."""
        return 1.0 / (1.0 + self.phi(now_s, breaker_state))

    @property
    def latency_ratio(self) -> float:
        """The current observed/predicted latency EWMA."""
        return self._ratio
