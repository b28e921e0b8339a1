"""Per-device circuit breakers for the serving layer.

A device that keeps failing (transient launch faults, device-lost
storms, watchdog timeouts) should stop receiving traffic *before* every
request pays its failure latency.  The breaker implements the classic
three-state machine:

* **closed** — traffic flows; consecutive failures are counted.
* **open** — after :data:`FAILURE_THRESHOLD` consecutive failures the
  breaker trips: the device is skipped entirely for
  :data:`COOLDOWN_TICKS` requests (the ladder degrades past it
  instantly).
* **half-open** — after the cooldown one probe request is let through
  at a time; :data:`PROBE_SUCCESSES` consecutive probe successes close
  the breaker, any probe failure re-opens it.

Each transition is incident-logged by the service (``breaker_trip``,
``breaker_probe``, ``breaker_close``); the breaker keeps only the state
it decides with.

Time is *logical*: the service's monotonically increasing request index
is the clock.  Wall-clock breakers are non-deterministic under load;
tick-based breakers make a seeded soak reproduce the exact same trip
and recovery sequence every run, which the chaos acceptance test
depends on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["BreakerState", "CircuitBreaker"]

#: Consecutive failures that trip a breaker.
FAILURE_THRESHOLD = 3
#: Logical ticks (requests) a breaker stays open before probing.
COOLDOWN_TICKS = 25
#: Consecutive half-open probe successes required to close again.
PROBE_SUCCESSES = 2


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """One device's breaker; driven by the service's logical clock."""

    device: str
    state: BreakerState = BreakerState.CLOSED
    _consecutive_failures: int = 0
    _opened_at: int = 0
    _probe_streak: int = 0
    #: Number of times the breaker tripped (closed/half-open -> open).
    trips: int = 0

    def allow(self, tick: int) -> bool:
        """May a request use this device at logical time ``tick``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if tick - self._opened_at >= COOLDOWN_TICKS:
                self.state = BreakerState.HALF_OPEN
                self._probe_streak = 0
                return True
            return False
        return True  # HALF_OPEN: let probes through

    def record_success(self) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._probe_streak += 1
            if self._probe_streak >= PROBE_SUCCESSES:
                self.state = BreakerState.CLOSED
                self._consecutive_failures = 0
        else:
            self._consecutive_failures = 0

    def record_failure(self, tick: int) -> bool:
        """Record a failure; returns True when this call tripped the breaker."""
        if self.state is not BreakerState.HALF_OPEN:
            self._consecutive_failures += 1
            if (self.state is BreakerState.OPEN
                    or self._consecutive_failures < FAILURE_THRESHOLD):
                return False
        # A failed half-open probe re-opens at once: the device is still sick.
        self.state = BreakerState.OPEN
        self._opened_at = tick
        self.trips += 1
        return True

    def describe(self) -> str:
        return (f"breaker[{self.device}] {self.state.value} "
                f"(trips={self.trips}, "
                f"consecutive_failures={self._consecutive_failures})")
