"""The autoscaler: hysteresis, sustain, cooldown — provably no flap.

:class:`Autoscaler` is a pure decision function over one load signal,
the scheduler's total queue depth; it owns no devices —
the :class:`~repro.serve.fleet.manager.FleetManager` executes whatever
it decides.  Three mechanisms make flapping *structurally* impossible
rather than merely unlikely:

1. **Hysteresis bands** — grow triggers above the high queue-depth
   watermark (``grow_queue_depth``), shrink only below the separate low
   one (``shrink_queue_depth``).  The dead band between them decides
   nothing.
2. **Sustain** — a breach must hold for ``sustain_evals`` *consecutive*
   evaluations before it acts; a single bursty sample resets to zero
   progress toward the opposite direction.
3. **Cooldown** — after any scale event, *every* decision (either
   direction) is suppressed for ``cooldown_s``.  This is the anti-flap
   proof: a grow at time ``t`` means no decision of any kind exists in
   ``(t, t + cooldown_s)``, so a grow+shrink pair inside one cooldown
   window cannot be constructed.  The property test pins this down.

Scale steps are bounded by ``max_step`` devices per event and the fleet
by ``[min_devices, max_devices]``.  Everything is pure arithmetic over
the sampled depths — no wall clock, no RNG — so a seeded soak decides
identically run after run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["AutoscaleConfig", "ScaleEvent", "Autoscaler"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Autoscaler policy knobs (times are simulated seconds)."""

    min_devices: int = 1
    max_devices: int = 6
    #: Evaluation cadence: queue depth is sampled at most this often.
    eval_interval_s: float = 0.005
    #: High watermark: total queued requests above this (sustained)
    #: grows the fleet.
    grow_queue_depth: float = 24.0
    #: Low watermark: total queued requests below this (sustained)
    #: shrinks it.  Must sit below the high one.
    shrink_queue_depth: float = 4.0
    #: Consecutive breached evaluations required before acting.
    sustain_evals: int = 2
    #: After any event, no decision of either kind for this long.
    cooldown_s: float = 0.05
    #: Devices added/removed per event.
    max_step: int = 1

    def __post_init__(self):
        if not 1 <= self.min_devices <= self.max_devices:
            raise ValueError("need 1 <= min_devices <= max_devices")
        if self.shrink_queue_depth >= self.grow_queue_depth:
            raise ValueError(
                "hysteresis requires shrink_queue_depth < grow_queue_depth"
            )
        if self.sustain_evals < 1:
            raise ValueError("sustain_evals must be >= 1")
        if self.cooldown_s < 0 or self.eval_interval_s <= 0:
            raise ValueError("cooldown_s >= 0 and eval_interval_s > 0")
        if self.max_step < 1:
            raise ValueError("max_step must be >= 1")


@dataclass(frozen=True)
class ScaleEvent:
    """One executed autoscale decision (recorded by the manager)."""

    t_s: float
    direction: str  # "grow" | "shrink"
    devices: Tuple[str, ...]
    fleet_before: int
    fleet_after: int
    reason: str

    def to_dict(self) -> Dict:
        return {
            "t_s": self.t_s,
            "direction": self.direction,
            "devices": list(self.devices),
            "fleet_before": self.fleet_before,
            "fleet_after": self.fleet_after,
            "reason": self.reason,
        }


class Autoscaler:
    """The decision core: queue depth in, ``"grow"``/``"shrink"``/None out."""

    def __init__(self, config: Optional[AutoscaleConfig] = None) -> None:
        self.config = config or AutoscaleConfig()
        self._high_streak = 0
        self._low_streak = 0
        self._last_event_t: Optional[float] = None
        self.evaluations = 0

    def in_cooldown(self, now_s: float) -> bool:
        return (self._last_event_t is not None
                and now_s - self._last_event_t < self.config.cooldown_s)

    def evaluate(
        self,
        now_s: float,
        queue_depth: float,
        fleet_size: int,
    ) -> Optional[str]:
        """One evaluation; returns the direction to act on, if any.

        The caller (the fleet manager) owns the cadence — it calls this
        at ``eval_interval_s`` boundaries — and must execute a returned
        decision, because this method records the event time the
        cooldown is measured from.
        """
        cfg = self.config
        self.evaluations += 1
        high = queue_depth > cfg.grow_queue_depth
        low = queue_depth < cfg.shrink_queue_depth
        self._high_streak = self._high_streak + 1 if high else 0
        self._low_streak = self._low_streak + 1 if low else 0
        # Cooldown suppresses BOTH directions: no grow+shrink pair can
        # exist inside one cooldown window, by construction.
        if self.in_cooldown(now_s):
            return None
        if (self._high_streak >= cfg.sustain_evals
                and fleet_size < cfg.max_devices):
            self._note_event(now_s)
            return "grow"
        if (self._low_streak >= cfg.sustain_evals
                and fleet_size > cfg.min_devices):
            self._note_event(now_s)
            return "shrink"
        return None

    def step_limit(self, direction: str, fleet_size: int) -> int:
        """How many devices this event may add or remove."""
        cfg = self.config
        if direction == "grow":
            return max(0, min(cfg.max_step, cfg.max_devices - fleet_size))
        return max(0, min(cfg.max_step, fleet_size - cfg.min_devices))

    def _note_event(self, now_s: float) -> None:
        self._last_event_t = now_s
        self._high_streak = 0
        self._low_streak = 0
