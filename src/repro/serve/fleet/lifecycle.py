"""The per-device lifecycle state machine.

A fleet member is always in exactly one state::

              provision              warm
    retired --------------> provisioning --> warming --> serving
       ^                                       |           |  ^
       |        failed warmup / drained        v           v  | recovered
       +---------------- draining <------- (retired)   suspected
                             ^                             |
                             +-----------------------------+

* ``provisioning`` — chosen by the autoscaler, not yet buildable;
* ``warming`` — rungs built and statically verified, parked off the
  ladder; the device takes only known-answer canary traffic until it
  passes two consecutive checks;
* ``serving`` — on the ladder, taking real traffic;
* ``suspected`` — the failure detector's score dropped below threshold;
  parked off the ladder, probed each evaluation, restored only after
  consecutive clean probes *and* a recovered score;
* ``draining`` — leaving gracefully (autoscaler shrink); new work is
  already routed elsewhere, in-flight work completes, then retirement;
* ``retired`` — off the fleet; may be recommissioned later (the
  ``retired -> provisioning`` edge), inheriting its breaker history.

Transitions not in :data:`LEGAL_EDGES` raise ``ValueError`` — state
bugs fail loudly instead of silently corrupting membership — and every
transition is appended to a log of ``(t_s, from, to, reason)`` the soak
report persists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

__all__ = ["DeviceState", "Transition", "DeviceLifecycle", "LEGAL_EDGES"]


class DeviceState(str, Enum):
    PROVISIONING = "provisioning"
    WARMING = "warming"
    SERVING = "serving"
    DRAINING = "draining"
    SUSPECTED = "suspected"
    RETIRED = "retired"


#: The allowed edges of the state machine.
LEGAL_EDGES: Tuple[Tuple[DeviceState, DeviceState], ...] = (
    (DeviceState.PROVISIONING, DeviceState.WARMING),
    (DeviceState.WARMING, DeviceState.SERVING),
    (DeviceState.WARMING, DeviceState.RETIRED),
    (DeviceState.SERVING, DeviceState.SUSPECTED),
    (DeviceState.SERVING, DeviceState.DRAINING),
    (DeviceState.SUSPECTED, DeviceState.SERVING),
    (DeviceState.SUSPECTED, DeviceState.DRAINING),
    (DeviceState.SUSPECTED, DeviceState.RETIRED),
    (DeviceState.DRAINING, DeviceState.RETIRED),
    (DeviceState.RETIRED, DeviceState.PROVISIONING),
)


@dataclass(frozen=True)
class Transition:
    """One recorded lifecycle edge."""

    t_s: float
    source: DeviceState
    target: DeviceState
    reason: str

    def to_dict(self) -> Dict:
        return {
            "t_s": self.t_s,
            "from": self.source.value,
            "to": self.target.value,
            "reason": self.reason,
        }


class DeviceLifecycle:
    """One device's state plus its full transition history."""

    def __init__(
        self,
        device: str,
        initial: DeviceState = DeviceState.PROVISIONING,
        t_s: float = 0.0,
        reason: str = "created",
    ) -> None:
        self.device = device
        self.state = initial
        self.transitions: List[Transition] = []
        # The creation record: a self-edge documenting the bootstrap
        # state (the initial fleet starts directly in ``serving``).
        self.transitions.append(Transition(t_s, initial, initial, reason))

    def transition(self, target: DeviceState, t_s: float,
                   reason: str = "") -> Transition:
        """Move to ``target``; illegal edges raise ``ValueError``."""
        if (self.state, target) not in LEGAL_EDGES:
            raise ValueError(
                f"device {self.device!r}: illegal lifecycle transition "
                f"{self.state.value} -> {target.value}"
            )
        record = Transition(t_s, self.state, target, reason)
        self.state = target
        self.transitions.append(record)
        return record

    def can(self, target: DeviceState) -> bool:
        return (self.state, target) in LEGAL_EDGES

    @property
    def takes_traffic(self) -> bool:
        """True in the one state that serves real requests."""
        return self.state is DeviceState.SERVING

    def to_dict(self) -> Dict:
        return {
            "device": self.device,
            "state": self.state.value,
            "transitions": [t.to_dict() for t in self.transitions],
        }

    def __repr__(self) -> str:
        return f"<DeviceLifecycle {self.device}:{self.state.value}>"
