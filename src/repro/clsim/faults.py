"""Deterministic fault injection for the simulated OpenCL runtime.

The paper's tuner runs against hardware that *fails*: kernels "failed in
code generation, compilation or testing are not counted" (Section III-F)
and an entire device/precision/algorithm combination — PL-DGEMM on
Bulldozer — faults at execution time (Section IV-A).  The simulator is
perfectly reliable, so this module supplies the missing chaos: a seeded
:class:`FaultPlan` describes *which* fault classes fire *where* and *how
often*, and a :class:`FaultInjector` turns the plan into reproducible
go/no-go decisions at each injection point in the stack.

Injection points (the "phases" a rule's ``kind`` selects):

====================  ====================================================
``build``             ``Program.build`` / the tuner's resource check —
                      raises :class:`~repro.errors.BuildError` or, when
                      transient, :class:`~repro.errors.TransientError`.
``launch``            kernel enqueue validation — raises
                      :class:`~repro.errors.LaunchError` / transient.
``device_lost``       whole-device failure mid-command — raises
                      :class:`~repro.errors.DeviceLostError`.
``timing``            multiplies one measurement's time by ``magnitude``
                      (an outlier spike; silent, no exception).
``result``            silently corrupts the output buffer with NaNs —
                      only functional verification can catch it.
``hang``              the command sleeps ``hang_seconds`` of real wall
                      clock; the resilience watchdog must kill it.
``zone_outage``       **correlated** whole-zone loss: every device
                      sharing the rule's zone tag raises
                      :class:`~repro.errors.DeviceLostError` for the
                      duration of the active window.
``brownout``          **correlated, sustained** timing degradation: every
                      device in the zone runs ``magnitude`` times slower
                      for the active window, without being lost.
====================  ====================================================

Every per-device decision is a pure function of ``(seed, rule, device,
key, attempt)`` — no shared RNG stream, no mutable state — so decisions
are identical regardless of evaluation order, worker count, or process
boundaries.  That property is what lets serial and parallel searches
under injection select the same winner, and it is load-bearing for the
chaos test suite.

The zone kinds (``zone_outage``, ``brownout``) are deliberately *more*
correlated: their decision hashes fold in only ``(seed, rule, kind,
zone, window epoch)`` — no device, no request key, no attempt, no salt
— so every device in the zone and every request inside the window see
the same verdict.  Independent per-device failures are what PR 2
modelled; these model the rack-loses-power / thermal-throttling failure
modes an elastic fleet has to survive.  Windows advance on the
*simulated* clock carried by :meth:`FaultInjector.at_time`; an injector
never handed a clock stays at epoch 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import (
    BuildError,
    DeviceLostError,
    LaunchError,
    TransientError,
)

__all__ = [
    "FAULT_KINDS",
    "WINDOW_KINDS",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "CANNED_PLANS",
]

#: The fault taxonomy (see module docstring and docs/fault_injection.md).
FAULT_KINDS = ("build", "launch", "device_lost", "timing", "result", "hang",
               "zone_outage", "brownout")

#: Kinds whose decisions correlate across a zone and a time window
#: instead of rolling independently per device/request.
WINDOW_KINDS = ("zone_outage", "brownout")


@dataclass(frozen=True)
class FaultRule:
    """One class of injected fault with its firing probability.

    ``device`` / ``precision`` / ``algorithm`` restrict the rule to
    matching kernels (``None`` matches everything) — this is how the
    paper's Bulldozer PL-DGEMM failure is expressed as a plan instead of
    a hard-coded quirk.  ``transient`` faults clear on retry (the
    attempt number feeds the decision hash); persistent ones fire for
    every attempt at the same site.
    """

    kind: str
    rate: float
    device: Optional[str] = None
    precision: Optional[str] = None
    algorithm: Optional[str] = None
    transient: bool = True
    #: Timing-spike multiplier (``kind="timing"``) and the sustained
    #: slowdown factor of a ``brownout``.
    magnitude: float = 8.0
    #: Real wall-clock seconds a hung command sleeps (``kind="hang"``).
    hang_seconds: float = 0.25
    #: Zone tag the window kinds correlate over (``None``: every zone
    #: rolls its own correlated decision).
    zone: Optional[str] = None
    #: Correlation-window length in simulated seconds (window kinds):
    #: ``rate`` is the per-window probability that an episode *starts*.
    window_s: float = 0.05
    #: Windows one started episode stays active for (>= 1).
    duration_windows: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.kind in WINDOW_KINDS:
            if self.window_s <= 0.0:
                raise ValueError(
                    f"{self.kind} rules need window_s > 0, got {self.window_s}"
                )
            if self.duration_windows < 1:
                raise ValueError(
                    f"{self.kind} rules need duration_windows >= 1, "
                    f"got {self.duration_windows}"
                )

    def matches(self, device: str, params=None) -> bool:
        if self.device is not None and self.device != device:
            return False
        if params is not None:
            if self.precision is not None and params.precision != self.precision:
                return False
            if (
                self.algorithm is not None
                and params.algorithm.value != self.algorithm
            ):
                return False
        elif self.precision is not None or self.algorithm is not None:
            # Kernel-scoped rules need a kernel to match against.
            return False
        return True

    def to_dict(self) -> Dict:
        d = {"kind": self.kind, "rate": self.rate}
        for name in ("device", "precision", "algorithm", "zone"):
            if getattr(self, name) is not None:
                d[name] = getattr(self, name)
        if not self.transient:
            d["transient"] = False
        if self.kind in ("timing", "brownout"):
            d["magnitude"] = self.magnitude
        if self.kind == "hang":
            d["hang_seconds"] = self.hang_seconds
        if self.kind in WINDOW_KINDS:
            d["window_s"] = self.window_s
            d["duration_windows"] = self.duration_windows
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultRule":
        return cls(**d)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable set of fault rules.

    Two injectors built from equal plans make identical decisions; a
    different ``seed`` reshuffles every decision while keeping the rates.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    #: ``(device, zone)`` pairs the window kinds correlate over.  A
    #: device absent from the mapping falls back to the catalog's
    #: default zone layout (:data:`repro.devices.catalog.DEVICE_ZONES`),
    #: then to the ``"default"`` zone — so ad-hoc device names used in
    #: tests still correlate with each other.
    zones: Tuple[Tuple[str, str], ...] = ()

    def zone_of(self, device: str) -> str:
        """The zone tag ``device`` belongs to under this plan."""
        for name, zone in self.zones:
            if name == device:
                return zone
        from repro.devices.catalog import DEVICE_ZONES

        return DEVICE_ZONES.get(device, "default")

    def to_dict(self) -> Dict:
        d = {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}
        if self.zones:
            d["zones"] = dict(self.zones)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultPlan":
        return cls(
            seed=int(d.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in d.get("rules", ())),
            zones=tuple(sorted(d.get("zones", {}).items())),
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def digest(self) -> str:
        """Stable identity digest (part of checkpoint fingerprints)."""
        return hashlib.blake2b(self.to_json().encode(), digest_size=8).hexdigest()

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a CLI spec.

        Accepted forms::

            build:0.1,launch:0.05,timing:0.1     # kind:rate pairs
            launch:1.0:bulldozer                 # kind:rate:device
            zone_outage:0.04:zone-amd            # window kind:rate:zone
            @plan.json                           # a serialised FaultPlan
            bulldozer-pl-dgemm                   # a canned plan by name

        ``kind:rate`` rules are transient; use a canned plan or a JSON
        file for persistent, kernel-scoped, or custom-window rules.  For
        the window kinds (``zone_outage``, ``brownout``) the optional
        third piece names the *zone* the rule correlates over instead of
        a device.  Rates are validated here: anything outside ``[0, 1]``
        is rejected with the offending spec fragment named, instead of
        silently mis-rolling every decision.
        """
        spec = spec.strip()
        if spec in CANNED_PLANS:
            return CANNED_PLANS[spec].with_seed(seed)
        if spec.startswith("@"):
            with open(spec[1:], encoding="utf-8") as fh:
                plan = cls.from_dict(json.load(fh))
            return plan if plan.seed or not seed else plan.with_seed(seed)
        rules = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) not in (2, 3):
                raise ValueError(
                    f"bad fault spec {part!r} (want kind:rate[:device|:zone])"
                )
            kind = pieces[0]
            try:
                rate = float(pieces[1])
            except ValueError:
                raise ValueError(
                    f"bad fault spec {part!r}: rate {pieces[1]!r} is not "
                    f"a number"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"bad fault spec {part!r}: rate must be in [0, 1], "
                    f"got {rate}"
                )
            scope = pieces[2] if len(pieces) == 3 else None
            try:
                if kind in WINDOW_KINDS:
                    rules.append(FaultRule(kind=kind, rate=rate, zone=scope))
                else:
                    rules.append(FaultRule(kind=kind, rate=rate, device=scope))
            except ValueError as exc:
                raise ValueError(f"bad fault spec {part!r}: {exc}") from None
        if not rules:
            raise ValueError(f"fault spec {spec!r} contains no rules")
        return cls(seed=seed, rules=tuple(rules))


#: The paper's documented device failure, reproducible on demand:
#: "DGEMM kernels with PL algorithm always fail to execute on the
#: Bulldozer" (Section IV-A).  rate=1.0, persistent, kernel-scoped.
CANNED_PLANS: Dict[str, FaultPlan] = {
    "bulldozer-pl-dgemm": FaultPlan(
        rules=(
            FaultRule(
                kind="launch",
                rate=1.0,
                device="bulldozer",
                precision="d",
                algorithm="PL",
                transient=False,
            ),
        )
    ),
    # The serving layer's acceptance plan: >= 10% aggregate fault rate
    # mixing silent result corruption (only Freivalds catches it) with
    # launch flake and device loss.  `repro soak --inject-faults
    # serve-chaos` must still return zero wrong answers.
    "serve-chaos": FaultPlan(
        rules=(
            FaultRule(kind="result", rate=0.06),
            FaultRule(kind="launch", rate=0.04),
            FaultRule(kind="device_lost", rate=0.02),
            FaultRule(kind="timing", rate=0.03),
        )
    ),
    # The elastic-fleet acceptance plan: the serve-chaos independent
    # faults (slightly thinned) plus *correlated* chaos — zone outages
    # that take every device in a zone down for a sustained window, and
    # zone-wide brownouts that degrade timing without loss.  The churn
    # soak (`repro soak --fleet --inject-faults fleet-chaos`) must ride
    # these out with zero wrong answers while the autoscaler backfills
    # lost capacity from other zones.
    "fleet-chaos": FaultPlan(
        rules=(
            FaultRule(kind="result", rate=0.04),
            FaultRule(kind="launch", rate=0.03),
            FaultRule(kind="timing", rate=0.02),
            FaultRule(kind="zone_outage", rate=0.06, window_s=0.05,
                      duration_windows=2),
            FaultRule(kind="brownout", rate=0.05, magnitude=6.0,
                      window_s=0.05, duration_windows=3),
        )
    ),
}


@dataclass(frozen=True)
class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic fault decisions.

    Stateless, so threads that share one injector, or copies of it,
    agree on every decision.  ``salt`` is folded into each decision
    hash — retry loops that re-run a whole phase (e.g. finalist
    verification) use :meth:`salted` so a persistent retry does not
    deterministically replay the identical fault.

    ``now_s`` is the injector's view of the simulated clock, advanced by
    :meth:`at_time`; only the window kinds (``zone_outage``,
    ``brownout``) read it.  Their decisions deliberately ignore the
    salt, the request key, and the attempt number — a zone is out for
    *everyone* inside the window, and retrying cannot clear it.
    """

    plan: FaultPlan
    salt: str = ""
    now_s: float = 0.0

    def salted(self, extra: str) -> "FaultInjector":
        return replace(self, salt=f"{self.salt}|{extra}")

    def at_time(self, now_s: float) -> "FaultInjector":
        """A copy whose window-kind decisions see simulated ``now_s``."""
        return replace(self, now_s=float(now_s))

    # -- decision core ---------------------------------------------------
    def _unit(self, rule_index: int, kind: str, device: str, key: str,
              attempt: int) -> float:
        payload = (
            f"{self.plan.seed}|{rule_index}|{kind}|{device}|{key}"
            f"|{attempt}|{self.salt}"
        ).encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def fires(
        self,
        kind: str,
        device: str,
        key: str,
        attempt: int = 0,
        params=None,
    ) -> Optional[FaultRule]:
        """The first matching rule that fires at this site, if any.

        Persistent rules ignore ``attempt`` (retrying cannot clear them);
        transient rules hash it in, so a retry re-rolls the decision.
        Window kinds ignore all of ``key``/``attempt``/``salt`` and
        decide per ``(zone, window epoch)`` instead — see
        :meth:`_window_unit`.
        """
        for index, rule in enumerate(self.plan.rules):
            if rule.kind != kind or not rule.matches(device, params):
                continue
            if rule.kind in WINDOW_KINDS:
                zone = self.plan.zone_of(device)
                if rule.zone is not None and rule.zone != zone:
                    continue
                if self._window_active(index, rule, zone):
                    return rule
                continue
            roll_attempt = attempt if rule.transient else 0
            if self._unit(index, kind, device, key, roll_attempt) < rule.rate:
                return rule
        return None

    # -- correlated window decisions -------------------------------------
    def _window_unit(self, rule_index: int, kind: str, zone: str,
                     epoch: int) -> float:
        """The correlated roll: no device, key, attempt, or salt — every
        device in ``zone`` and every request in window ``epoch`` agree."""
        payload = (
            f"{self.plan.seed}|{rule_index}|{kind}|zone:{zone}|epoch:{epoch}"
        ).encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def _window_active(self, rule_index: int, rule: FaultRule,
                       zone: str) -> bool:
        """Is an episode of ``rule`` active over ``zone`` at ``now_s``?

        An episode *starts* at window ``e`` with probability ``rate``
        and stays active for ``duration_windows`` windows, so the
        current window is active iff any of the last
        ``duration_windows`` windows rolled a start.
        """
        current = int(self.now_s / rule.window_s)
        first = max(0, current - rule.duration_windows + 1)
        for epoch in range(first, current + 1):
            if self._window_unit(rule_index, rule.kind, zone, epoch) < rule.rate:
                return True
        return False

    def active_windows(self, kind: str, zone: str,
                       until_s: float) -> list:
        """Merged ``[start_s, end_s)`` episodes of ``kind`` over ``zone``
        in ``[0, until_s)`` — the ground truth the churn soak's recovery
        accounting is stated against.
        """
        raw: list = []
        for index, rule in enumerate(self.plan.rules):
            if rule.kind != kind:
                continue
            if rule.zone is not None and rule.zone != zone:
                continue
            epochs = int(until_s / rule.window_s) + 1
            for epoch in range(epochs):
                if self._window_unit(index, kind, zone, epoch) < rule.rate:
                    raw.append((epoch * rule.window_s,
                                (epoch + rule.duration_windows) * rule.window_s))
        merged: list = []
        for start, end in sorted(raw):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    # -- raise-style checks for the clsim / tuner layers -----------------
    def check_build(self, device: str, key: str, attempt: int = 0,
                    params=None) -> None:
        rule = self.fires("build", device, key, attempt, params)
        if rule is None:
            return
        message = f"injected build failure on {device} (fault plan)"
        if rule.transient:
            raise TransientError(message, fault_kind="build")
        exc = BuildError(message, build_log=f"{message}\nrule: {rule.to_dict()}")
        #: Marks the failure as plan-made, so it is never cached as a
        #: property of the kernel itself.
        exc.injected = True
        raise exc

    def check_launch(self, device: str, key: str, attempt: int = 0,
                     params=None) -> None:
        rule = self.fires("launch", device, key, attempt, params)
        if rule is not None:
            message = f"injected launch failure on {device} (fault plan)"
            if rule.transient:
                raise TransientError(message, fault_kind="launch")
            exc = LaunchError(message)
            exc.injected = True
            raise exc
        rule = self.fires("device_lost", device, key, attempt, params)
        if rule is not None:
            raise DeviceLostError(
                f"device {device} lost during command (fault plan)"
            )
        rule = self.fires("zone_outage", device, key, attempt, params)
        if rule is not None:
            raise DeviceLostError(
                f"device {device} lost: zone {self.plan.zone_of(device)} "
                f"outage (fault plan)"
            )

    def timing_factor(self, device: str, key: str, attempt: int = 0,
                      params=None) -> float:
        """Multiplier on one measurement's time (1.0 = clean).

        An independent ``timing`` spike and a correlated ``brownout``
        compound: a spike during a brownout is that much worse.
        """
        factor = 1.0
        rule = self.fires("timing", device, key, attempt, params)
        if rule is not None:
            factor *= rule.magnitude
        rule = self.fires("brownout", device, key, attempt, params)
        if rule is not None:
            factor *= rule.magnitude
        return factor

    def corrupts_result(self, device: str, key: str, attempt: int = 0,
                        params=None) -> bool:
        return self.fires("result", device, key, attempt, params) is not None

    def hang_seconds(self, device: str, key: str, attempt: int = 0,
                     params=None) -> float:
        """Wall-clock seconds this command hangs (0.0 = no hang)."""
        rule = self.fires("hang", device, key, attempt, params)
        return rule.hang_seconds if rule is not None else 0.0
