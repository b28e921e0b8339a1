"""The pluggable search-strategy interface.

The paper's tuner is enumerative: it measures every heuristically
generated candidate (Section III-F).  CLTune demonstrated that simulated
annealing and particle-swarm search reach near-optimal GEMM
configurations at a fraction of that budget, and Falch & Elster showed a
learned surrogate over kernel-parameter features can drive the search.
This module defines the contract those strategies implement so
:class:`~repro.tuner.search.SearchEngine` can treat all of them — the
paper's exhaustive sweep included — as interchangeable candidate
streams.

The contract is *ask/tell*:

``ask(n)``
    Return up to ``n`` fresh :class:`KernelParams` proposals.  An empty
    list ends stage 1 (budget exhausted, space exhausted, or the
    strategy early-stopped).
``tell(observations)``
    Receive one :class:`Observation` per proposed candidate of the last
    batch, in proposal order: the measured GFlop/s, or the failure
    category (including static-gate rejections as ``static:<rule>``).

Determinism is part of the contract: a strategy's proposal sequence must
be a pure function of ``(seed, the observations told so far)``.  The
engine evaluates batches in proposal order regardless of worker count,
so every strategy inherits the pipeline's bit-determinism guarantee —
the same seed selects the same winner serially or in a thread pool.

``state_dict``/``load_state_dict`` round-trip the complete internal
state (RNG included) through JSON so a checkpointed search resumes
mid-anneal exactly where it stopped.
"""

from __future__ import annotations

import abc
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.params import KernelParams
from repro.tuner.strategies.encoding import ParamSpace

__all__ = ["Observation", "SearchStrategy", "derive_rng", "rng_state_to_json", "rng_state_from_json"]


@dataclass(frozen=True)
class Observation:
    """What the engine learned about one proposed candidate.

    ``gflops`` is ``None`` whenever the candidate failed; ``failure``
    then carries the category — the paper's ``generation`` / ``build`` /
    ``launch`` buckets, the resilience layer's ``transient`` /
    ``timeout``, or ``static:<rule>`` for candidates the static verifier
    rejected before any evaluation was spent.
    """

    params: KernelParams
    gflops: Optional[float] = None
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.gflops is not None


def derive_rng(name: str, seed: int, *salt: object) -> random.Random:
    """A :class:`random.Random` seeded from a stable digest.

    Strategies must not share RNG streams with the enumeration (or each
    other), so each derives its own from ``(strategy name, seed, salt)``.
    """
    payload = "|".join([name, str(seed), *[str(s) for s in salt]]).encode()
    return random.Random(
        int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
    )


def rng_state_to_json(rng: random.Random) -> list:
    """``Random.getstate()`` as a JSON-serialisable value."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def rng_state_from_json(raw: Sequence) -> Tuple:
    """Invert :func:`rng_state_to_json` (JSON turns tuples into lists)."""
    version, internal, gauss = raw
    return (version, tuple(internal), gauss)


class SearchStrategy(abc.ABC):
    """Base class for stage-1 candidate streams.

    Parameters
    ----------
    space:
        The encoded parameter space (device + precision + restrictions).
    seed:
        Determinism root; two strategies with equal seeds and equal
        observation histories propose identical sequences.
    budget:
        Maximum number of candidates this strategy may propose over its
        lifetime (the search's measurement budget).
    warm_start:
        Known-good starting points: the curated space seeds and, with
        transfer tuning enabled, the tuned winners of the device's
        nearest catalogued neighbours.  Strategies propose (or exploit)
        these first.
    prior:
        ``(params, gflops-or-None)`` rows known before the search starts
        (e.g. a warm :class:`~repro.tuner.cache.MeasurementCache`).
        They inform the strategy without consuming budget.
    """

    #: Registry key; subclasses override.
    name: str = "?"

    def __init__(
        self,
        space: ParamSpace,
        *,
        seed: int = 0,
        budget: int = 4000,
        warm_start: Sequence[KernelParams] = (),
        prior: Sequence[Tuple[KernelParams, Optional[float]]] = (),
    ):
        self.space = space
        self.seed = int(seed)
        self.budget = max(0, int(budget))
        self.warm_start = [p for p in warm_start if space.admissible(p)]
        self.prior = list(prior)
        #: Candidates proposed so far (the budget's denominator).
        self.proposed = 0
        #: Model refit count (surrogate); mirrored into ``TuningStats``.
        self.refits = 0
        #: Human-readable reason when the strategy stopped before its
        #: budget ("" while running / on budget exhaustion).
        self.early_stop_reason = ""
        #: cache_key -> observed GFlop/s (None = failed); every told
        #: observation lands here so strategies never re-propose.
        self._scores: Dict[Tuple, Optional[float]] = {}
        self._best: Optional[Tuple[float, KernelParams]] = None

    # -- the ask/tell contract ------------------------------------------
    @abc.abstractmethod
    def ask(self, n: int) -> List[KernelParams]:
        """Propose up to ``n`` fresh candidates ([] = stage 1 is over)."""

    def tell(self, observations: Sequence[Observation]) -> None:
        """Record the outcomes of the last ``ask`` batch, in order."""
        for obs in observations:
            self._scores[obs.params.cache_key()] = obs.gflops if obs.ok else None
            if obs.ok and (self._best is None or obs.gflops > self._best[0]):
                self._best = (obs.gflops, obs.params)

    # -- shared bookkeeping ---------------------------------------------
    @property
    def remaining(self) -> int:
        return max(0, self.budget - self.proposed)

    @property
    def best_observed(self) -> Optional[Tuple[float, KernelParams]]:
        return self._best

    def seen(self, params: KernelParams) -> bool:
        return params.cache_key() in self._scores

    def score_of(self, params: KernelParams) -> Optional[float]:
        return self._scores.get(params.cache_key())

    def _take(self, batch: List[KernelParams]) -> List[KernelParams]:
        """Clip a batch to the remaining budget and account for it."""
        batch = batch[: self.remaining]
        self.proposed += len(batch)
        return batch

    # -- checkpointing ---------------------------------------------------
    def state_dict(self) -> Dict:
        """JSON-serialisable snapshot of the full strategy state.

        Subclasses extend this dict; everything needed to continue the
        proposal stream bit-identically must be captured (RNG state
        included — it rides in the checkpoint payload, while the
        strategy *name* goes into the checkpoint fingerprint).
        """
        return {
            "name": self.name,
            "proposed": self.proposed,
            "refits": self.refits,
            "early_stop_reason": self.early_stop_reason,
            "scores": [
                [params_key, score] for params_key, score in
                ((list(k), v) for k, v in self._scores.items())
            ],
            "best": (
                [self._best[0], self._best[1].to_dict()]
                if self._best is not None else None
            ),
        }

    def load_state_dict(self, state: Dict) -> None:
        self.proposed = int(state.get("proposed", 0))
        self.refits = int(state.get("refits", 0))
        self.early_stop_reason = str(state.get("early_stop_reason", ""))
        self._scores = {
            tuple(key): (None if score is None else float(score))
            for key, score in state.get("scores", [])
        }
        best = state.get("best")
        self._best = (
            (float(best[0]), KernelParams.from_dict(best[1]))
            if best is not None else None
        )
