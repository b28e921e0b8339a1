"""Staged heuristic kernel search.

Beyond the paper's serial sample-and-rank procedure, the engine supports
the scale features generic auto-tuners (CLTune, GEMMbench) consider
table stakes:

* **parallel evaluation** — candidate batches fan out over
  :class:`~repro.tuner.parallel.CandidateEvaluator` workers with
  deterministic result ordering, so a parallel search selects the
  identical winner as a serial one for the same seed and budget;
* **measurement caching** — an optional
  :class:`~repro.tuner.cache.MeasurementCache` short-circuits
  evaluations (successes *and* categorised failures) already recorded by
  earlier runs;
* **checkpoint/resume** — periodic checkpoint files during stage-1
  enumeration and the stage-2 size sweep let an interrupted search
  restart where it left off instead of from scratch.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analyze.verifier import StaticVerifier
from repro.codegen.params import KernelParams
from repro.codegen.space import SpaceRestrictions
from repro.devices.catalog import get_device_spec
from repro.devices.specs import DeviceSpec
from repro.errors import SearchInterrupted, TuningError, ValidationError
from repro.obs import NULL_OBS
from repro.persist import dump_json_atomic, load_json_checked
from repro.tuner.cache import CachedMeasurement, MeasurementCache, params_digest
from repro.tuner.parallel import (
    CandidateEvaluator, EvalOutcome, EvalTask, measure_once, run_attempts,
)
from repro.tuner.resilience import (
    SINGLE_SHOT, Quarantine, ResilienceConfig, resilience_policy,
)

__all__ = [
    "TuningConfig",
    "TuningStats",
    "MeasuredKernel",
    "TuningResult",
    "SearchEngine",
    "tune",
]

CHECKPOINT_FORMAT = "repro-tuner-checkpoint/1"

#: Candidates dispatched per evaluator batch.  Constant (independent of
#: the worker count) so the chunk boundaries — and therefore checkpoint
#: cadence and stats — are identical between serial and parallel runs.
_CHUNK = 64

#: Stats fields that measure wall-clock time rather than search content;
#: excluded from :meth:`TuningStats.comparable_dict`.
_WALL_CLOCK_FIELDS = ("elapsed_s", "stage1_s", "refine_s", "stage2_s", "verify_s")


@dataclass(frozen=True)
class TuningConfig:
    """Knobs of the staged search.

    The defaults are a scaled-down budget that completes in seconds; the
    paper's full runs ("more than five hours") correspond to
    ``budget=None`` (the entire heuristic space, tens of thousands of
    candidates).
    """

    budget: Optional[int] = 4000
    per_blocking: int = 8
    top_k: int = 50
    base_size_gpu: int = 4096
    base_size_cpu: int = 1536
    #: Tune for a specific (M, N, K) aspect instead of square problems.
    #: The base measurement uses this shape (each dimension rounded down
    #: to the candidate's blocking factor) and the sweep scales it.
    problem_shape: Optional[Tuple[int, int, int]] = None
    max_sweep_size: int = 8192
    sweep_targets: Tuple[int, ...] = (1024, 2048, 3072, 4096, 5120, 6144, 8192)
    verify_finalists: int = 3
    #: Hill-climbing rounds applied to the top stage-1 candidates before
    #: the size sweep (0 = the paper's pure sample-and-rank search).
    refine_rounds: int = 1
    refine_top: int = 5
    seed: int = 0
    measurement_noise: bool = True
    include_seeds: bool = True
    #: Stage-1 candidate stream (see :mod:`repro.tuner.strategies`):
    #: ``exhaustive`` (the paper's enumerative sweep), ``random``,
    #: ``annealing``, ``pso``, or ``surrogate``.
    strategy: str = "exhaustive"
    #: Warm-start the strategy from the tuned winners of the device's
    #: nearest catalogued neighbours (cross-device transfer tuning).
    transfer: bool = False


@dataclass
class TuningStats:
    """Candidate accounting (the paper's failure categories) plus the
    pipeline's observability counters: cache traffic, checkpointing,
    and per-stage wall-clock timings."""

    generated: int = 0
    measured: int = 0
    failed_generation: int = 0
    failed_build: int = 0
    failed_launch: int = 0
    failed_validation: int = 0
    #: Candidates whose evaluation exhausted the transient-retry budget.
    failed_transient: int = 0
    refined: int = 0
    #: Candidates rejected by the static verifier before any evaluation
    #: (only non-zero with the gate enabled; exported per rule as the
    #: labeled ``tuner_static_rejects_total{rule=...}`` series).
    static_rejects: int = 0
    #: Static rejections by rule id, e.g. {"device.occupancy": 12}.
    static_rejects_by_rule: Dict[str, int] = field(default_factory=dict)
    #: Resilience-layer accounting (all zero without fault injection).
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    #: Absorbed fault events by class, e.g. {"build": 12, "timing": 3}.
    faults_by_class: Dict[str, int] = field(default_factory=dict)
    #: Evaluations answered by the measurement cache / sent to workers.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Stage-1 candidates skipped because a checkpoint already covered them.
    resumed: int = 0
    #: Checkpoint files written during this search.
    checkpoints: int = 0
    #: Which stage-1 strategy drove the search (TuningConfig.strategy).
    strategy: str = "exhaustive"
    #: Candidates the strategy proposed / model refits it performed.
    strategy_proposals: int = 0
    strategy_refits: int = 0
    #: Warm-start candidates injected by cross-device transfer tuning.
    strategy_transfer_seeds: int = 0
    #: Why the strategy ended stage 1 before its budget ("" otherwise).
    strategy_early_stop: str = ""
    #: Surrogate feature importance folded into the sensitivity-report
    #: families (empty for model-free strategies).
    strategy_importance: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0
    stage1_s: float = 0.0
    refine_s: float = 0.0
    stage2_s: float = 0.0
    verify_s: float = 0.0

    #: Monotonic integer fields exported by a bound metrics registry;
    #: ``faults_by_class`` exports as a labeled series (see
    #: :meth:`bind_registry`).
    COUNTER_FIELDS = (
        "generated", "measured", "failed_generation", "failed_build",
        "failed_launch", "failed_validation", "failed_transient", "refined",
        "retries", "timeouts", "quarantined", "cache_hits", "cache_misses",
        "resumed", "checkpoints", "strategy_proposals", "strategy_refits",
        "strategy_transfer_seeds",
    )

    def bind_registry(self, registry, prefix: str = "tuner") -> None:
        """Export the counters through an obs metrics registry.

        The fields stay the only store; the registry reads them as
        ``<prefix>_<field>_total`` counters whenever it is read, so the
        search code and the Prometheus exporter always agree.
        """
        registry.track(
            self,
            {name: (f"{prefix}_{name}_total",
                    f"TuningStats.{name} (see docs/tuning_pipeline.md).")
             for name in self.COUNTER_FIELDS},
            {"faults_by_class": (f"{prefix}_faults_total",
                                 "Absorbed fault events by class.", "kind"),
             "static_rejects_by_rule": (
                 f"{prefix}_static_rejects_total",
                 "Candidates rejected by the static verifier, by rule id.",
                 "rule")},
        )

    def count_fault(self, kind: str) -> None:
        """Record one absorbed fault."""
        self.faults_by_class[kind] = self.faults_by_class.get(kind, 0) + 1

    def count_static_reject(self, rule: str) -> None:
        """Record one statically rejected candidate under its rule id."""
        self.static_rejects += 1
        self.static_rejects_by_rule[rule] = (
            self.static_rejects_by_rule.get(rule, 0) + 1
        )

    @property
    def pruned(self) -> int:
        """Candidates discarded before scoring (all failure categories,
        whether established statically or by a failed evaluation)."""
        return (
            self.failed_generation + self.failed_build + self.failed_launch
            + self.failed_transient + self.static_rejects
        )

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def candidates_per_s(self) -> float:
        return self.generated / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        d = dict(self.__dict__)
        d["pruned"] = self.pruned
        d["cache_hit_rate"] = self.cache_hit_rate
        d["candidates_per_s"] = self.candidates_per_s
        return d

    def comparable_dict(self) -> Dict[str, float]:
        """The stats minus wall-clock-dependent fields.

        Two searches that explored the identical candidate sequence have
        equal comparable dicts regardless of worker count or machine
        speed — the determinism tests rely on this.
        """
        d = dict(self.__dict__)
        for key in _WALL_CLOCK_FIELDS:
            d.pop(key, None)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, float]) -> "TuningStats":
        names = {f for f in cls().__dict__}
        kwargs = {k: v for k, v in d.items() if k in names}
        for name in ("faults_by_class", "static_rejects_by_rule",
                     "strategy_importance"):
            if name in kwargs:
                kwargs[name] = dict(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True)
class MeasuredKernel:
    """One kernel's measurement at one problem size."""

    params: KernelParams
    size: int
    gflops: float

    def __repr__(self) -> str:
        return f"<MeasuredKernel {self.gflops:.1f} GF/s @N={self.size} {self.params.summary()}>"

    def to_dict(self) -> Dict:
        return {
            "params": self.params.to_dict(),
            "size": self.size,
            "gflops": self.gflops,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "MeasuredKernel":
        return cls(
            params=KernelParams.from_dict(d["params"]),
            size=int(d["size"]),
            gflops=float(d["gflops"]),
        )


@dataclass
class TuningResult:
    """Outcome of a staged search."""

    device: str
    precision: str
    best: MeasuredKernel
    #: Finalists after the size sweep, best first (paper's "fastest 50").
    finalists: List[MeasuredKernel]
    #: Per-size measurements of the best kernel.
    best_series: List[MeasuredKernel]
    stats: TuningStats
    config: TuningConfig

    @property
    def best_gflops(self) -> float:
        return self.best.gflops

    def efficiency(self, spec: DeviceSpec) -> float:
        return self.best.gflops / spec.peak_gflops(self.precision)


class SearchEngine:
    """The heuristic search engine of paper Section III-F.

    Keyword-only arguments extend the paper's procedure:

    ``cache``
        A :class:`MeasurementCache` consulted before every evaluation
        and updated after every fresh one.
    ``workers``
        Fan candidate batches out over this many worker threads;
        results keep enumeration order, so the selected winner is
        independent of the worker count.
    ``checkpoint_path`` / ``checkpoint_every`` / ``resume``
        Write progress checkpoints at least every ``checkpoint_every``
        stage-1 candidates (and per stage-2 finalist); with ``resume``,
        a matching checkpoint restarts the search where it stopped.
    ``injector`` / ``resilience``
        A :class:`repro.clsim.faults.FaultInjector` chaos plan and the
        :class:`~repro.tuner.resilience.ResilienceConfig` that absorbs
        it: transient faults retried with backoff, hung measurements
        killed by a watchdog, timings aggregated median-of-k, and
        persistently flaky candidates quarantined.

    Stage 1 and refinement score through one loop; measurement and
    finalist verification share one attempt loop
    (:func:`~repro.tuner.parallel.run_attempts`) and one stats tally.
    """

    def __init__(
        self,
        device: Union[str, DeviceSpec],
        precision: str,
        config: Optional[TuningConfig] = None,
        restrictions: Optional[SpaceRestrictions] = None,
        *,
        cache: Optional[MeasurementCache] = None,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 500,
        resume: bool = False,
        injector=None,
        resilience: Optional[ResilienceConfig] = None,
        obs=None,
        static_gate: bool = True,
    ):
        self.spec = device if isinstance(device, DeviceSpec) else get_device_spec(device)
        if precision not in ("s", "d"):
            raise TuningError(f"precision must be 's' or 'd', got {precision!r}")
        self.precision = precision
        self.config = config or TuningConfig()
        self.restrictions = restrictions or SpaceRestrictions()
        #: Telemetry (see :mod:`repro.obs`): per-stage spans plus the
        #: metrics registry that exports the stats.  Disabled by default.
        self.obs = obs if obs is not None else NULL_OBS
        self.stats = TuningStats()
        if self.obs.enabled:
            self.stats.bind_registry(self.obs.metrics)
        self.cache = cache
        self.workers = max(1, int(workers))
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.resume = resume
        self.injector = injector
        self.resilience = resilience_policy(injector, resilience)
        #: Static pre-measurement gate (see :mod:`repro.analyze`): prunes
        #: candidates the constraint prover shows the simulator would
        #: fail, before spending an evaluation on them.  The gate proves
        #: exactly what ``measure_once`` checks, so disabling it changes
        #: only the work done, never the winner.
        self.static_gate = bool(static_gate)
        self._verifier = StaticVerifier(self.spec) if self.static_gate else None
        #: Candidates demoted for flaking out (exhausted retry budgets).
        self.quarantine = Quarantine()
        #: Testing/abort hook: raise :class:`SearchInterrupted` (after
        #: flushing a checkpoint) once this many stage-1 candidates have
        #: been consumed.  ``None`` disables the hook.
        self.abort_after: Optional[int] = None
        self._evaluator = CandidateEvaluator(
            self.spec,
            noise=self.config.measurement_noise,
            workers=self.workers,
            injector=injector,
            resilience=self.resilience,
        )

    # ------------------------------------------------------------------
    def base_size(self, params: KernelParams) -> int:
        """Stage-1 measurement size (the paper's LCM formula)."""
        base = self.config.base_size_gpu if self.spec.is_gpu else self.config.base_size_cpu
        lcm = params.lcm
        n = (base // lcm) * lcm
        n = max(n, lcm, params.algorithm.min_k_iterations * params.kwg)
        return n

    def base_shape(self, params: KernelParams) -> Tuple[int, int, int]:
        """Stage-1 measurement shape: square unless the config targets a
        specific (M, N, K) aspect."""
        if self.config.problem_shape is None:
            n = self.base_size(params)
            return n, n, n
        return self._round_shape(params, self.config.problem_shape)

    def _round_shape(
        self, params: KernelParams, shape: Tuple[int, int, int]
    ) -> Tuple[int, int, int]:
        M, N, K = shape
        Mr = max(params.mwg, (M // params.mwg) * params.mwg)
        Nr = max(params.nwg, (N // params.nwg) * params.nwg)
        Kr = max(
            params.algorithm.min_k_iterations * params.kwg,
            (K // params.kwg) * params.kwg,
        )
        return Mr, Nr, Kr

    def sweep_sizes(self, params: KernelParams) -> List[int]:
        """Stage-2 sizes: multiples of the LCM near the sweep targets."""
        lcm = params.lcm
        min_n = max(lcm, params.algorithm.min_k_iterations * params.kwg)
        sizes = []
        for target in self.config.sweep_targets:
            if target > self.config.max_sweep_size:
                continue
            n = max(min_n, (target // lcm) * lcm)
            if n <= self.config.max_sweep_size and n not in sizes:
                sizes.append(n)
        return sizes or [min_n]

    def measure(self, params: KernelParams, size: int) -> float:
        """One simulated square-problem measurement, in GFlop/s."""
        return self.measure_shape(params, size, size, size)

    def measure_shape(
        self, params: KernelParams, M: int, N: int, K: int
    ) -> float:
        """One simulated kernel measurement, in GFlop/s; raises what
        :func:`~repro.tuner.parallel.measure_once` raises."""
        return measure_once(
            self.spec, params, M, N, K, noise=self.config.measurement_noise
        )

    def verify(
        self, params: KernelParams, rng: np.random.Generator, attempt: int = 0
    ) -> None:
        """Functionally test one kernel against the reference GEMM.

        Executes the kernel through the full simulator stack (source ->
        program -> buffers -> ND-range) at the smallest launchable size
        and raises :class:`ValidationError` on numerical mismatch.  Under
        fault injection the whole stack sees the engine's injector, so a
        verify can absorb (and the retry loop re-roll) build/launch/
        device-lost faults — ``attempt`` salts every decision because a
        retry re-runs the entire phase, not a single keyed site.
        """
        import repro.clsim as cl
        from repro.codegen.emitter import emit_kernel_source
        from repro.codegen.layouts import pack_matrix
        from repro.gemm.reference import relative_error

        n = self._verify_size(params)
        dtype = np.float64 if params.precision == "d" else np.float32
        a = rng.standard_normal((n, n)).astype(dtype)  # this is A^T (K x M)
        b = rng.standard_normal((n, n)).astype(dtype)
        c = rng.standard_normal((n, n)).astype(dtype)
        alpha, beta = dtype(1.5), dtype(-0.5)

        device = cl.Device(self.spec)
        injector = None
        if self.injector is not None:
            injector = self.injector.salted(f"verify|{attempt}")
        ctx = cl.Context([device], fault_injector=injector)
        queue = cl.CommandQueue(ctx, device, measurement_noise=False)
        if params.use_images:
            # Image kernels read operands as 2-D textures.
            abuf = cl.Image2D(ctx, width=n, height=n, dtype=dtype, hostbuf=a)
            bbuf = cl.Image2D(ctx, width=n, height=n, dtype=dtype, hostbuf=b)
        else:
            a_flat = pack_matrix(a, params.layout_a, params.kwg, params.mwg)
            b_flat = pack_matrix(b, params.layout_b, params.kwg, params.nwg)
            abuf = cl.Buffer(ctx, hostbuf=a_flat)
            bbuf = cl.Buffer(ctx, hostbuf=b_flat)
        cbuf = cl.Buffer(ctx, hostbuf=c.copy())
        program = cl.Program(ctx, emit_kernel_source(params)).build()
        kernel = program.get_kernel("gemm_atb")
        kernel.set_args(n, n, n, float(alpha), float(beta), abuf, bbuf, cbuf)
        queue.launch(kernel, kernel.expected_global_size(), kernel.plan.local_size())
        result = cbuf.read().reshape(n, n)
        reference = alpha * (a.T @ b) + beta * c
        tolerance = 1e-10 if params.precision == "d" else 1e-4
        error = relative_error(result, reference)
        # NaN-corrupted output gives a NaN error, which every ordered
        # comparison lets through: test for "within tolerance", not "over".
        if not (error <= tolerance):
            raise ValidationError(
                f"kernel produced wrong results (relative error {error:.2e}): "
                f"{params.summary()}"
            )

    @staticmethod
    def _verify_size(params: KernelParams) -> int:
        """The smallest launchable square size, which :meth:`verify` runs."""
        return max(params.lcm, params.algorithm.min_k_iterations * params.kwg)

    def _verify_finalist(
        self, params: KernelParams, rng: np.random.Generator
    ) -> bool:
        """Run :meth:`verify` through the tuner's one attempt loop (each
        attempt draws fresh operands from ``rng``) and tally it; True
        when the finalist passed."""
        n = self._verify_size(params)
        outcome = run_attempts(
            EvalTask(params, (n, n, n)),
            lambda attempt: (self.verify(params, rng, attempt), ()),
            self.resilience or SINGLE_SHOT,
        )
        self._tally(
            outcome, reason="exhausted retries during finalist verification"
        )
        return outcome.ok

    # -- batched evaluation with cache layering --------------------------
    def _evaluate_batch(self, tasks: Sequence[EvalTask]) -> List[EvalOutcome]:
        """Evaluate a batch: cache lookups first, workers for the misses.

        Outcomes come back in task order; fresh measurements (successes
        and categorised failures alike) are written back to the cache so
        a warm re-run performs zero re-measurements.
        """
        outcomes: List[Optional[EvalOutcome]] = [None] * len(tasks)
        missing: List[int] = []
        if self.cache is not None:
            noise = self.config.measurement_noise
            for i, task in enumerate(tasks):
                M, N, K = task.shape
                hit = self.cache.get(
                    self.spec.codename, self.precision, task.params, M, N, K, noise
                )
                if hit is not None:
                    self.stats.cache_hits += 1
                    outcomes[i] = EvalOutcome(
                        task.params, task.shape,
                        gflops=hit.gflops, failure=hit.failure, cached=True,
                        build_log=hit.build_log,
                    )
                else:
                    self.stats.cache_misses += 1
                    missing.append(i)
        else:
            missing = list(range(len(tasks)))
        fresh = self._evaluator.evaluate([tasks[i] for i in missing])
        for i, outcome in zip(missing, fresh):
            outcomes[i] = outcome
            if self.cache is not None and self._cacheable(outcome):
                M, N, K = outcome.shape
                self.cache.put(
                    self.spec.codename, self.precision, outcome.params, M, N, K,
                    CachedMeasurement(
                        gflops=outcome.gflops, failure=outcome.failure,
                        build_log=outcome.build_log,
                        # Carrying the full vector turns the cache into
                        # surrogate training data for future runs.
                        params=outcome.params.to_dict(),
                    ),
                    self.config.measurement_noise,
                )
        return outcomes  # type: ignore[return-value]

    @staticmethod
    def _cacheable(outcome: EvalOutcome) -> bool:
        """Whether an outcome is a durable property of the kernel.

        Exhausted-retry/timeout failures and plan-injected failures are
        artifacts of the fault plan, not the kernel — persisting them
        would poison warm runs under a different (or no) plan.
        """
        if outcome.injected:
            return False
        return outcome.failure not in ("transient", "timeout")

    def _tally(self, outcome: EvalOutcome, counted: bool = True,
               reason: Optional[str] = None) -> None:
        """Fold one outcome's retries, faults and failure into the stats.

        A stage-2 sweep point re-measures a candidate already counted, so
        it passes ``counted=False`` to leave the failure categories alone.
        A candidate that exhausted its retry budget is demoted, under
        ``reason`` when given.
        """
        stats = self.stats
        stats.retries += outcome.retries
        for kind in outcome.faults:
            stats.count_fault(kind)
            if kind == "timeout":
                stats.timeouts += 1
        failure = outcome.failure
        if failure is None:
            return
        if counted:  # a timeout is a transient failure that hung
            name = f"failed_{'transient' if failure == 'timeout' else failure}"
            setattr(stats, name, getattr(stats, name) + 1)
        if failure in ("transient", "timeout") and self.quarantine.demote(
            params_digest(outcome.params),
            reason or f"exhausted retries ({failure}: {outcome.faults})",
        ):
            stats.quarantined += 1

    def _allowed(self, params: KernelParams) -> bool:
        # An empty quarantine (no fault plan demoted anything) allows
        # every candidate without hashing it.
        return not len(self.quarantine) or self.quarantine.allows(params_digest(params))

    def _gate_batch(
        self, batch: List[KernelParams]
    ) -> Tuple[List[KernelParams], List[Tuple[KernelParams, str]]]:
        """Split off the candidates the static verifier proves would fail.

        Returns the admitted candidates and the rejected ones with their
        violated rules.  Rejected candidates still count as ``generated``
        (the stream position is what checkpoints record), but are
        tallied under their rule instead of consuming an evaluation.
        """
        if self._verifier is None:
            return batch, []
        admitted: List[KernelParams] = []
        rejected: List[Tuple[KernelParams, str]] = []
        for params in batch:
            rule = self._verifier.gate(params)
            if rule is None:
                admitted.append(params)
            else:
                self.stats.generated += 1
                self.stats.count_static_reject(rule)
                rejected.append((params, rule))
        return admitted, rejected

    def _score(
        self,
        batch: List[KernelParams],
        keep: Callable[[MeasuredKernel], None],
    ) -> Tuple[List[Tuple[KernelParams, str]], List[EvalOutcome]]:
        """Gate, evaluate and tally a batch at base shapes: the one scoring
        loop of stage 1 and refinement.

        ``keep`` gets each measured candidate the quarantine allows, right
        after its tally.  Returns the static rejects with their rules and
        every outcome, in batch order.
        """
        admitted, rejected = self._gate_batch(batch)
        tasks = [EvalTask(p, self.base_shape(p)) for p in admitted]
        outcomes = self._evaluate_batch(tasks)
        for oc in outcomes:
            self.stats.generated += 1
            self._tally(oc)
            if oc.ok:
                self.stats.measured += 1
                if self._allowed(oc.params):
                    keep(MeasuredKernel(oc.params, max(oc.shape), oc.gflops))
        return rejected, outcomes

    # -- checkpointing ---------------------------------------------------
    def _fingerprint(self) -> str:
        """Digest identifying a search: device, precision, config, space,
        and generator version.  A checkpoint only resumes a search with
        the same fingerprint."""
        from repro.codegen.emitter import GENERATOR_VERSION

        payload = json.dumps(
            {
                "device": self.spec.codename,
                "precision": self.precision,
                "config": asdict(self.config),
                "restrictions": asdict(self.restrictions),
                "generator": GENERATOR_VERSION,
                # A checkpoint taken under one fault plan / resilience
                # policy must not resume a search under another.
                "faults": (
                    self.injector.plan.digest()
                    if self.injector is not None else None
                ),
                "resilience": (
                    self.resilience.to_dict()
                    if self.resilience is not None else None
                ),
                # Gated and ungated runs consume the enumeration stream
                # identically but accrue different stats; keep their
                # checkpoints apart.
                "static_gate": self.static_gate,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.blake2b(payload.encode(), digest_size=12).hexdigest()

    def _write_checkpoint(self, stage: str, extra: Dict) -> None:
        if not self.checkpoint_path:
            return
        payload = {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self._fingerprint(),
            "stage": stage,
            "stats": self.stats.as_dict(),
        }
        payload.update(extra)
        # Crash-safe: tmp + fsync + atomic rename + checksum.  A SIGKILL
        # at any instant leaves either the previous checkpoint or the new
        # one — never a torn file.
        dump_json_atomic(self.checkpoint_path, payload)
        self.stats.checkpoints += 1

    def _load_checkpoint(self) -> Optional[Dict]:
        if not (self.resume and self.checkpoint_path):
            return None
        # Truncated / zero-byte / corrupt checkpoints quarantine to
        # ``<path>.corrupt`` and the search restarts from scratch rather
        # than crashing.
        payload = load_json_checked(self.checkpoint_path)
        if payload is None:
            return None
        if payload.get("format") != CHECKPOINT_FORMAT:
            return None
        if payload.get("fingerprint") != self._fingerprint():
            return None  # different search (config/space/generator changed)
        return payload

    def _discard_checkpoint(self) -> None:
        if self.checkpoint_path and os.path.exists(self.checkpoint_path):
            os.remove(self.checkpoint_path)

    def _restore_stats(self, checkpoint: Dict) -> None:
        self.stats = TuningStats.from_dict(checkpoint.get("stats", {}))
        if self.obs.enabled:
            self.stats.bind_registry(self.obs.metrics)

    # ------------------------------------------------------------------
    def _make_strategy(self):
        """Build the configured stage-1 strategy (see
        :mod:`repro.tuner.strategies`), wiring in transfer warm-start
        candidates and warm-cache prior rows."""
        from repro.codegen.space import seed_candidates
        from repro.tuner.strategies import ParamSpace, make_strategy, transfer_seeds

        space = ParamSpace(self.spec, self.precision, self.restrictions)
        name = self.config.strategy
        budget = self.config.budget if self.config.budget is not None else 10**9
        kwargs: Dict = {"seed": self.config.seed, "budget": budget}
        if name == "exhaustive":
            # The extracted enumerative sweep carries its own seed
            # handling (curated seeds stream first); warm-start and
            # prior would be redundant.
            kwargs.update(
                per_blocking=self.config.per_blocking,
                include_seeds=self.config.include_seeds,
            )
        else:
            warm: List[KernelParams] = []
            seen = set()
            if self.config.transfer:
                for p in transfer_seeds(space):
                    if p.cache_key() not in seen:
                        seen.add(p.cache_key())
                        warm.append(p)
            self.stats.strategy_transfer_seeds = len(warm)
            if self.config.include_seeds:
                for p in seed_candidates(self.spec, self.precision):
                    if p.cache_key() not in seen:
                        seen.add(p.cache_key())
                        warm.append(p)
            kwargs["warm_start"] = warm
            if self.cache is not None:
                kwargs["prior"] = self.cache.training_rows(
                    self.spec.codename, self.precision,
                    self.config.measurement_noise,
                )
        strategy = make_strategy(name, space, **kwargs)
        self.stats.strategy = strategy.name
        return strategy

    def _stage1(
        self,
        progress: Optional[Callable[[int, MeasuredKernel], None]],
        checkpoint: Optional[Dict],
    ) -> List[MeasuredKernel]:
        from repro.tuner.strategies.base import Observation

        scored: List[MeasuredKernel] = []
        consumed = 0
        strategy = self._make_strategy()
        if checkpoint is not None:
            self._restore_stats(checkpoint)
            scored = [MeasuredKernel.from_dict(d) for d in checkpoint["scored"]]
            consumed = int(checkpoint["consumed"])
            self.stats.resumed += consumed
            state = checkpoint.get("strategy_state")
            if state is not None:
                strategy.load_state_dict(state)
            else:
                # Pre-strategy checkpoint: only the enumerative stream
                # can reconstruct its position from the count alone.
                strategy.load_state_dict({"proposed": consumed})

        def _flush(stage1_extra: Dict) -> None:
            stage1_extra.update(
                consumed=consumed,
                scored=[mk.to_dict() for mk in scored],
                strategy_state=strategy.state_dict(),
            )
            self._write_checkpoint("stage1", stage1_extra)

        def keep(mk: MeasuredKernel) -> None:
            scored.append(mk)
            if progress is not None:
                progress(self.stats.measured, mk)

        since_checkpoint = 0
        while True:
            batch = strategy.ask(_CHUNK)
            if not batch:
                break
            rejected, outcomes = self._score(batch, keep)
            observations: Dict[Tuple, Observation] = {
                p.cache_key(): Observation(p, failure=f"static:{rule}")
                for p, rule in rejected
            }
            observations.update(
                (oc.params.cache_key(), Observation(oc.params, oc.gflops, oc.failure))
                for oc in outcomes
            )
            strategy.tell([observations[p.cache_key()] for p in batch])
            consumed += len(batch)
            since_checkpoint += len(batch)
            self.stats.strategy_proposals = strategy.proposed
            self.stats.strategy_refits = strategy.refits
            if self.checkpoint_path and since_checkpoint >= self.checkpoint_every:
                _flush({})
                since_checkpoint = 0
            if self.abort_after is not None and consumed >= self.abort_after:
                _flush({})
                raise SearchInterrupted(
                    f"stage-1 search aborted after {consumed} candidates"
                )
        self.stats.strategy_early_stop = strategy.early_stop_reason
        importance = getattr(strategy, "family_importance", None)
        if importance is not None:
            self.stats.strategy_importance = importance()
        # Retroactive exclusion: a candidate quarantined by a later batch
        # must not survive on the strength of an earlier clean score.
        scored = [mk for mk in scored if self._allowed(mk.params)]
        scored.sort(key=lambda mk: mk.gflops, reverse=True)
        return scored[: self.config.top_k]

    def _refine(self, finalists: List[MeasuredKernel]) -> List[MeasuredKernel]:
        """Hill-climb the leading candidates (stage 1.5).

        The climbed variants must still lie inside the configured space
        restrictions, so ablation searches stay honest.  Each round's
        neighbourhood is evaluated as one batch (cache- and
        worker-aware); the round's best improvement becomes the next
        climb point, exactly as in the serial formulation.
        """
        from repro.tuner.refine import admissible_neighbors

        refined: Dict[Tuple, MeasuredKernel] = {
            mk.params.cache_key(): mk for mk in finalists
        }
        for start in finalists[: self.config.refine_top]:
            current = start
            for _ in range(self.config.refine_rounds):
                candidates = [
                    c
                    for c in admissible_neighbors(
                        current.params, self.spec, self.restrictions
                    )
                    if c.cache_key() not in refined
                ]
                kept: List[MeasuredKernel] = []
                self._score(candidates, kept.append)
                self.stats.refined += len(kept)
                refined.update((mk.params.cache_key(), mk) for mk in kept)
                improved = max(kept, key=lambda mk: mk.gflops, default=None)
                if improved is None or improved.gflops <= current.gflops:
                    break
                current = improved
        out = [mk for mk in refined.values() if self._allowed(mk.params)]
        out.sort(key=lambda mk: mk.gflops, reverse=True)
        return out[: self.config.top_k]

    def _finalist_sweep(self, params: KernelParams) -> List[Tuple[int, int, int]]:
        shape = self.config.problem_shape
        if shape is None:
            return [(n, n, n) for n in self.sweep_sizes(params)]
        sweep: List[Tuple[int, int, int]] = []
        for factor in (0.5, 0.75, 1.0, 1.5, 2.0):
            scaled = self._round_shape(
                params, tuple(max(1, int(dim * factor)) for dim in shape)
            )
            if scaled not in sweep:
                sweep.append(scaled)
        return sweep

    def _stage2(
        self,
        finalists: Sequence[MeasuredKernel],
        checkpoint: Optional[Dict],
    ) -> List[Tuple[MeasuredKernel, List[MeasuredKernel]]]:
        #: Per-finalist series, in finalist order (empty list = finalist
        #: failed every sweep point) — the unit of stage-2 checkpointing.
        recorded: List[List[MeasuredKernel]] = []
        if checkpoint is not None:
            recorded = [
                [MeasuredKernel.from_dict(d) for d in series]
                for series in checkpoint["swept"]
            ]
        for mk in finalists[len(recorded):]:
            tasks = [EvalTask(mk.params, s) for s in self._finalist_sweep(mk.params)]
            series = []
            for oc in self._evaluate_batch(tasks):
                self._tally(oc, counted=False)
                if oc.ok:
                    series.append(MeasuredKernel(oc.params, max(oc.shape), oc.gflops))
            recorded.append(series)
            if self.checkpoint_path:
                self._write_checkpoint(
                    "stage2",
                    {
                        "finalists": [f.to_dict() for f in finalists],
                        "swept": [[m.to_dict() for m in s] for s in recorded],
                    },
                )
        # A finalist that started flaking during the sweep is demoted even
        # though its stage-1 score survived — not trusted, not ranked.
        swept = [
            (max(series, key=lambda m: m.gflops), series)
            for series in recorded
            if series and self._allowed(series[0].params)
        ]
        swept.sort(key=lambda pair: pair[0].gflops, reverse=True)
        return swept

    def run(
        self, progress: Optional[Callable[[int, MeasuredKernel], None]] = None
    ) -> TuningResult:
        """Execute the three-stage search and return the winner."""
        t0 = time.perf_counter()
        try:
            return self._run(progress, t0)
        finally:
            self._evaluator.close()

    def _run(
        self, progress: Optional[Callable[[int, MeasuredKernel], None]], t0: float
    ) -> TuningResult:
        with self.obs.trace("tune", device=self.spec.codename,
                            precision=self.precision) as root:
            result = self._run_traced(progress, t0)
            root.set(best_gflops=round(result.best.gflops, 6),
                     finalists=len(result.finalists))
        return result

    def _run_traced(
        self, progress: Optional[Callable[[int, MeasuredKernel], None]], t0: float
    ) -> TuningResult:
        checkpoint = self._load_checkpoint()
        stage = checkpoint["stage"] if checkpoint else None
        stage2_checkpoint: Optional[Dict] = None
        if stage in (None, "stage1"):
            t = time.perf_counter()
            with self.obs.span("tune.stage1") as s1:
                finalists = self._stage1(progress, checkpoint)
                s1.set(finalists=len(finalists),
                       generated=self.stats.generated,
                       cache_hits=self.stats.cache_hits)
            self.stats.stage1_s += time.perf_counter() - t
            if not finalists:
                raise TuningError(
                    f"no viable kernel found for {self.precision}gemm on "
                    f"{self.spec.codename} (stats: {self.stats.as_dict()})"
                )
            if self.config.refine_rounds > 0:
                t = time.perf_counter()
                with self.obs.span("tune.refine") as sr:
                    finalists = self._refine(list(finalists))
                    sr.set(refined=self.stats.refined)
                self.stats.refine_s += time.perf_counter() - t
            self._write_checkpoint(
                "refined", {"finalists": [mk.to_dict() for mk in finalists]}
            )
        else:
            self._restore_stats(checkpoint)
            self.stats.resumed += self.stats.generated
            finalists = [MeasuredKernel.from_dict(d) for d in checkpoint["finalists"]]
            if stage == "stage2":
                stage2_checkpoint = checkpoint

        t = time.perf_counter()
        with self.obs.span("tune.stage2", finalists=len(finalists)):
            swept = self._stage2(finalists, stage2_checkpoint)
        self.stats.stage2_s += time.perf_counter() - t
        if not swept:
            raise TuningError("all finalists failed the size sweep")

        t = time.perf_counter()
        rng = np.random.default_rng(self.config.seed)
        chosen: Optional[Tuple[MeasuredKernel, List[MeasuredKernel]]] = None
        with self.obs.span("tune.verify") as sv:
            for rank, (best_point, series) in enumerate(swept):
                # A finalist that fails, or flakes through the whole retry
                # budget, falls through to the next-ranked one.
                if (rank < self.config.verify_finalists
                        and not self._verify_finalist(best_point.params, rng)):
                    continue
                chosen = (best_point, series)
                sv.set(chosen_rank=rank)
                break
        self.stats.verify_s += time.perf_counter() - t
        if chosen is None:
            raise TuningError("every verified finalist failed numerical testing")

        self.stats.elapsed_s += time.perf_counter() - t0
        self._discard_checkpoint()
        return TuningResult(
            device=self.spec.codename,
            precision=self.precision,
            best=chosen[0],
            finalists=[bp for bp, _ in swept],
            best_series=chosen[1],
            stats=self.stats,
            config=self.config,
        )


def tune(
    device: Union[str, DeviceSpec],
    precision: str,
    config: Optional[TuningConfig] = None,
    restrictions: Optional[SpaceRestrictions] = None,
    progress: Optional[Callable[[int, MeasuredKernel], None]] = None,
    **engine_kwargs,
) -> TuningResult:
    """One-call staged search (see :class:`SearchEngine`).

    Keyword arguments beyond the paper's knobs — ``cache``, ``workers``,
    ``checkpoint_path``, ``resume``, ... — pass through to
    :class:`SearchEngine`.
    """
    return SearchEngine(
        device, precision, config, restrictions, **engine_kwargs
    ).run(progress)
