"""Heuristic enumeration of the code generator's parameter space.

The paper's search engine measures "tens of thousands of kernel variants
per single GEMM type on an OpenCL device", chosen heuristically
(Section III-F).  This module reproduces that: it enumerates blocking
combinations, attaches a deterministic heuristic sample of the secondary
parameters (vector width, stride, local-memory usage, layouts, algorithm)
to each, and yields only structurally valid :class:`KernelParams`.

It is also the one place that knows the space's values and what a
restriction admits: :data:`STEP_POOLS` and the option tuples beside it
are the pools the enumerator samples, the strategies' encoded space
(:mod:`repro.tuner.strategies.encoding`) indexes and the refiner
(:mod:`repro.tuner.refine`) steps through, and
:meth:`SpaceRestrictions.admits` is the one membership test.

:class:`SpaceRestrictions` can shrink the space to the *previous*
generator of reference [13] (power-of-two blocking only, no staging
reshape, no dual local staging, BA only) for the ablation experiment that
reproduces the paper's claimed improvement (863 vs 848 GFlop/s DGEMM,
3047 vs 2646 SGEMM on Tahiti).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.params import Draft, KernelParams, StrideMode
from repro.codegen.rules import (
    BLOCKING_DIVISIBILITY, STAGING_A, STAGING_B, VALID_VECTOR_WIDTHS, VECTOR_ALIGNMENT,
)
from repro.devices.specs import DeviceSpec, LocalMemType
from repro.errors import ParameterError

__all__ = [
    "STEP_POOLS", "STAGING_WIDTHS", "STRIDES", "SHARED_OPTIONS", "LAYOUT_PAIRS",
    "SpaceRestrictions", "enumerate_space", "space_size_estimate", "seed_candidates",
]


#: The Section-III parameter values, each declared once.  The non-power-
#: of-two entries (48, 96, 24, ...) exist because the improved generator
#: lifted the power-of-two limitation (Section III-F) and the paper's
#: best kernels use them (Table II).  The enumerator, the strategies'
#: encoded space and the refiner's one-step moves all walk these pools.
STEP_POOLS: Mapping[str, Tuple[int, ...]] = MappingProxyType({
    "mwg": (16, 24, 32, 48, 64, 96, 128),
    "nwg": (16, 24, 32, 48, 64, 96, 128),
    "kwg": (8, 16, 24, 32, 48, 64, 96, 192),
    "mdimc": (4, 8, 16, 24, 32),
    "ndimc": (4, 8, 16, 24, 32),
    "kwi": (1, 2, 4, 8, 16, 24),
    "vw": VALID_VECTOR_WIDTHS,
})
#: ``MdimA``/``NdimB`` reshape widths tried beside the default
#: ``MdimC``/``NdimC``.  All are powers of two.
STAGING_WIDTHS = (8, 16, 32, 64)
#: The categorical options, in the order the enumerator's RNG samples
#: their product.  No restriction narrows the strides.
STRIDES = (
    StrideMode(False, False),
    StrideMode(True, False),
    StrideMode(False, True),
    StrideMode(True, True),
)
SHARED_OPTIONS = ((False, False), (False, True), (True, False), (True, True))
LAYOUT_PAIRS = (
    (Layout.ROW, Layout.ROW),
    (Layout.CBL, Layout.CBL),
    (Layout.RBL, Layout.RBL),
    (Layout.CBL, Layout.RBL),
    (Layout.RBL, Layout.CBL),
)
#: The layouts an image or edge-guarded kernel may take (construction's
#: ``param.image-layout`` and ``param.guard-layout`` rules).
FLAGGED_LAYOUTS = ((Layout.ROW, Layout.ROW),)


def _is_pow2(value: int) -> bool:
    return value & (value - 1) == 0


def _flag_options(allow: bool, forced: Optional[bool]) -> Tuple[bool, ...]:
    if forced is not None:
        return (forced,)
    return (False, True) if allow else (False,)


@dataclass(frozen=True)
class SpaceRestrictions:
    """Optional constraints on the enumerated space (for ablations)."""

    power_of_two_only: bool = False
    algorithms: Tuple[Algorithm, ...] = (Algorithm.BA, Algorithm.PL, Algorithm.DB)
    allow_dual_shared: bool = True
    allow_staging_reshape: bool = True
    forced_shared: Optional[Tuple[bool, bool]] = None
    forced_layouts: Optional[Tuple[Layout, Layout]] = None
    #: Include image-object (texture) kernel variants.  Off by default:
    #: the paper's generator "does not use image objects currently"
    #: (Section III-F); the image-path ablation turns this on.
    allow_images: bool = False
    forced_images: Optional[bool] = None
    #: Include edge-guarded (bounds-checked, padding-free) variants.
    allow_guarded: bool = False
    forced_guarded: Optional[bool] = None

    @classmethod
    def previous_generator(cls) -> "SpaceRestrictions":
        """The space of the authors' earlier generator (reference [13]).

        Six blocking parameters (no ``MdimA``/``NdimB`` reshape), each a
        power of two, BA only, and no kernels staging *both* matrices
        through local memory ("the previous generator was incomplete on
        such kernel production", Section III-F).
        """
        return cls(
            power_of_two_only=True,
            algorithms=(Algorithm.BA,),
            allow_dual_shared=False,
            allow_staging_reshape=False,
        )

    def pools(self) -> Mapping[str, Tuple[int, ...]]:
        """:data:`STEP_POOLS`, power-of-two values only when so restricted."""
        if not self.power_of_two_only:
            return STEP_POOLS
        return {name: tuple(v for v in pool if _is_pow2(v))
                for name, pool in STEP_POOLS.items()}

    def staging_widths(self) -> Tuple[int, ...]:
        return STAGING_WIDTHS if self.allow_staging_reshape else ()

    def shared_options(self) -> Tuple[Tuple[bool, bool], ...]:
        if self.forced_shared is not None:
            return (self.forced_shared,)
        return tuple(s for s in SHARED_OPTIONS
                     if self.allow_dual_shared or not (s[0] and s[1]))

    def layout_options(self) -> Tuple[Tuple[Layout, Layout], ...]:
        if self.forced_layouts is not None:
            return (self.forced_layouts,)
        return LAYOUT_PAIRS

    def image_options(self) -> Tuple[bool, ...]:
        return _flag_options(self.allow_images, self.forced_images)

    def guard_options(self) -> Tuple[bool, ...]:
        return _flag_options(self.allow_guarded, self.forced_guarded)

    def admits(self, params: KernelParams) -> bool:
        """Whether a kernel lies inside this (possibly restricted) space:
        the filter for curated seeds, refinement neighbours and the
        strategies' decoded points."""
        if self.power_of_two_only and not all(map(_is_pow2, (
            params.mwg, params.nwg, params.kwg,
            params.mdimc, params.ndimc, params.kwi,
        ))):
            return False
        if params.algorithm not in self.algorithms:
            return False
        if (params.shared_a, params.shared_b) not in self.shared_options():
            return False
        if not self.allow_staging_reshape and (
            params.mdima not in (0, params.mdimc) or params.ndimb not in (0, params.ndimc)
        ):
            return False
        if (self.forced_layouts is not None
                and (params.layout_a, params.layout_b) != self.forced_layouts):
            return False
        return (params.use_images in self.image_options()
                and params.guard_edges in self.guard_options())


def _blocking_pools(restrictions: SpaceRestrictions) -> List[Tuple[int, ...]]:
    """The enumerator's ``mwg nwg kwg mdimc ndimc kwi`` pools: the step
    pools less tile size 24, which only the refiner's one-step moves and
    the encoded strategies reach."""
    pools = dict(restrictions.pools())
    for name in ("mwg", "nwg", "kwg"):
        pools[name] = tuple(v for v in pools[name] if v != 24)
    return [pools[name] for name in ("mwg", "nwg", "kwg", "mdimc", "ndimc", "kwi")]


def _blocking_ok(device: DeviceSpec, blocking: Draft) -> bool:
    """Cheap structural/heuristic filters applied before construction."""
    if any(rule.broken(blocking) for rule in BLOCKING_DIVISIBILITY):
        return False
    wg = blocking.workgroup_size
    if wg > device.model.max_workgroup_size:
        return False
    mwi, nwi = blocking.mwi, blocking.nwi
    if not (1 <= mwi <= 16 and 1 <= nwi <= 16):
        return False
    # Registers for the C accumulators alone must be plausible.
    if mwi * nwi > 96:
        return False
    if device.is_gpu:
        # Sub-wavefront work-groups waste SIMD lanes; never profitable.
        if wg < device.model.wavefront_size // 2:
            return False
    else:
        # CPUs: very large work-groups only add software-barrier overhead.
        if wg > 128:
            return False
    return True


def _secondary_options(restrictions: SpaceRestrictions) -> List[Tuple]:
    """All (vw, stride, shared, layouts, algorithm, images, guard)
    combinations allowed."""
    image_opts = restrictions.image_options()
    guard_opts = restrictions.guard_options()
    out = []
    for vw, stride, shared, layouts, alg in itertools.product(
        restrictions.pools()["vw"], STRIDES, restrictions.shared_options(),
        restrictions.layout_options(), restrictions.algorithms,
    ):
        for use_images in image_opts:
            for guard in guard_opts:
                if (use_images or guard) and layouts not in FLAGGED_LAYOUTS:
                    continue
                out.append((vw, stride, shared, layouts, alg, use_images, guard))
    return out


def _staging_widths(blocking: Draft, side: str, widths: Tuple[int, ...]) -> List[int]:
    """Valid ``MdimA`` (side ``"a"``) or ``NdimB`` (side ``"b"``) values
    for one blocking: the widths no staging rule of that side breaks."""
    name, rules, default = (
        ("mdima", STAGING_A, blocking.mdimc) if side == "a"
        else ("ndimb", STAGING_B, blocking.ndimc)
    )
    out: List[int] = []
    for cand in (default,) + widths:
        if cand in out:
            continue
        setattr(blocking, name, cand)
        if not any(rule.broken(blocking) for rule in rules):
            out.append(cand)
    return out


def _combo_digest(*parts) -> int:
    payload = ",".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def enumerate_space(
    device: DeviceSpec,
    precision: str,
    restrictions: SpaceRestrictions | None = None,
    limit: Optional[int] = None,
    per_blocking: int = 8,
    seed: int = 0,
    include_seeds: bool = True,
) -> Iterator[KernelParams]:
    """Yield valid candidate kernels for one device and precision.

    For every admissible blocking combination, a deterministic
    hash-seeded sample of ``per_blocking`` secondary-parameter
    combinations is attached (the paper's "heuristically chosen"
    variants).  ``limit`` caps the total yield; curated seed candidates
    (known-good shapes) are yielded first unless ``include_seeds`` is
    False.
    """
    restrictions = restrictions or SpaceRestrictions()
    pools = _blocking_pools(restrictions)
    secondary = _secondary_options(restrictions)
    emitted = 0
    seen = set()
    # One draft, re-pointed at each blocking, is what the rules tested
    # before construction read.  Both matrices count as staged in it, so
    # the staging rules apply while a side's widths are drawn.
    blocking = Draft({"shared_a": True, "shared_b": True})
    # _staging_widths by side and the fields its rules read: a few dozen
    # distinct inputs recur across thousands of picks.
    staging: Dict[Tuple, List[int]] = {}

    def _widths(side: str) -> List[int]:
        key = (side, blocking.mwg if side == "a" else blocking.nwg,
               blocking.kwg, blocking.mdimc, blocking.ndimc)
        if key not in staging:
            staging[key] = _staging_widths(
                blocking, side, restrictions.staging_widths()
            )
        return staging[key]

    def _yield(params: KernelParams):
        nonlocal emitted
        key = params.cache_key()
        if key in seen:
            return None
        seen.add(key)
        emitted += 1
        return params

    if include_seeds:
        for params in seed_candidates(device, precision):
            if not restrictions.admits(params):
                continue
            out = _yield(params)
            if out is not None:
                yield out
            if limit is not None and emitted >= limit:
                return

    for combo in itertools.product(*pools):
        mwg, nwg, kwg, mdimc, ndimc, kwi = combo
        (blocking.mwg, blocking.nwg, blocking.kwg,
         blocking.mdimc, blocking.ndimc, blocking.kwi) = combo
        if not _blocking_ok(device, blocking):
            continue
        rng = random.Random(_combo_digest(*combo, seed))
        picks = rng.sample(secondary, k=min(per_blocking, len(secondary)))
        for vw, stride, (sha, shb), (la, lb), alg, use_images, guard in picks:
            mdima_opts = _widths("a") if sha else [0]
            ndimb_opts = _widths("b") if shb else [0]
            if sha and not mdima_opts:
                continue
            if shb and not ndimb_opts:
                continue
            mdima = rng.choice(mdima_opts)
            ndimb = rng.choice(ndimb_opts)
            # Most picks that fail to construct break the vector-width
            # alignment; test it on the integers, after the draws above so
            # the RNG stream is the same either way.
            blocking.vw = vw
            if any(rule.broken(blocking) for rule in VECTOR_ALIGNMENT):
                continue
            try:
                params = KernelParams(
                    precision=precision,
                    mwg=mwg, nwg=nwg, kwg=kwg,
                    mdimc=mdimc, ndimc=ndimc, kwi=kwi, vw=vw,
                    stride=stride, shared_a=sha, shared_b=shb,
                    mdima=mdima if sha else 0, ndimb=ndimb if shb else 0,
                    layout_a=la, layout_b=lb, algorithm=alg,
                    use_images=use_images, guard_edges=guard,
                )
            except ParameterError:
                continue  # "failed in code generation" — not counted
            if params.local_memory_bytes() > device.local_mem_bytes:
                continue
            out = _yield(params)
            if out is not None:
                yield out
            if limit is not None and emitted >= limit:
                return


def space_size_estimate(
    device: DeviceSpec,
    precision: str,
    restrictions: SpaceRestrictions | None = None,
    per_blocking: int = 8,
) -> int:
    """Count the candidates :func:`enumerate_space` would yield (no limit)."""
    return sum(
        1
        for _ in enumerate_space(
            device, precision, restrictions, per_blocking=per_blocking,
            include_seeds=False,
        )
    )


def seed_candidates(device: DeviceSpec, precision: str) -> List[KernelParams]:
    """Curated known-good starting shapes, always fed to the search.

    Real auto-tuners seed their search with configurations that worked on
    related hardware; ours seeds with shapes in the neighbourhood of the
    paper's Table II winners (adapted per device family), which keeps the
    default scaled-down search budgets honest.
    """
    is_cpu = device.local_mem_type is LocalMemType.GLOBAL
    out: List[KernelParams] = []

    def add(**kw) -> None:
        try:
            params = KernelParams(precision=precision, **kw)
        except ParameterError:
            return
        if params.local_memory_bytes() <= device.local_mem_bytes:
            out.append(params)

    if not is_cpu:
        # Tahiti-like winners (Table II, first column).
        if precision == "d":
            add(mwg=96, nwg=32, kwg=48, mdimc=16, ndimc=16, kwi=2, vw=2,
                shared_b=True, ndimb=16,
                layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.BA)
        else:
            add(mwg=96, nwg=96, kwg=16, mdimc=16, ndimc=16, kwi=2, vw=1,
                stride=StrideMode(m=True), shared_a=True, shared_b=True,
                mdima=16, ndimb=16,
                layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.BA)
        # Cayman-like (no local memory, bigger kwi, vectors).
        add(mwg=64, nwg=32, kwg=48, mdimc=16, ndimc=8, kwi=24, vw=2,
            stride=StrideMode(n=True),
            layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.BA)
        add(mwg=128, nwg=64, kwg=96, mdimc=16, ndimc=8, kwi=24, vw=4,
            stride=StrideMode(n=True),
            layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.PL)
        # Kepler/Fermi-like (small kwg, dual local staging, non-unit stride).
        add(mwg=32, nwg=64, kwg=8, mdimc=16, ndimc=16, kwi=4, vw=1,
            stride=StrideMode(n=True), shared_a=True, shared_b=True,
            mdima=32, ndimb=32,
            layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.BA)
        add(mwg=64, nwg=64, kwg=8, mdimc=8, ndimc=16, kwi=8, vw=2,
            stride=StrideMode(m=True), shared_a=True, shared_b=True,
            mdima=32, ndimb=32,
            layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.PL)
        add(mwg=64, nwg=64, kwg=8, mdimc=16, ndimc=16, kwi=2, vw=1,
            stride=StrideMode(n=True), shared_b=True, ndimb=64,
            layout_a=Layout.CBL, layout_b=Layout.RBL, algorithm=Algorithm.PL)
        add(mwg=64, nwg=64, kwg=16, mdimc=8, ndimc=16, kwi=16, vw=2,
            stride=StrideMode(m=True, n=True), shared_a=True, shared_b=True,
            mdima=32, ndimb=16,
            layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.BA)
        # Image-path (texture) seeds: the staged variant and the
        # Nakasato-style cache-streaming variant.  Only admissible when
        # the space allows image kernels.
        if precision == "d":
            add(mwg=64, nwg=32, kwg=48, mdimc=16, ndimc=8, kwi=24, vw=2,
                stride=StrideMode(n=True), use_images=True,
                layout_a=Layout.ROW, layout_b=Layout.ROW, algorithm=Algorithm.BA)
            add(mwg=96, nwg=32, kwg=48, mdimc=16, ndimc=16, kwi=2, vw=2,
                shared_b=True, ndimb=16, use_images=True,
                layout_a=Layout.ROW, layout_b=Layout.ROW, algorithm=Algorithm.BA)
        else:
            add(mwg=96, nwg=96, kwg=16, mdimc=16, ndimc=16, kwi=2, vw=1,
                stride=StrideMode(m=True), shared_a=True, shared_b=True,
                mdima=16, ndimb=16, use_images=True,
                layout_a=Layout.ROW, layout_b=Layout.ROW, algorithm=Algorithm.BA)
            add(mwg=128, nwg=64, kwg=96, mdimc=16, ndimc=8, kwi=24, vw=4,
                stride=StrideMode(n=True), use_images=True,
                layout_a=Layout.ROW, layout_b=Layout.ROW, algorithm=Algorithm.PL)
    else:
        # CPU winners (Table II, last two columns).
        if precision == "d":
            add(mwg=64, nwg=32, kwg=64, mdimc=16, ndimc=4, kwi=4, vw=4,
                shared_b=True, ndimb=4,
                layout_a=Layout.RBL, layout_b=Layout.RBL, algorithm=Algorithm.DB)
            add(mwg=48, nwg=32, kwg=96, mdimc=24, ndimc=4, kwi=16, vw=2,
                stride=StrideMode(m=True), shared_b=True, ndimb=2,
                layout_a=Layout.CBL, layout_b=Layout.RBL, algorithm=Algorithm.DB)
        else:
            add(mwg=64, nwg=64, kwg=64, mdimc=8, ndimc=8, kwi=8, vw=8,
                stride=StrideMode(m=True),
                layout_a=Layout.RBL, layout_b=Layout.RBL, algorithm=Algorithm.BA)
            add(mwg=32, nwg=48, kwg=192, mdimc=8, ndimc=4, kwi=4, vw=4,
                stride=StrideMode(m=True),
                layout_a=Layout.CBL, layout_b=Layout.CBL, algorithm=Algorithm.BA)
    return out
