"""Local refinement of promising kernels (hill climbing).

The paper's search is a pure sample-and-rank over a heuristic space.
Real auto-tuners (ATLAS, CLBlast) follow the global sample with a local
search around the leaders: vary one parameter at a time and keep
improvements.  This module generates the one-step neighbourhood of a
kernel parameter vector; :class:`~repro.tuner.search.SearchEngine` runs
the climb between its stage 1 and stage 2 when
``TuningConfig.refine_rounds > 0``.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.params import KernelParams, StrideMode
from repro.codegen.space import (
    SHARED_OPTIONS, STAGING_WIDTHS, STEP_POOLS, SpaceRestrictions,
)
from repro.devices.specs import DeviceSpec
from repro.errors import ParameterError

__all__ = ["neighbors", "admissible_neighbors"]


def _adjacent(pool, value) -> List[int]:
    """Pool entries adjacent to ``value`` (plus the nearest if absent)."""
    ordered = sorted(set(pool) | {value})
    i = ordered.index(value)
    out = []
    if i > 0:
        out.append(ordered[i - 1])
    if i + 1 < len(ordered):
        out.append(ordered[i + 1])
    return out


def admissible_neighbors(
    params: KernelParams,
    device: DeviceSpec,
    restrictions: SpaceRestrictions | None = None,
) -> List[KernelParams]:
    """The one-step neighbourhood, filtered to a restricted space.

    This is the climb candidate list the search engine evaluates as one
    batch: :func:`neighbors` output (already deduplicated and
    device-feasible) minus any variant that falls outside the configured
    :class:`SpaceRestrictions`, so ablation searches cannot escape their
    ablated space through the refinement stage.
    """
    restrictions = restrictions or SpaceRestrictions()
    return [
        candidate
        for candidate in neighbors(params, device)
        if restrictions.admits(candidate)
    ]


def neighbors(params: KernelParams, device: DeviceSpec) -> Iterator[KernelParams]:
    """Yield valid one-parameter variations of ``params``.

    Invalid combinations (divisibility, staging coverage, local-memory
    capacity) are silently skipped — they are the same "failed in code
    generation" candidates the main search discards.
    """
    seen = {params.cache_key()}

    def attempt(**changes) -> Iterator[KernelParams]:
        try:
            candidate = params.replace(**changes)
        except ParameterError:
            return
        if candidate.cache_key() in seen:
            return
        if candidate.local_memory_bytes() > device.local_mem_bytes:
            return
        seen.add(candidate.cache_key())
        yield candidate

    # Blocking factors, work-group shape and vector width: one step
    # along each axis.
    for name, pool in STEP_POOLS.items():
        for value in _adjacent(pool, getattr(params, name)):
            yield from attempt(**{name: value})

    # Stride toggles.
    yield from attempt(stride=StrideMode(m=not params.stride.m, n=params.stride.n))
    yield from attempt(stride=StrideMode(m=params.stride.m, n=not params.stride.n))

    # Local-memory staging combinations.
    for sha, shb in SHARED_OPTIONS:
        if (sha, shb) != (params.shared_a, params.shared_b):
            yield from attempt(shared_a=sha, shared_b=shb, mdima=0, ndimb=0)

    # Staging reshape widths.
    if params.shared_a:
        for mdima in STAGING_WIDTHS:
            yield from attempt(mdima=mdima)
    if params.shared_b:
        for ndimb in STAGING_WIDTHS:
            yield from attempt(ndimb=ndimb)

    # Layouts (only for buffer kernels; image kernels are pinned to ROW).
    if not params.use_images:
        for layout in Layout:
            yield from attempt(layout_a=layout)
            yield from attempt(layout_b=layout)

    # Algorithm.
    for algorithm in Algorithm:
        if algorithm is not params.algorithm:
            yield from attempt(algorithm=algorithm)
