"""Global- and local-memory traffic and efficiency models.

Traffic follows from the blocked algorithm's structure (paper Fig. 1):
each work-group iteration reads one ``Kwg x Mwg`` tile of ``A^T`` and one
``Kwg x Nwg`` tile of ``B`` from global memory.  With local-memory
staging every element is read exactly once per work-group.  Without it,
each element is requested once per hardware wavefront that consumes it
(same-address reads within a wavefront are broadcast by the hardware);
those redundant wavefront fetches are temporally clustered, so the cache
hierarchy absorbs most — but not all — of them.

Access *efficiency* models coalescing: the block-major layouts (CBL/RBL)
present each needed span contiguously, while ROW-major tiles straddle
large strides and — at leading dimensions that are multiples of 2048 —
collide on memory banks/channels, which the paper observes as drastic
slowdowns (Section IV-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.codegen.layouts import Layout
from repro.codegen.params import KernelParams
from repro.devices.specs import DeviceSpec

__all__ = [
    "MemoryTraffic",
    "global_traffic_bytes",
    "local_traffic_bytes",
    "memory_efficiency",
    "BANK_CONFLICT_STRIDE",
]

#: Leading-dimension periodicity (in elements) that collides on memory
#: banks/channels for row-major accesses (paper: "the performance for
#: some problem sizes (such as multiples of 2048) is drastically
#: deteriorated because of memory bank conflicts").
BANK_CONFLICT_STRIDE = 2048

#: Fraction of temporally-clustered redundant fetches served by caches.
_CLUSTER_HIT_GPU = 0.90
_CLUSTER_HIT_CPU = 0.95


@dataclass(frozen=True)
class MemoryTraffic:
    """DRAM traffic decomposition for one kernel execution."""

    bytes_a: float
    bytes_b: float
    bytes_c: float

    @property
    def total(self) -> float:
        return self.bytes_a + self.bytes_b + self.bytes_c


def _cluster_hit(spec: DeviceSpec, params: KernelParams) -> float:
    """Cache hit rate on redundant (clustered) re-fetches, mildly reduced
    when the active tile strip overflows the effective cache."""
    base = _CLUSTER_HIT_CPU if spec.is_cpu else _CLUSTER_HIT_GPU
    strip_bytes = (params.mwg + params.nwg) * params.kwg * params.element_size
    cache_bytes = spec.model.cache_effective_kb * 1024.0
    return base * min(1.0, (cache_bytes / max(strip_bytes, 1.0)) ** 0.1)


def _unstaged_redundancy(spec: DeviceSpec, params: KernelParams, matrix: str) -> float:
    """Redundant global fetches per element when a matrix is unstaged.

    An ``A`` element is consumed by one M-lane across all ``NdimC``
    N-lanes; with work-items linearised M-fastest those consumers spread
    over every wavefront of the work-group.  A ``B`` element's consumers
    (all M-lanes of one N-lane) are contiguous and mostly within a single
    wavefront, where the hardware broadcasts the read.
    """
    if spec.is_cpu:
        return 1.0  # sequential software work-items; L1 reuse is perfect
    wf = spec.model.wavefront_size
    if matrix == "a":
        return max(1.0, params.workgroup_size / wf)
    return max(1.0, params.mdimc / wf)


def global_traffic_bytes(
    spec: DeviceSpec, params: KernelParams, M: int, N: int, K: int
) -> MemoryTraffic:
    """DRAM bytes moved by one kernel execution on a padded problem."""
    esize = params.element_size
    tiles_c = -(-M // params.mwg) * -(-N // params.nwg)
    iters = -(-K // params.kwg)
    ideal_a = params.mwg * params.kwg * esize  # per work-group iteration
    ideal_b = params.nwg * params.kwg * esize

    hit = _cluster_hit(spec, params)

    def factor(matrix: str, shared: bool) -> float:
        if shared:
            return 1.0
        redundancy = _unstaged_redundancy(spec, params, matrix)
        return 1.0 + (redundancy - 1.0) * (1.0 - hit)

    bytes_a = tiles_c * iters * ideal_a * factor("a", params.shared_a)
    bytes_b = tiles_c * iters * ideal_b * factor("b", params.shared_b)
    # C: one read (for beta) + one write per element.
    bytes_c = 2.0 * M * N * esize
    return MemoryTraffic(bytes_a, bytes_b, bytes_c)


def local_traffic_bytes(params: KernelParams, M: int, N: int, K: int) -> float:
    """Local-memory bytes moved (reads + writes) by one kernel execution."""
    esize = params.element_size
    tiles_c = -(-M // params.mwg) * -(-N // params.nwg)
    iters = -(-K // params.kwg)
    per_iter = 0.0
    if params.shared_a:
        per_iter += params.mwg * params.kwg  # cooperative writes
        per_iter += params.mwg * params.ndimc * params.kwg  # reads by N lanes
    if params.shared_b:
        per_iter += params.nwg * params.kwg
        per_iter += params.nwg * params.mdimc * params.kwg
    return tiles_c * iters * per_iter * esize


def _layout_efficiency(
    spec: DeviceSpec, layout: Layout, tile_width: int, esize: int, leading_dim: int
) -> float:
    """Coalescing efficiency of reading one operand stored in ``layout``."""
    model = spec.model
    if layout.is_block_major:
        return 1.0
    # ROW: each tile row is a contiguous span of `tile_width` elements at
    # a large stride.  Short spans waste transaction granularity...
    span = tile_width * esize
    granule = model.coalesce_bytes
    eff = span / (granule * math.ceil(span / granule))
    eff = min(1.0, max(0.35, eff))
    # ...and GPUs additionally lose to DRAM page/channel thrash on the
    # long stride; CPU prefetchers hide most of it.
    eff *= 0.78 if spec.is_gpu else 0.95
    # Bank/channel conflicts at pathological leading dimensions.
    if leading_dim % BANK_CONFLICT_STRIDE == 0:
        eff *= 0.30
    return eff


#: Coalescing efficiency of texture fetches: the texture unit's 2-D
#: tiling recovers most locality regardless of host layout, and texture
#: addressing is immune to the row-major bank-conflict pathology.
_IMAGE_READ_EFFICIENCY = 0.95


def memory_efficiency(
    spec: DeviceSpec, params: KernelParams, M: int, N: int, K: int
) -> float:
    """Aggregate DRAM access efficiency (0..1] weighted by operand traffic."""
    return _traffic_efficiency(
        spec, params, global_traffic_bytes(spec, params, M, N, K), M, N
    )


def _traffic_efficiency(
    spec: DeviceSpec, params: KernelParams, traffic: MemoryTraffic, M: int, N: int
) -> float:
    """:func:`memory_efficiency` of an already computed ``traffic``."""
    esize = params.element_size
    if params.use_images:
        eff_a = eff_b = _IMAGE_READ_EFFICIENCY
    else:
        eff_a = _layout_efficiency(spec, params.layout_a, params.mwg, esize, M)
        eff_b = _layout_efficiency(spec, params.layout_b, params.nwg, esize, N)
    eff_c = 1.0  # C is written once per tile row, fully coalesced
    total = traffic.total
    if total <= 0:
        return 1.0
    return (
        traffic.bytes_a * eff_a + traffic.bytes_b * eff_b + traffic.bytes_c * eff_c
    ) / total
