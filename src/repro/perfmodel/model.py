"""Kernel execution-time estimation.

``estimate_kernel_time`` combines:

* an **ALU term** — ideal FLOP time divided by a product of issue
  efficiencies (vector-width match, unrolling, ILP, register spill,
  stride mode, compiler/ISA ceiling, local-memory staging);
* a **global-memory term** — DRAM traffic over bandwidth, degraded by
  layout coalescing efficiency (:mod:`repro.perfmodel.memory`);
* a **local-memory term** — LDS traffic over LDS bandwidth, largely
  overlapped with ALU work (separate pipe);
* **barrier** and **launch** overheads and wave quantisation.

The terms overlap according to occupancy (how much latency the resident
wavefronts can hide) and the algorithm's structural overlap: the PL and
DB algorithms prefetch global tiles while computing (paper Figs. 5-6),
so they tolerate low occupancy better than BA — at the price of extra
private registers (PL) or doubled local memory (DB), which feed back
into occupancy.  Every qualitative trade-off the paper discusses lives
in this feedback loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import ceil
from typing import Dict, Tuple

from repro.codegen.algorithms import Algorithm
from repro.codegen.params import KernelParams
from repro.devices.specs import DeviceSpec
from repro.errors import LaunchError, ResourceError
from repro.perfmodel.memory import (
    global_traffic_bytes,
    local_traffic_bytes,
    _traffic_efficiency,
)
from repro.perfmodel.occupancy import OccupancyInfo, device_fit

__all__ = [
    "KernelCostBreakdown",
    "alu_efficiency",
    "estimate_kernel_time",
    "estimate_copy_time",
    "estimate_pack_time",
    "estimate_transfer_time",
    "check_resources",
    "check_execution_quirks",
    "pl_dgemm_quirk",
]

# Loop-overhead constant of the unroll model (cycles-equivalent per
# unrolled body): CPU OpenCL runtimes pay more per-iteration overhead.
_UNROLL_OVERHEAD_GPU = 0.06
_UNROLL_OVERHEAD_CPU = 0.25
# Independent accumulators a work-item needs to cover MAD latency.
_ILP_NEED_GPU = 8
_ILP_NEED_CPU = 4
# Structural compute/global-memory overlap of each algorithm.
_STRUCT_OVERLAP = {Algorithm.BA: 0.0, Algorithm.PL: 0.55, Algorithm.DB: 0.45}
# Fraction of LDS time that cannot hide under ALU work (issue slots).
_LDS_EXPOSED = 0.08
# Deterministic measurement-noise amplitude (fraction of total time).
_NOISE_AMPLITUDE = 0.015


@dataclass(frozen=True)
class KernelCostBreakdown:
    """Full decomposition of one modelled kernel execution."""

    t_alu: float
    t_gmem: float
    t_lmem: float
    t_barrier: float
    t_launch: float
    quantization: float
    occupancy: OccupancyInfo
    alu_eff: float
    alu_factors: Dict[str, float]
    mem_eff: float
    total_seconds: float
    flops: float

    @property
    def gflops(self) -> float:
        return self.flops / self.total_seconds / 1e9

    @property
    def bound(self) -> str:
        """Dominant term: 'alu', 'gmem', or 'lmem'."""
        terms = {"alu": self.t_alu, "gmem": self.t_gmem, "lmem": self.t_lmem}
        return max(terms, key=lambda k: terms[k])


def check_resources(spec: DeviceSpec, params: KernelParams) -> OccupancyInfo:
    """Occupancy of a kernel the device builds; else :class:`ResourceError`
    with the first violation of :func:`~repro.perfmodel.occupancy.device_fit`,
    the build rules the static gate reads too."""
    fit = device_fit(spec, params)
    if fit.violations:
        raise ResourceError(fit.violations[0][1])
    return fit.occupancy


def pl_dgemm_quirk(spec: DeviceSpec, params: KernelParams) -> bool:
    """Whether ``spec`` aborts ``params`` at launch (paper Section IV-A:
    "DGEMM kernels with PL algorithm always fail to execute on the
    Bulldozer")."""
    return (spec.model.has_quirk("pl_dgemm_fails")
            and params.algorithm is Algorithm.PL and params.precision == "d")


def check_execution_quirks(spec: DeviceSpec, params: KernelParams) -> None:
    """Raise :class:`LaunchError` when :func:`pl_dgemm_quirk` holds."""
    if pl_dgemm_quirk(spec, params):
        raise LaunchError(
            f"kernel failed to execute on {spec.codename} "
            "(PL double-precision kernels abort on this device)"
        )


def alu_efficiency(
    spec: DeviceSpec, params: KernelParams
) -> Tuple[float, Dict[str, float]]:
    """Issue efficiency in (0, ~1.1] and its multiplicative factors.

    Can exceed 1.0 only through the boost clock, which is applied by the
    caller; the factors here are all <= 1 except the calibration.
    """
    model = spec.model
    prec = params.precision

    pref = model.simd_width_sp if prec == "s" else model.simd_width_dp
    if params.vw == pref:
        vec = 1.0
    elif params.vw < pref:
        exponent = 0.45 if spec.is_cpu else 0.18
        vec = (params.vw / pref) ** exponent
    else:
        vec = (pref / params.vw) ** 0.08

    overhead = _UNROLL_OVERHEAD_CPU if spec.is_cpu else _UNROLL_OVERHEAD_GPU
    unroll = params.kwi / (params.kwi + overhead)

    need = _ILP_NEED_CPU if spec.is_cpu else _ILP_NEED_GPU
    ilp = min(1.0, (params.mwi * params.nwi / need) ** 0.5)

    cap = model.max_private_bytes_per_workitem
    pb = params.private_bytes()
    spill = 1.0 if pb <= cap else (cap / pb) ** 0.8

    sm = model.nonunit_stride_bonus if params.stride.m else model.unit_stride_bonus
    sn = model.nonunit_stride_bonus if params.stride.n else model.unit_stride_bonus
    stride = sm * sn

    # Unstaged operands read straight from global memory in the inner
    # loop; with image objects those reads go through the texture cache
    # (a different cost, better on VLIW GPUs, worse on CPUs).
    unstaged_factor = (
        model.texture_read_factor if params.use_images else model.nolocal_alu_factor
    )
    staging = 1.0
    if not params.shared_a:
        staging *= unstaged_factor
    if not params.shared_b:
        staging *= unstaged_factor

    # Block-major layouts also simplify the generated address arithmetic
    # (contiguous spans -> fewer integer ops per load); ROW operands pay
    # a small issue cost on top of their coalescing penalty.  This keeps
    # block-major kernels fastest on every device (Section IV-A) even
    # where the memory side does not bind (compute-bound CPU kernels).
    # Bounds checks in guarded kernels cost issue slots on every load
    # and merge (the price of skipping the padding pass).
    guard = 0.94 if params.guard_edges else 1.0

    row_cost = 0.96 if spec.is_cpu else 0.99
    layout = 1.0
    if not params.use_images:
        # Image kernels address operands as 2-D textures, so the host
        # layout's address arithmetic never appears in them.
        if not params.layout_a.is_block_major:
            layout *= row_cost
        if not params.layout_b.is_block_major:
            layout *= row_cost

    # Partial wavefronts waste SIMD lanes.
    wf = model.wavefront_size
    wave = params.workgroup_size / (wf * ceil(params.workgroup_size / wf))

    issue = model.compiler_efficiency_sp if prec == "s" else model.compiler_efficiency_dp
    calib = model.calibration_sp if prec == "s" else model.calibration_dp

    factors = {
        "vector": vec,
        "unroll": unroll,
        "ilp": ilp,
        "spill": spill,
        "stride": stride,
        "staging": staging,
        "layout": layout,
        "guard": guard,
        "wavefront": wave,
        "issue": issue,
        "calibration": calib,
    }
    total = 1.0
    for value in factors.values():
        total *= value
    return total, factors


def _deterministic_noise(spec: DeviceSpec, params: KernelParams,
                         M: int, N: int, K: int) -> float:
    """Reproducible multiplicative jitter in [1-amp, 1+amp].

    Real measurements are noisy; the tuner must be robust to that.  The
    jitter is a pure function of (device, params, size) so tuning runs
    and tests are deterministic.
    """
    payload = f"{spec.codename}|{params.cache_key()}|{M}|{N}|{K}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    unit = int.from_bytes(digest, "big") / 2**64  # [0, 1)
    return 1.0 + _NOISE_AMPLITUDE * (2.0 * unit - 1.0)


def estimate_kernel_time(
    spec: DeviceSpec,
    params: KernelParams,
    M: int,
    N: int,
    K: int,
    noise: bool = True,
) -> KernelCostBreakdown:
    """Model the execution time of one kernel launch on a padded problem.

    ``M``, ``N``, ``K`` must already be multiples of the work-group
    blocking factors (the GEMM routine layer pads).  Raises
    :class:`ResourceError` if the kernel cannot be resident on the device.
    """
    occ = check_resources(spec, params)
    model = spec.model
    clock = spec.clock_hz * model.boost_factor
    prec = params.precision

    flops = 2.0 * M * N * K
    peak = spec.peak_gflops(prec) * 1e9 * model.boost_factor
    aeff, factors = alu_efficiency(spec, params)
    t_alu = flops / (peak * aeff)

    traffic = global_traffic_bytes(spec, params, M, N, K)
    meff = _traffic_efficiency(spec, params, traffic, M, N)
    t_gmem = traffic.total / (spec.bandwidth_bytes_per_s * meff)

    lbytes = local_traffic_bytes(params, M, N, K)
    local_bw = model.local_bw_bytes_per_clock_cu * clock * spec.compute_units
    t_lmem = lbytes / local_bw if lbytes else 0.0

    # LDS runs on its own pipe: it hides under ALU work except for the
    # issue slots its loads consume.
    t_compute = max(t_alu, t_lmem) + _LDS_EXPOSED * t_lmem

    q = occ.occupancy if spec.is_gpu else 0.9
    q_eff = min(1.0, q + _STRUCT_OVERLAP[params.algorithm])
    t_body = q_eff * max(t_compute, t_gmem) + (1.0 - q_eff) * (t_compute + t_gmem)

    # Tail quantisation: work-groups are distributed over compute units;
    # the kernel finishes with the most-loaded CU, and trailing CUs sit
    # idle.  (Residency `wg_per_cu` affects latency hiding via `q`, not
    # CU throughput, so it does not appear here.)
    num_wg = -(-M // params.mwg) * -(-N // params.nwg)
    per_cu = ceil(num_wg / spec.compute_units)
    quant = min(3.0, per_cu * spec.compute_units / num_wg) if num_wg else 1.0
    t_body *= quant

    # Barriers: serial per work-group, partially hidden by co-resident
    # work-groups.
    t_barrier = 0.0
    if params.shared_a or params.shared_b:
        iters = -(-K // params.kwg)
        barriers = 2 * iters * num_wg
        relief = 1.0 + 0.5 * (min(occ.workgroups_per_cu, 4) - 1)
        t_barrier = (
            barriers * model.barrier_cost_cycles
            / (clock * spec.compute_units * relief)
        )

    t_launch = model.launch_overhead_us * 1e-6
    total = t_body + t_barrier + t_launch
    if noise:
        total *= _deterministic_noise(spec, params, M, N, K)

    return KernelCostBreakdown(
        t_alu=t_alu,
        t_gmem=t_gmem,
        t_lmem=t_lmem,
        t_barrier=t_barrier,
        t_launch=t_launch,
        quantization=quant,
        occupancy=occ,
        alu_eff=aeff,
        alu_factors=factors,
        mem_eff=meff,
        total_seconds=total,
        flops=flops,
    )


def estimate_pack_time(
    spec: DeviceSpec,
    read_bytes: float,
    write_bytes: float,
    transpose: bool,
    block_major: bool,
) -> float:
    """Time of one generated pack/transpose kernel launch.

    The kernel streams the source once and the (padded) destination
    once; transposition makes one side strided, and block-major
    destinations shuffle writes within blocks.
    """
    efficiency = 0.70
    if transpose:
        efficiency *= 0.85
    if block_major:
        efficiency *= 0.93
    t = (read_bytes + write_bytes) / (spec.bandwidth_bytes_per_s * efficiency)
    return t + spec.model.launch_overhead_us * 1e-6


def estimate_transfer_time(spec: DeviceSpec, bytes_moved: float) -> float:
    """Host<->device transfer time over the interconnect.

    The paper's kernel numbers deliberately exclude this ("the presented
    performance numbers do not take into account data transfer time
    between host and OpenCL device"); the PCIe ablation experiment shows
    what including it would do.
    """
    model = spec.model
    return (
        bytes_moved / (model.pcie_bandwidth_gbs * 1e9)
        + model.pcie_latency_us * 1e-6
    )


def estimate_copy_time(spec: DeviceSpec, bytes_moved: float) -> float:
    """Time for an on-device copy/repack of ``bytes_moved`` payload bytes.

    Packing kernels read and write every element; transposes and layout
    changes cost extra efficiency.  This is the O(N^2) overhead that
    makes the full GEMM implementations slow at small sizes
    (Section IV-B / Fig. 9 discussion).
    """
    copy_efficiency = 0.55  # read+write with transposition
    t = 2.0 * bytes_moved / (spec.bandwidth_bytes_per_s * copy_efficiency)
    return t + spec.model.launch_overhead_us * 1e-6
