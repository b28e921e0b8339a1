"""Work-group occupancy model.

On GPUs the number of work-groups concurrently resident on a compute unit
is limited by the register file, the local-memory capacity and a
scheduler cap; the resulting number of in-flight wavefronts determines
how well memory latency can be hidden ("If the number of work-groups is
not enough, processors cannot hide memory access latencies" — paper
Section III-E, discussing why DB can beat PL).

On CPUs work-items of a work-group are executed as software loops by one
core, so residency is not register-limited; register pressure instead
shows up as spill cost, which :mod:`repro.perfmodel.model` charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.codegen.params import FIT_SLOT, KernelParams
from repro.devices.specs import DeviceSpec

__all__ = ["DeviceFit", "OccupancyInfo", "compute_occupancy", "device_fit"]


@dataclass(frozen=True)
class OccupancyInfo:
    """Residency and latency-hiding summary for one kernel on one device."""

    workgroups_per_cu: int
    waves_per_cu: float
    #: 0..1: fraction of the latency-hiding requirement satisfied.
    occupancy: float
    #: Which resource bound residency: 'registers', 'local_memory',
    #: 'scheduler', or 'n/a' (CPU).
    limited_by: str

    @property
    def resident(self) -> bool:
        """Whether at least one work-group fits on a compute unit."""
        return self.workgroups_per_cu >= 1


def compute_occupancy(spec: DeviceSpec, params: KernelParams) -> OccupancyInfo:
    """Residency of ``params``'s work-groups on ``spec``'s compute units.

    Returns ``workgroups_per_cu == 0`` when the kernel cannot be resident
    at all (local memory or register file exceeded); :func:`device_fit`
    records that as its ``device.occupancy`` violation.
    """
    model = spec.model
    wg_size = params.workgroup_size

    if spec.is_cpu:
        # One work-group per core at a time; work-items are a software
        # loop, so there is no latency-hiding requirement to satisfy.
        lmem = params.local_memory_bytes()
        if lmem > spec.local_mem_bytes:
            return OccupancyInfo(0, 0.0, 0.0, "local_memory")
        return OccupancyInfo(model.max_workgroups_per_cu, float(wg_size), 1.0, "n/a")

    limits = {"scheduler": model.max_workgroups_per_cu}

    lmem = params.local_memory_bytes()
    if lmem > 0:
        limits["local_memory"] = spec.local_mem_bytes // lmem

    wg_register_bytes = params.private_bytes() * wg_size
    limits["registers"] = spec.registers_per_cu_bytes // wg_register_bytes

    limited_by = min(limits, key=lambda k: limits[k])
    wg_per_cu = max(0, limits[limited_by])
    waves = wg_per_cu * wg_size / model.wavefront_size
    occupancy = min(1.0, waves / model.latency_hiding_occupancy)
    return OccupancyInfo(int(wg_per_cu), waves, occupancy, limited_by)


@dataclass(frozen=True)
class DeviceFit:
    """One kernel's build verdict and residency on one device."""

    #: Broken build rules in check order, as ``(rule id, message, witness)``.
    violations: Tuple[Tuple[str, str, Dict[str, object]], ...]
    occupancy: OccupancyInfo


def device_fit(spec: DeviceSpec, params: KernelParams) -> DeviceFit:
    """The device build rules for ``params`` on ``spec``, proved once.

    An OpenCL compiler/driver rejects a work-group over the device limit,
    local memory over capacity, a private footprint over twice the
    per-work-item cap, and a kernel of which no work-group fits on a
    compute unit.  The fit is kept on the candidate for the spec object
    it was proved on (identity, not equality), so a what-if variant of
    the device is proved afresh.
    """
    held = params.__dict__.get(FIT_SLOT)
    if held is not None and held[0] is spec:
        return held[1]
    out = []
    wg, wg_cap = params.workgroup_size, spec.model.max_workgroup_size
    if wg > wg_cap:
        out.append(("device.workgroup-size",
                    f"work-group size {wg} exceeds device limit {wg_cap} on {spec.codename}",
                    {"workgroup_size": wg, "limit": wg_cap,
                     "mdimc": params.mdimc, "ndimc": params.ndimc}))
    lmem, lmem_cap = params.local_memory_bytes(), spec.local_mem_bytes
    if lmem > lmem_cap:
        out.append(("device.local-memory",
                    f"kernel needs {lmem} B of local memory; {spec.codename} has {lmem_cap} B",
                    {"required_bytes": lmem, "limit_bytes": lmem_cap,
                     "copies": params.algorithm.local_buffer_copies}))
    pbytes, cap = params.private_bytes(), spec.model.max_private_bytes_per_workitem
    if pbytes > 2 * cap:
        out.append(("device.private-memory",
                    f"private footprint {pbytes} B exceeds twice the register "
                    f"cap ({cap} B/work-item) on {spec.codename}",
                    {"required_bytes": pbytes, "limit_bytes": 2 * cap,
                     "private_elements": params.private_elements()}))
    occ = compute_occupancy(spec, params)
    if not occ.resident:
        out.append(("device.occupancy",
                    f"no work-group of this kernel fits on a {spec.codename} "
                    f"compute unit (limited by {occ.limited_by})",
                    {"limited_by": occ.limited_by,
                     "workgroups_per_cu": occ.workgroups_per_cu}))
    fit = DeviceFit(tuple(out), occ)
    params.__dict__[FIT_SLOT] = (spec, fit)
    return fit
