"""Data-parallel GEMM across several simulated devices (extension).

OpenCL's portability makes heterogeneous fleets natural (the paper's
Table I machine hosts GPUs *and* CPUs); this module splits one GEMM's N
dimension across devices, proportionally to each device's tuned
throughput, runs the slices on per-device routines, and models the wall
time as the slowest device plus the PCIe distribution/collection.

Functionally exact: the concatenated slices equal the single-device
result.

Under fault injection the fleet is *resilient*: a device that raises
:class:`~repro.errors.DeviceLostError` mid-batch is dropped and its
columns (plus everything not yet computed) are re-partitioned over the
surviving devices by their tuned-throughput weights.  When the entire
fleet is lost the remaining columns fall back to the host reference
GEMM, so the call still returns numerically exact results.  The result
names each lost device and its columns (:attr:`MultiDeviceResult.lost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen.params import KernelParams
from repro.devices.catalog import get_device_spec
from repro.devices.specs import DeviceSpec
from repro.errors import DeviceLostError, ReproError
from repro.gemm.reference import reference_gemm
from repro.gemm.routine import GemmRoutine
from repro.obs import NULL_OBS, bridge_queue
from repro.perfmodel.model import estimate_kernel_time, estimate_transfer_time
from repro.tuner.pretuned import pretuned_params

__all__ = ["DeviceShare", "MultiDeviceResult", "MultiDeviceGemm"]


@dataclass(frozen=True)
class DeviceShare:
    """One device's slice of the batch: columns owned and timings."""

    device: str
    columns: Tuple[int, int]  # [start, stop) of N owned by this device
    compute_seconds: float
    transfer_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.transfer_seconds

    @property
    def width(self) -> int:
        return self.columns[1] - self.columns[0]


@dataclass(frozen=True)
class MultiDeviceResult:
    """Combined result of one multi-device GEMM."""

    c: np.ndarray
    shares: Tuple[DeviceShare, ...]
    M: int
    N: int
    K: int
    #: ``(device, start, stop)`` per device dropped mid-batch
    #: (DeviceLostError), in loss order: the columns it was running when
    #: lost, re-partitioned over the survivors or the host reference path.
    lost: Tuple[Tuple[str, int, int], ...] = ()

    @property
    def lost_devices(self) -> Tuple[str, ...]:
        """The devices dropped mid-batch, in loss order."""
        return tuple(device for device, _, _ in self.lost)

    @property
    def flops(self) -> float:
        return 2.0 * self.M * self.N * self.K

    @property
    def wall_seconds(self) -> float:
        """Devices run concurrently: wall time is the slowest share."""
        return max((share.total_seconds for share in self.shares), default=0.0)

    @property
    def effective_gflops(self) -> float:
        return self.flops / self.wall_seconds / 1e9

    def share_of(self, device: str) -> DeviceShare:
        for share in self.shares:
            if share.device == device:
                return share
        raise KeyError(f"device {device!r} has no share in this result")


class MultiDeviceGemm:
    """Splits GEMMs across a fleet of simulated devices."""

    def __init__(
        self,
        devices: Sequence[Union[str, DeviceSpec]],
        precision: str = "d",
        params: Optional[Dict[str, KernelParams]] = None,
        fault_injector: Optional["object"] = None,
        obs=None,
        **routine_kwargs,
    ):
        if not devices:
            raise ReproError("MultiDeviceGemm needs at least one device")
        #: Telemetry (see :mod:`repro.obs`): one ``multidev.gemm`` span
        #: per call with per-device partition child spans.  Disabled by
        #: default.
        self.obs = obs if obs is not None else NULL_OBS
        self.specs: List[DeviceSpec] = [
            d if isinstance(d, DeviceSpec) else get_device_spec(d) for d in devices
        ]
        if len({s.codename for s in self.specs}) != len(self.specs):
            raise ReproError("duplicate devices in the fleet")
        self.precision = precision
        #: Output element type is fixed by precision at construction so a
        #: later ``retire_device`` down to an empty fleet (host-reference
        #: fallback) still knows what to allocate.
        self.dtype = np.dtype(np.float32 if precision == "s" else np.float64)
        self.fault_injector = fault_injector
        self._routine_kwargs = dict(routine_kwargs)
        self.routines: Dict[str, GemmRoutine] = {}
        self._weights: Dict[str, float] = {}
        for spec in self.specs:
            self._build_member(spec, (params or {}).get(spec.codename))
        self._lost_counter = (
            self.obs.counter(
                "multidev_device_lost_total",
                "Devices dropped mid-batch (DeviceLostError), per device.",
                labelnames=("device",),
            )
            if self.obs.enabled else None
        )

    def _build_member(
        self, spec: DeviceSpec, params: Optional[KernelParams] = None
    ) -> None:
        """Create the routine and load-balancing weight for one device."""
        p = params or pretuned_params(spec.codename, self.precision)
        self.routines[spec.codename] = GemmRoutine(
            spec, p, fault_injector=self.fault_injector, **self._routine_kwargs
        )
        # Load-balancing weight: tuned throughput at the base size.
        base = 4096 if spec.is_gpu else 1536
        n = max(p.lcm, (base // p.lcm) * p.lcm)
        self._weights[spec.codename] = estimate_kernel_time(
            spec, p, n, n, n, noise=False
        ).gflops

    @property
    def weights(self) -> Dict[str, float]:
        """Tuned-throughput weights the column split follows."""
        return dict(self._weights)

    def admit_device(
        self,
        device: Union[str, DeviceSpec],
        params: Optional[KernelParams] = None,
    ) -> DeviceSpec:
        """Add a device to the fleet; later calls re-partition over it.

        The new member's column share follows the same tuned-throughput
        weight rule as construction.  Raises :class:`ReproError` if the
        device is already a member.
        """
        spec = device if isinstance(device, DeviceSpec) else get_device_spec(device)
        if any(s.codename == spec.codename for s in self.specs):
            raise ReproError(f"device {spec.codename!r} already in the fleet")
        self._build_member(spec, params)
        self.specs.append(spec)
        return spec

    def retire_device(self, device: str) -> None:
        """Remove a device; its share is re-normalised over the rest.

        Retiring the last member is allowed — calls then serve entirely
        through the host-reference fallback.  Raises :class:`KeyError`
        if the device is not a member.
        """
        if not any(s.codename == device for s in self.specs):
            raise KeyError(
                f"device {device!r} not in the fleet: "
                f"{[s.codename for s in self.specs]}"
            )
        self.specs = [s for s in self.specs if s.codename != device]
        del self.routines[device]
        del self._weights[device]

    def replace_device(self, device: str, params: KernelParams) -> None:
        """Rebuild a member's routine and weight around ``params``, in
        its place in the column split (a no-op when it already runs
        them).  Raises :class:`KeyError` if the device is not a member."""
        if self.routines[device].params != params:
            self._build_member(self.routines[device].device.spec, params)

    def partition(self, N: int) -> List[Tuple[str, int, int]]:
        """Split the N columns proportionally to device throughput."""
        return self._partition_specs(self.specs, 0, N)

    def _partition_specs(
        self, specs: Sequence[DeviceSpec], start: int, stop: int
    ) -> List[Tuple[str, int, int]]:
        """Split the ``[start, stop)`` column range over ``specs`` by
        weight — the full fleet initially, the survivors on rebalance."""
        total = sum(self._weights[s.codename] for s in specs)
        width = stop - start
        bounds: List[Tuple[str, int, int]] = []
        cursor = start
        for i, spec in enumerate(specs):
            if i == len(specs) - 1:
                end = stop
            else:
                end = cursor + int(
                    round(width * self._weights[spec.codename] / total)
                )
                end = min(max(end, cursor), stop)
            bounds.append((spec.codename, cursor, end))
            cursor = end
        return bounds

    def __call__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
    ) -> MultiDeviceResult:
        """``alpha A B + beta C`` split by columns of B/C (NN only)."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ReproError(
                f"incompatible operands for NN GEMM: {a.shape} x {b.shape}"
            )
        M, K = a.shape
        N = b.shape[1]
        if beta != 0.0 and c is None:
            raise ReproError("beta != 0 requires a C operand")

        out = np.empty((M, N), dtype=self.dtype)
        shares: List[DeviceShare] = []
        lost: List[Tuple[str, int, int]] = []
        esize = out.dtype.itemsize
        active: List[DeviceSpec] = list(self.specs)
        with self.obs.span("multidev.gemm", M=M, N=N, K=K,
                           fleet=len(self.specs)) as root:
            #: Column ranges not yet computed; grows when a device is lost.
            remaining: List[Tuple[int, int]] = [(0, N)]
            while remaining and active:
                segments, remaining = remaining, []
                for seg_start, seg_stop in segments:
                    for device, start, stop in self._partition_specs(
                        active, seg_start, seg_stop
                    ):
                        if stop == start:
                            shares.append(
                                DeviceShare(device, (start, stop), 0.0, 0.0)
                            )
                            continue
                        try:
                            shares.append(
                                self._run_slice(
                                    device, a, b, c, alpha, beta, start, stop,
                                    out, M, K, esize,
                                )
                            )
                        except DeviceLostError:
                            # Drop the device; its columns rejoin the queue
                            # and are re-partitioned over the survivors by
                            # weight.
                            lost.append((device, start, stop))
                            root.event("device_lost", device=device,
                                       columns=f"{start}:{stop}")
                            if self._lost_counter is not None:
                                self._lost_counter.labels(device=device).inc()
                            active = [s for s in active if s.codename != device]
                            remaining.append((start, stop))
            for start, stop in remaining:
                # The whole fleet is gone: exact but unaccelerated host path.
                with self.obs.span("host.fallback", columns=f"{start}:{stop}"):
                    c_slice = c[:, start:stop] if c is not None else None
                    out[:, start:stop] = reference_gemm(
                        "N", "N", alpha, a, b[:, start:stop], beta, c_slice
                    )
            if lost:
                root.set(lost_devices=",".join(d for d, _, _ in lost))
        return MultiDeviceResult(out, tuple(shares), M, N, K, lost=tuple(lost))

    def _run_slice(
        self,
        device: str,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray],
        alpha: float,
        beta: float,
        start: int,
        stop: int,
        out: np.ndarray,
        M: int,
        K: int,
        esize: int,
    ) -> DeviceShare:
        routine = self.routines[device]
        b_slice = np.ascontiguousarray(b[:, start:stop])
        c_slice = (
            np.ascontiguousarray(c[:, start:stop]) if c is not None else None
        )
        with self.obs.span(f"partition:{device}",
                           columns=f"{start}:{stop}") as span:
            with bridge_queue(self.obs, routine.queue):
                result = routine(a, b_slice, c_slice, alpha=alpha, beta=beta)
            out[:, start:stop] = result.c
            # Distribution: full A + the B slice in; collection: C slice out.
            spec = routine.device.spec
            xfer = estimate_transfer_time(
                spec, float((M * K + K * (stop - start)) * esize)
            ) + estimate_transfer_time(spec, float(M * (stop - start) * esize))
            span.set(compute_s=round(result.timings.total_s, 9),
                     transfer_s=round(xfer, 9))
        return DeviceShare(device, (start, stop), result.timings.total_s, xfer)

    def describe(self) -> str:
        lines = [f"fleet of {len(self.specs)} devices "
                 f"({'SGEMM' if self.precision == 's' else 'DGEMM'}):"]
        total = sum(self._weights.values())
        for spec in self.specs:
            w = self._weights[spec.codename]
            lines.append(
                f"  {spec.codename:12s} weight {w:8.1f} GFlop/s "
                f"({w / total:.0%} of columns)"
            )
        return "\n".join(lines)
