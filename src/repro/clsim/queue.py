"""Command queues, events and enqueue operations.

The queue executes in order and immediately (a blocking in-order queue).
Kernel launches run the plan functionally (:mod:`repro.clsim.executor`)
and record *simulated* timestamps from the performance model — profiling
an event therefore reports the time the kernel would have taken on the
real device, which is what the auto-tuner measures.

Execution modes
---------------
``WORKGROUP``   faithful per-work-group execution (default for problems
                up to ``workgroup_mode_limit`` multiply-add operations);
``FAST``        whole-matrix numpy execution (identical results, used
                for large benchmark sizes);
``TIMING_ONLY`` skip the numerics entirely and only charge model time —
                the tuner's stage-1 sweep over thousands of candidates
                uses this, then functionally verifies the finalists,
                mirroring how a real tuner trusts the device to compute
                and only checks the winners.
``AUTO``        pick WORKGROUP or FAST by problem size.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.clsim.context import Context
from repro.clsim.device import Device
from repro.clsim.executor import ExecutionArrays, execute_plan
from repro.clsim.kernel import Kernel
from repro.clsim.memory import Buffer, Hold
from repro.errors import CLError, LaunchError
from repro.perfmodel.model import (
    check_execution_quirks,
    estimate_copy_time,
    estimate_kernel_time,
    estimate_transfer_time,
)

__all__ = [
    "ExecutionMode",
    "EventProfile",
    "Event",
    "CommandQueue",
    "enqueue_nd_range_kernel",
    "enqueue_copy",
]


class ExecutionMode(enum.Enum):
    AUTO = "auto"
    WORKGROUP = "workgroup"
    FAST = "fast"
    TIMING_ONLY = "timing_only"


@dataclass(frozen=True)
class EventProfile:
    """``CL_PROFILING_COMMAND_*`` timestamps in simulated nanoseconds."""

    queued: int
    submit: int
    start: int
    end: int

    @property
    def duration(self) -> int:
        """Kernel execution time in simulated nanoseconds."""
        return self.end - self.start


class Event:
    """A command event (``cl_event`` analogue)."""

    def __init__(self, command: str, profile: EventProfile, breakdown=None):
        self.command = command
        self._profile = profile
        #: Optional :class:`KernelCostBreakdown` for kernel events.
        self.breakdown = breakdown
        self._complete = True  # in-order blocking queue: done on return

    def wait(self) -> None:
        """Block until the command completes (no-op: queue is blocking)."""

    @property
    def profile(self) -> EventProfile:
        return self._profile

    @property
    def is_complete(self) -> bool:
        return self._complete

    def __repr__(self) -> str:
        return f"<Event {self.command} {self._profile.duration} ns>"


class CommandQueue:
    """An in-order command queue (``cl_command_queue`` analogue).

    Maintains a simulated device clock: each enqueued command advances
    it by the modelled duration, so back-to-back kernel events have
    non-overlapping, monotonically increasing timestamps.
    """

    def __init__(
        self,
        context: Context,
        device: Optional[Device] = None,
        profiling: bool = True,
        execution_mode: ExecutionMode = ExecutionMode.AUTO,
        workgroup_mode_limit: int = 1 << 26,
        measurement_noise: bool = True,
        out_of_order: bool = False,
    ):
        self.context = context
        self.device = device or context.device
        if self.device not in context.devices:
            raise CLError(
                f"device {self.device.codename} is not part of the context"
            )
        self.profiling = profiling
        self.execution_mode = execution_mode
        #: Problems with more multiply-adds than this fall back from the
        #: faithful work-group path to the fast path under AUTO.
        self.workgroup_mode_limit = workgroup_mode_limit
        self.measurement_noise = measurement_noise
        #: CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE analogue: commands on
        #: different engines (compute vs DMA) may overlap in simulated
        #: time unless ordered by event wait lists.
        self.out_of_order = out_of_order
        #: Simulated free-time of each hardware engine, in ns.
        self._engine_clock_ns = {"compute": 0, "transfer": 0}
        self._last_end_ns = 0
        #: Monotonic launch counter: makes every launch's fault-injection
        #: key unique, so a fault plan's rates apply per command.
        self._launch_seq = 0

    # ------------------------------------------------------------------
    def _advance(
        self,
        seconds: float,
        engine: str = "compute",
        wait_for: Optional[Tuple] = None,
    ) -> Tuple[int, int]:
        """Schedule one command on an engine; returns (start, end) ns.

        In-order queues serialise all commands; out-of-order queues only
        honour engine availability and explicit event dependencies —
        this is what lets a DMA transfer run under a kernel.
        """
        start = self._engine_clock_ns[engine]
        if not self.out_of_order:
            start = max(start, self._last_end_ns)
        for dep in wait_for or ():
            start = max(start, dep.profile.end)
        end = start + max(1, int(round(seconds * 1e9)))
        self._engine_clock_ns[engine] = end
        self._last_end_ns = max(self._last_end_ns, end)
        return start, end

    def _resolve_mode(self, M: int, N: int, K: int) -> ExecutionMode:
        if self.execution_mode is not ExecutionMode.AUTO:
            return self.execution_mode
        if M * N * K <= self.workgroup_mode_limit:
            return ExecutionMode.WORKGROUP
        return ExecutionMode.FAST

    def finish(self) -> None:
        """Block until all commands complete (no-op: blocking queue)."""

    @property
    def simulated_clock_ns(self) -> int:
        """Completion time of the last command on any engine."""
        return self._last_end_ns

    # ------------------------------------------------------------------
    def launch(
        self,
        kernel,
        global_size: Tuple[int, int],
        local_size: Tuple[int, int],
        wait_for: Optional[Tuple[Event, ...]] = None,
    ) -> Event:
        """Execute a bound kernel over the ND-range.

        ``wait_for`` lists events that must complete first (the OpenCL
        event wait list); only meaningful on out-of-order queues, where
        unordered commands may overlap in simulated time.
        """
        from repro.clsim.kernel import PackKernel

        if isinstance(kernel, PackKernel):
            return self._launch_pack(kernel, global_size, local_size, wait_for)
        kernel.validate_nd_range(global_size, local_size)
        M, N, K, alpha, beta, agm, bgm, cgm = kernel.args
        spec = self.device.spec
        params = kernel.params

        # Device-specific execution quirks (paper Section IV-A), e.g. the
        # Bulldozer PL-DGEMM execution failure.
        check_execution_quirks(spec, params)

        # Injected runtime faults: hangs (real wall-clock, for the
        # watchdog to kill), timing spikes, and silent result corruption.
        injector = self.context.fault_injector
        fault_key = ""
        seconds_factor = 1.0
        if injector is not None:
            self._launch_seq += 1
            fault_key = f"{M}x{N}x{K}|#{self._launch_seq}"
            dev = self.device.codename
            hang = injector.hang_seconds(dev, fault_key, params=params)
            if hang > 0.0:
                time.sleep(hang)
            seconds_factor = injector.timing_factor(dev, fault_key, params=params)

        breakdown = estimate_kernel_time(
            spec, params, M, N, K, noise=self.measurement_noise
        )

        mode = self._resolve_mode(M, N, K)
        if mode is not ExecutionMode.TIMING_ONLY:
            arrays = ExecutionArrays(
                kernel.plan, agm, bgm, cgm.flat_array, M, N, K
            )
            execute_plan(
                kernel.plan, arrays, alpha, beta, mode=mode.value,
                injector=injector, device=self.device.codename,
                fault_key=fault_key,
            )

        start, end = self._advance(
            breakdown.total_seconds * seconds_factor,
            engine="compute", wait_for=wait_for,
        )
        profile = EventProfile(queued=start, submit=start, start=start, end=end)
        return Event("ndrange_kernel", profile, breakdown=breakdown)

    def _launch_pack(self, kernel, global_size, local_size, wait_for=None) -> Event:
        """Execute a generated pack/transpose kernel."""
        from repro.perfmodel.model import estimate_pack_time

        kernel.validate_nd_range(global_size, local_size)
        src_rows, src_cols, k_padded, x_padded, src, dst = kernel.args
        plan = kernel.pack_plan
        esize = plan.dtype.itemsize
        seconds = estimate_pack_time(
            self.device.spec,
            read_bytes=float(src_rows * src_cols * esize),
            write_bytes=float(k_padded * x_padded * esize),
            transpose=plan.transpose,
            block_major=plan.layout.is_block_major,
        )
        mode = self._resolve_mode(src_rows, src_cols, 1)
        if mode is not ExecutionMode.TIMING_ONLY:
            # The destination keeps the oriented source, unpadded and
            # uncopied; its packed contents are built only if something
            # reads them.
            payload = plan.orient(
                src.array.view(plan.dtype)[: src_rows * src_cols],
                src_rows, src_cols, k_padded, x_padded,
            )
            dst.hold(Hold(payload, plan.layout, plan.block_k, plan.block_x,
                          (k_padded, x_padded)))
        start, end = self._advance(seconds, engine="compute", wait_for=wait_for)
        return Event("pack_kernel", EventProfile(start, start, start, end))

    def copy(self, dest, src, wait_for: Optional[Tuple[Event, ...]] = None) -> Event:
        """Copy host<->device or device<->device (``clEnqueueCopy*``).

        Host transfers cross the interconnect (PCIe on the GPUs) on the
        DMA engine; device-to-device copies run at DRAM speed.
        """
        if isinstance(src, Buffer) and isinstance(dest, np.ndarray):
            flat = dest.reshape(-1)
            if flat.nbytes != src.size:
                raise CLError(
                    f"host destination is {flat.nbytes} B, buffer is {src.size} B"
                )
            flat[:] = src.array.view(flat.dtype)
            seconds = estimate_transfer_time(self.device.spec, float(src.size))
        elif isinstance(dest, Buffer) and isinstance(src, np.ndarray):
            dest.write(src)
            seconds = estimate_transfer_time(self.device.spec, float(dest.size))
        elif isinstance(dest, Buffer) and isinstance(src, Buffer):
            if dest.size != src.size:
                raise CLError("device-to-device copy requires equal sizes")
            dest.array[:] = src.array.view(dest.dtype)
            seconds = estimate_copy_time(self.device.spec, float(dest.size))
        else:
            raise CLError(
                "enqueue_copy needs (ndarray, Buffer), (Buffer, ndarray) or "
                "(Buffer, Buffer)"
            )
        start, end = self._advance(seconds, engine="transfer", wait_for=wait_for)
        return Event("copy", EventProfile(start, start, start, end))


def enqueue_nd_range_kernel(
    queue: CommandQueue,
    kernel: Kernel,
    global_size: Tuple[int, int],
    local_size: Tuple[int, int],
    wait_for: Optional[Tuple[Event, ...]] = None,
) -> Event:
    """pyopencl-style free function wrapping :meth:`CommandQueue.launch`."""
    return queue.launch(kernel, global_size, local_size, wait_for=wait_for)


def enqueue_copy(
    queue: CommandQueue, dest, src, wait_for: Optional[Tuple[Event, ...]] = None
) -> Event:
    """pyopencl-style free function wrapping :meth:`CommandQueue.copy`."""
    return queue.copy(dest, src, wait_for=wait_for)
