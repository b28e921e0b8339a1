"""The full GEMM routine: pack -> kernel -> crop.

Implements the paper's implementation strategy (Section IV-B): all four
multiplication types are reduced to the tuned ``C <- alpha A^T B + beta C``
kernel by copying the operands into padded block-major buffers with the
appropriate transposition.  The copies run *on the device* through
generated pack kernels (:mod:`repro.codegen.packers`), so their cost is
measured the same way the GEMM kernel's is.  The copy is O(N^2) against
the kernel's O(N^3): the routine is slow for small problems and
amortised for large ones — exactly the behaviour of the paper's
Figs. 9-10.

Column-major user data (the storage convention of the paper's Table III)
is handled transparently: numpy arrays carry their own layout, and the
packing stage touches every element exactly once either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

import repro.clsim as cl
from repro.clsim.queue import ExecutionMode
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.layouts import Layout, pad_matrix
from repro.codegen.packers import PackPlan, emit_pack_source
from repro.codegen.params import KernelParams
from repro.devices.specs import DeviceSpec
from repro.errors import InvalidRequestError, ReproError
from repro.gemm.packing import crop_c, prepare_c, required_padding
from repro.perfmodel.model import estimate_copy_time, estimate_pack_time

__all__ = [
    "GemmTimings",
    "GemmResult",
    "GemmRoutine",
    "predict_implementation",
    "validate_gemm_request",
]


def _validate_operand(name: str, mat: np.ndarray) -> np.ndarray:
    """One operand's structural checks; returns the array as ndarray."""
    mat = np.asanyarray(mat)
    kind = mat.dtype.kind
    if kind not in "fiub":  # real floats, signed/unsigned ints, bool
        if kind == "O":
            raise InvalidRequestError(
                name, "object-dtype arrays are not supported")
        if kind == "c":
            raise InvalidRequestError(
                name, f"complex dtype {mat.dtype} is not supported "
                      f"(GEMM is real)")
        raise InvalidRequestError(
            name, f"dtype {mat.dtype} cannot be cast to a GEMM precision"
        )
    if mat.ndim != 2:
        raise InvalidRequestError(
            name, f"must be a 2-D matrix, got ndim={mat.ndim}"
        )
    if mat.size == 0:
        raise InvalidRequestError(name, f"is empty (shape {mat.shape})")
    return mat


def validate_gemm_request(
    a: np.ndarray,
    b: np.ndarray,
    c: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: str = "N",
    transb: str = "N",
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], str, str]:
    """Validate one GEMM request up front, naming the offending argument.

    Checks shapes, dtypes (object/complex arrays are rejected with a
    typed error instead of a numpy cast failure deep in the pack path),
    operand compatibility, and that ``alpha``/``beta`` are finite real
    scalars.  Non-contiguous inputs are accepted — the staging path
    copies them — so no contiguity error can surface later.  Returns the
    operands as ndarrays plus the normalised ``transa``/``transb``.

    Raises :class:`~repro.errors.InvalidRequestError` on any violation.
    """
    if not isinstance(transa, str) or transa.upper() not in ("N", "T"):
        raise InvalidRequestError("transa", f"must be 'N' or 'T', got {transa!r}")
    if not isinstance(transb, str) or transb.upper() not in ("N", "T"):
        raise InvalidRequestError("transb", f"must be 'N' or 'T', got {transb!r}")
    transa, transb = transa.upper(), transb.upper()
    a = _validate_operand("a", a)
    b = _validate_operand("b", b)
    for name, value in (("alpha", alpha), ("beta", beta)):
        try:
            scalar = float(value)
        except (TypeError, ValueError):
            raise InvalidRequestError(
                name, f"must be a real scalar, got {type(value).__name__}"
            ) from None
        if not math.isfinite(scalar):
            raise InvalidRequestError(name, f"must be finite, got {scalar}")
    M, Ka = a.shape if transa == "N" else a.shape[::-1]
    Kb, N = b.shape if transb == "N" else b.shape[::-1]
    if Ka != Kb:
        raise InvalidRequestError(
            "b", f"inner dimensions disagree: op(A) gives K={Ka}, "
                 f"op(B) gives K={Kb}"
        )
    if float(beta) != 0.0 and c is None:
        raise InvalidRequestError("c", "beta != 0 requires a C operand")
    if c is not None:
        c = _validate_operand("c", c)
        if c.shape != (M, N):
            raise InvalidRequestError(
                "c", f"has shape {c.shape}, expected ({M}, {N})"
            )
    return a, b, c, transa, transb


@dataclass(frozen=True)
class GemmTimings:
    """Simulated time decomposition of one GEMM call."""

    copy_in_s: float
    kernel_s: float
    copy_out_s: float

    @property
    def total_s(self) -> float:
        return self.copy_in_s + self.kernel_s + self.copy_out_s


@dataclass(frozen=True)
class GemmResult:
    """Result of one GEMM call: the output matrix plus performance data."""

    c: np.ndarray
    M: int
    N: int
    K: int
    timings: GemmTimings
    #: Model cost breakdown of the kernel launch.
    kernel_breakdown: object

    @property
    def flops(self) -> float:
        return 2.0 * self.M * self.N * self.K

    @property
    def kernel_gflops(self) -> float:
        """Kernel-only rate (the paper's Fig. 7 / Table II numbers)."""
        return self.flops / self.timings.kernel_s / 1e9

    @property
    def effective_gflops(self) -> float:
        """Rate including the packing copies (Figs. 9-11 / Table III)."""
        return self.flops / self.timings.total_s / 1e9


def predict_implementation(
    spec: DeviceSpec,
    params: KernelParams,
    M: int,
    N: int,
    K: int,
    noise: bool = True,
) -> GemmTimings:
    """Model-only timing of one full GEMM call (pack + kernel + crop).

    Composes exactly the same cost terms :class:`GemmRoutine` charges,
    without materialising buffers or computing numerics — the benchmark
    harness uses this for the paper's large size sweeps.  The test suite
    asserts the two paths agree.
    """
    from repro.perfmodel.model import estimate_kernel_time

    if params.guard_edges:
        kernel_time = estimate_kernel_time(spec, params, M, N, K, noise=noise)
        return GemmTimings(0.0, kernel_time.total_seconds, 0.0)
    Mp, Np, Kp = required_padding(params, M, N, K)
    esize = params.element_size
    copy_in = estimate_pack_time(
        spec, M * K * esize, Kp * Mp * esize,
        transpose=True, block_major=params.layout_a.is_block_major,
    ) + estimate_pack_time(
        spec, K * N * esize, Kp * Np * esize,
        transpose=False, block_major=params.layout_b.is_block_major,
    )
    kernel = estimate_kernel_time(spec, params, Mp, Np, Kp, noise=noise).total_seconds
    copy_out = 0.0
    if (Mp, Np) != (M, N):
        copy_out = estimate_copy_time(spec, float(M * N * esize))
    return GemmTimings(copy_in_s=copy_in, kernel_s=kernel, copy_out_s=copy_out)


def _resolve_device(device: Union[str, cl.Device, DeviceSpec]) -> cl.Device:
    if isinstance(device, cl.Device):
        return device
    if isinstance(device, DeviceSpec):
        return cl.Device(device)
    return cl.get_device(device)


class GemmRoutine:
    """A reusable GEMM routine for one device and one kernel parameter set.

    Builds the GEMM kernel and its two pack kernels once; each call
    stages its operands through device buffers, launches, and returns a
    :class:`GemmResult`.  Use the auto-tuner (:mod:`repro.tuner`) to
    obtain good parameters, or :func:`repro.api.tuned_gemm` for the
    end-to-end convenience path.
    """

    def __init__(
        self,
        device: Union[str, cl.Device, DeviceSpec],
        params: KernelParams,
        execution_mode: ExecutionMode = ExecutionMode.AUTO,
        measurement_noise: bool = True,
        binary_cache: Optional["object"] = None,
        fault_injector: Optional["object"] = None,
    ):
        self.device = _resolve_device(device)
        self.params = params
        #: Optional :class:`repro.clsim.faults.FaultInjector`: the whole
        #: routine (pack kernels included) then runs under its fault plan.
        self.context = cl.Context([self.device], fault_injector=fault_injector)
        self.queue = cl.CommandQueue(
            self.context,
            self.device,
            profiling=True,
            execution_mode=execution_mode,
            measurement_noise=measurement_noise,
        )
        #: Optional :class:`repro.clsim.binary.BinaryCache`: programs are
        #: then fetched/stored as binaries instead of recompiled, the way
        #: long tuning sessions avoid the compiler.
        self.binary_cache = binary_cache
        self.source = emit_kernel_source(params)
        self.program = self._build(self.source)
        self.kernel = self.program.get_kernel("gemm_atb")
        self._pack_kernels: Dict[Tuple[bool, str, int, int], object] = {}

    def _build(self, source: str):
        if self.binary_cache is not None:
            return self.binary_cache.get_or_build(self.context, source)
        return cl.Program(self.context, source).build()

    @property
    def precision(self) -> str:
        return self.params.precision

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == "s" else np.float64)

    # -- operand staging ---------------------------------------------------
    def _pack_kernel(self, transpose: bool, layout: Layout, block_k: int,
                     block_x: int):
        """Build (or reuse) the pack kernel for one operand shape."""
        key = (transpose, layout.value, block_k, block_x)
        if key not in self._pack_kernels:
            plan = PackPlan(
                precision=self.precision, transpose=transpose, layout=layout,
                block_k=block_k, block_x=block_x,
            )
            program = self._build(emit_pack_source(plan))
            self._pack_kernels[key] = program.get_kernel("pack_operand")
        return self._pack_kernels[key]

    def _prepare_operand(
        self,
        mat: np.ndarray,
        transpose: bool,
        k_padded: int,
        x_padded: int,
        block_x: int,
        layout: Layout,
    ) -> Tuple[cl.Buffer, float]:
        """Stage one operand: upload row-major, pack on device.

        Returns the packed device buffer and the simulated pack time.
        """
        rows, cols = mat.shape
        if self.params.use_images:
            # Image kernels read 2-D textures.  Orient (and, unless the
            # kernel is also edge-guarded, zero-pad) the operand into an
            # Image2D; the upload/repack cost matches a straight copy
            # pass (no block shuffle: textures are ROW-addressed).
            kx = np.ascontiguousarray(mat.T if transpose else mat,
                                      dtype=self.dtype)
            if self.params.guard_edges:
                height, width = kx.shape
                staged = kx
                seconds = 0.0
            else:
                height, width = k_padded, x_padded
                staged = pad_matrix(kx, height, width)
                seconds = estimate_pack_time(
                    self.device.spec, float(kx.nbytes),
                    float(staged.nbytes), transpose=transpose,
                    block_major=False,
                )
            image = cl.Image2D(self.context, width=width, height=height,
                               dtype=self.dtype, hostbuf=staged)
            return image, seconds
        if self.params.guard_edges:
            # Guarded kernels read the operand as stored: upload the
            # exact K x X orientation, charge no pack time (this is the
            # whole point of the copy-free path).
            kx = mat.T if transpose else mat
            buf = cl.Buffer(
                self.context, cl.MemFlags.READ_ONLY,
                hostbuf=np.ascontiguousarray(kx, dtype=self.dtype),
            )
            return buf, 0.0
        src = cl.Buffer(self.context, cl.MemFlags.READ_ONLY,
                        hostbuf=np.ascontiguousarray(mat, dtype=self.dtype))
        dst = cl.Buffer(
            self.context, cl.MemFlags.READ_WRITE,
            size=k_padded * x_padded * self.dtype.itemsize, dtype=self.dtype,
        )
        try:
            kernel = self._pack_kernel(transpose, layout, self.params.kwg, block_x)
            kernel.set_args(rows, cols, k_padded, x_padded, src, dst)
            event = self.queue.launch(
                kernel, kernel.expected_global_size(), kernel.pack_plan.local_size()
            )
        except Exception:
            dst.release()
            raise
        finally:
            src.release()
        return dst, event.profile.duration * 1e-9

    # -- hooks for routine variants ---------------------------------------
    def _kernel_time_factor(self) -> float:
        """Multiplier on modelled kernel time (overridable)."""
        return 1.0

    # ------------------------------------------------------------------
    def _problem_dims(self, a: np.ndarray, b: np.ndarray, transa: str, transb: str):
        transa, transb = transa.upper(), transb.upper()
        if transa not in ("N", "T") or transb not in ("N", "T"):
            raise ReproError(f"transa/transb must be 'N' or 'T', got {transa}/{transb}")
        if a.ndim != 2 or b.ndim != 2:
            raise ReproError("GEMM operands must be 2-D arrays")
        M, Ka = a.shape if transa == "N" else a.shape[::-1]
        Kb, N = b.shape if transb == "N" else b.shape[::-1]
        if Ka != Kb:
            raise ReproError(
                f"inner dimensions disagree: op(A) gives K={Ka}, op(B) gives K={Kb}"
            )
        return M, N, Ka, transa, transb

    def __call__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: Optional[np.ndarray] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: str = "N",
        transb: str = "N",
    ) -> GemmResult:
        """Compute ``alpha * op(A) op(B) + beta * C``.

        Returns a fresh ``M x N`` array; ``c`` (required when
        ``beta != 0``) is not modified.  Invalid inputs (mis-shaped,
        object/complex dtype, non-finite ``alpha``/``beta``) raise
        :class:`~repro.errors.InvalidRequestError` before any device
        work, with the offending argument named.
        """
        a, b, c, transa, transb = validate_gemm_request(
            a, b, c, alpha, beta, transa, transb
        )
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        M, N, K, transa, transb = self._problem_dims(a, b, transa, transb)

        p = self.params
        if p.guard_edges:
            # Bounds-checked kernels run on the exact problem: no padding.
            Mp, Np, Kp = M, N, K
        else:
            Mp, Np, Kp = required_padding(p, M, N, K)

        # -- copy step: transpose + pad + repack on the device -------------
        # The kernel consumes A as A^T (K x M): transpose unless the user
        # already asked for op(A) = A^T.
        abuf, t_pack_a = self._prepare_operand(
            a, transpose=(transa == "N"), k_padded=Kp, x_padded=Mp,
            block_x=p.mwg, layout=p.layout_a,
        )
        try:
            bbuf, t_pack_b = self._prepare_operand(
                b, transpose=(transb == "T"), k_padded=Kp, x_padded=Np,
                block_x=p.nwg, layout=p.layout_b,
            )
        except Exception:
            abuf.release()
            raise
        copy_in_s = t_pack_a + t_pack_b

        # -- kernel step -----------------------------------------------------
        # BLAS semantics: with beta == 0, C is not read (a NaN in it must
        # not reach the output through 0 * NaN).
        c_in = c if float(beta) != 0.0 else None
        c_work = prepare_c(c_in, M, N, Mp, Np, self.dtype)
        cbuf = cl.Buffer(self.context, cl.MemFlags.READ_WRITE, hostbuf=c_work)
        try:
            self.kernel.set_args(Mp, Np, Kp, float(alpha), float(beta),
                                 abuf, bbuf, cbuf)
            event = self.queue.launch(
                self.kernel,
                self.kernel.expected_global_size(),
                self.kernel.plan.local_size(),
            )
            kernel_s = event.profile.duration * 1e-9 * self._kernel_time_factor()
            # -- crop step: straight from the buffer, whose store is the
            # fresh c_work, so the result aliases nothing the caller owns.
            result_c = crop_c(cbuf.array.reshape(Mp, Np), M, N)
        finally:
            for buf in (abuf, bbuf, cbuf):
                buf.release()

        copy_out_s = 0.0
        if (Mp, Np) != (M, N):
            copy_out_s = estimate_copy_time(
                self.device.spec, float(M * N * self.dtype.itemsize)
            )

        return GemmResult(
            c=result_c,
            M=M, N=N, K=K,
            timings=GemmTimings(copy_in_s, kernel_s, copy_out_s),
            kernel_breakdown=event.breakdown,
        )

    def __repr__(self) -> str:
        return f"<GemmRoutine {self.device.codename} {self.params.summary()}>"
