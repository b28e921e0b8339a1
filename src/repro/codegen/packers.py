"""Generated pack/transpose kernels.

"To make use of a fast ``A^T B + C`` kernel for GEMM routines, matrix
data have to be copied into extra allocated buffers in global memory
before executing the kernel" (Section III-D).  In the paper's
implementation that copy runs *on the device*; this module generates the
corresponding OpenCL pack kernels: each reads a row-major user matrix
(optionally transposing it) and writes the zero-padded, block-major
packed operand the GEMM kernel consumes.

Like the GEMM emitter, the source carries a ``GEMMGEN-META`` header that
the simulator's compiler parses back into an executable
:class:`PackPlan`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.codegen.emitter import META_PREFIX, GENERATOR_VERSION
from repro.codegen.layouts import Layout
from repro.errors import BuildError, LaunchError, ParameterError

__all__ = ["PackPlan", "emit_pack_source", "parse_pack_meta", "PACK_KERNEL_NAME"]

PACK_KERNEL_NAME = "pack_operand"

#: Work-group tile used by all pack kernels (a 16x16 copy tile is the
#: standard transpose work-group shape).
PACK_TILE = 16


@dataclass(frozen=True)
class PackPlan:
    """Executable description of one generated pack kernel.

    The kernel reads a ``rows x cols`` row-major source; with
    ``transpose`` its logical (K x X) orientation is the source's
    transpose.  It writes a ``k_padded x x_padded`` operand packed in
    ``layout`` with blocking ``(block_k, block_x)``, zero-filling the
    padding.  Dimensions are bound at launch, not generation: one pack
    kernel serves every problem size (as in the paper's implementation).
    """

    precision: str
    transpose: bool
    layout: Layout
    block_k: int
    block_x: int

    def __post_init__(self) -> None:
        if self.precision not in ("s", "d"):
            raise ParameterError(f"precision must be 's' or 'd', got {self.precision!r}")
        if self.block_k < 1 or self.block_x < 1:
            raise ParameterError("pack blocking factors must be >= 1")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == "s" else np.float64)

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "transpose": self.transpose,
            "layout": self.layout.value,
            "block_k": self.block_k,
            "block_x": self.block_x,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PackPlan":
        return cls(
            precision=str(d["precision"]),
            transpose=bool(d["transpose"]),
            layout=Layout(d["layout"]),
            block_k=int(d["block_k"]),
            block_x=int(d["block_x"]),
        )

    # -- launch geometry ---------------------------------------------------
    def global_size(self, k_padded: int, x_padded: int) -> Tuple[int, int]:
        """One work-item per destination element, rounded to the tile."""
        def up(n: int) -> int:
            return ((n + PACK_TILE - 1) // PACK_TILE) * PACK_TILE

        return up(k_padded), up(x_padded)

    def local_size(self) -> Tuple[int, int]:
        return PACK_TILE, PACK_TILE

    def check_destination(self, k_padded: int, x_padded: int) -> None:
        if x_padded % self.block_x:
            raise LaunchError(
                f"packed width {x_padded} not a multiple of block_x={self.block_x}"
            )
        if self.layout is Layout.RBL and k_padded % self.block_k:
            raise LaunchError(
                f"RBL packed height {k_padded} not a multiple of block_k={self.block_k}"
            )

    # -- functional execution ----------------------------------------------
    def stage(
        self,
        src: np.ndarray,
        rows: int,
        cols: int,
        k_padded: int,
        x_padded: int,
    ) -> np.ndarray:
        """Orient and zero-pad the source: the ``k_padded x x_padded``
        logical matrix the pack writes, before block-major ordering."""
        self.check_destination(k_padded, x_padded)
        mat = src.reshape(rows, cols)
        kx = mat.T if self.transpose else mat
        K, X = kx.shape
        if K > k_padded or X > x_padded:
            raise LaunchError(
                f"source {kx.shape} larger than packed destination "
                f"({k_padded}, {x_padded})"
            )
        staging = np.zeros((k_padded, x_padded), dtype=self.dtype)
        staging[:K, :X] = kx
        return staging

    def execute(
        self,
        src: np.ndarray,
        rows: int,
        cols: int,
        k_padded: int,
        x_padded: int,
    ) -> np.ndarray:
        """Run the pack: returns the flat packed destination contents."""
        from repro.codegen.layouts import pack_matrix

        staged = self.stage(src, rows, cols, k_padded, x_padded)
        return pack_matrix(staged, self.layout, self.block_k, self.block_x)


def _offset_expr(layout: Layout, bk: int, bx: int) -> str:
    if layout is Layout.ROW:
        return "gk * xPadded + gx"
    if layout is Layout.CBL:
        return (
            f"(gx / {bx}) * (kPadded * {bx}) + gk * {bx} + (gx % {bx})"
        )
    return (
        f"(gk / {bk}) * ({bk} * xPadded) + (gx / {bx}) * ({bk} * {bx})"
        f" + (gk % {bk}) * {bx} + (gx % {bx})"
    )


def emit_pack_source(plan: PackPlan) -> str:
    """Emit OpenCL C for one pack/transpose kernel."""
    real = "float" if plan.precision == "s" else "double"
    meta = {
        "generator": GENERATOR_VERSION,
        "kernel": PACK_KERNEL_NAME,
        "pack": plan.to_dict(),
    }
    read = "src[(size_t)gx * srcCols + gk]" if plan.transpose else \
        "src[(size_t)gk * srcCols + gx]"
    in_bounds = "gx < srcRows && gk < srcCols" if plan.transpose else \
        "gk < srcRows && gx < srcCols"
    lines = [
        META_PREFIX + json.dumps(meta, sort_keys=True),
        "/*",
        f" * Pack kernel: row-major source -> {plan.layout.value} packed operand",
        f" * transpose={'yes' if plan.transpose else 'no'}, "
        f"blocking=({plan.block_k}, {plan.block_x}), zero padding.",
        " */",
    ]
    if plan.precision == "d":
        lines.append("#pragma OPENCL EXTENSION cl_khr_fp64 : enable")
    lines += [
        "",
        f"__kernel __attribute__((reqd_work_group_size({PACK_TILE}, {PACK_TILE}, 1)))",
        f"void {PACK_KERNEL_NAME}(const int srcRows, const int srcCols,",
        "                  const int kPadded, const int xPadded,",
        f"                  __global const {real}* restrict src,",
        f"                  __global {real}* dst) {{",
        "  const int gk = get_global_id(0);",
        "  const int gx = get_global_id(1);",
        "  if (gk >= kPadded || gx >= xPadded) return;",
        f"  {real} value = ({real})(0);",
        f"  if ({in_bounds}) {{",
        f"    value = {read};",
        "  }",
        f"  dst[{_offset_expr(plan.layout, plan.block_k, plan.block_x)}] = value;",
        "}",
    ]
    return "\n".join(lines) + "\n"


def parse_pack_meta(source: str) -> PackPlan:
    """Recover the PackPlan from an emitted pack-kernel source."""
    first = source.lstrip().splitlines()[0]
    if not first.startswith(META_PREFIX):
        raise BuildError("source has no GEMMGEN-META header")
    try:
        meta = json.loads(first[len(META_PREFIX):])
        if meta.get("kernel") != PACK_KERNEL_NAME:
            raise BuildError(f"not a pack kernel: {meta.get('kernel')!r}")
        return PackPlan.from_dict(meta["pack"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise BuildError(f"corrupt pack-kernel metadata: {exc}") from exc
