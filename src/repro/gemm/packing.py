"""Operand preparation: transposition, zero-padding and block-major packing.

"To make use of a fast ``A^T B + C`` kernel for GEMM routines, matrix
data have to be copied into extra allocated buffers in global memory
before executing the kernel. [...] If designated data layouts are not
row-major, matrix data are changed into the required layouts along with
the copying."  (paper Section III-D)

"When a matrix size is not in multiples of a blocking factor, we use a
zero padding technique."  (Section IV-B)

Zero padding is algebraically safe for GEMM: padded rows/columns of the
operands contribute zero products, and the padded region of C is cropped
before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.codegen.layouts import Layout, pack_matrix, pad_matrix
from repro.codegen.params import KernelParams

__all__ = ["pad_to_multiple", "required_padding", "PackedOperand", "pack_operand",
           "prepare_c", "crop_c"]


def pad_to_multiple(n: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= ``n``."""
    if n <= 0 or multiple <= 0:
        raise ValueError(f"sizes must be positive (n={n}, multiple={multiple})")
    return ((n + multiple - 1) // multiple) * multiple


def required_padding(params: KernelParams, M: int, N: int, K: int) -> Tuple[int, int, int]:
    """Padded problem dimensions for a kernel's blocking factors.

    The pipelined algorithms (PL, DB) additionally need at least two
    k-iterations for their prologue/epilogue structure.
    """
    Mp = pad_to_multiple(M, params.mwg)
    Np = pad_to_multiple(N, params.nwg)
    Kp = pad_to_multiple(K, params.kwg)
    Kp = max(Kp, params.algorithm.min_k_iterations * params.kwg)
    return Mp, Np, Kp


@dataclass(frozen=True)
class PackedOperand:
    """A packed kernel operand plus the bookkeeping the routine needs."""

    flat: np.ndarray
    layout: Layout
    rows: int  # padded K
    cols: int  # padded M (for A^T) or N (for B)
    payload_bytes: int  # bytes actually copied (for copy-time accounting)


def _as_k_by_x(mat: np.ndarray, transpose: bool) -> np.ndarray:
    """Orient a 2-D array so axis 0 is the contraction (K) dimension."""
    if mat.ndim != 2:
        raise ValueError(f"GEMM operands must be 2-D, got shape {mat.shape}")
    return mat.T if transpose else mat


def pack_operand(
    mat: np.ndarray,
    *,
    transpose: bool,
    k_padded: int,
    x_padded: int,
    block_x: int,
    block_k: int,
    layout: Layout,
    dtype: np.dtype,
) -> PackedOperand:
    """Copy one operand into a padded, packed kernel buffer.

    ``mat`` oriented by ``transpose`` must be (K x X) where X is M for
    the A operand and N for the B operand.  The result is the flat
    packed buffer of shape ``k_padded * x_padded`` in ``layout``.
    """
    kx = _as_k_by_x(np.asarray(mat), transpose)
    flat = pack_matrix(pad_matrix(kx, k_padded, x_padded, dtype), layout,
                       block_k, block_x)
    return PackedOperand(
        flat=flat,
        layout=layout,
        rows=k_padded,
        cols=x_padded,
        payload_bytes=kx.nbytes,
    )


def prepare_c(
    c: np.ndarray | None, M: int, N: int, Mp: int, Np: int, dtype: np.dtype
) -> np.ndarray:
    """Zero-padded row-major C working array (Mp x Np)."""
    if c is None:
        return np.zeros((Mp, Np), dtype=dtype)
    c = np.asarray(c)
    if c.shape != (M, N):
        raise ValueError(f"C has shape {c.shape}, expected ({M}, {N})")
    return pad_matrix(c, Mp, Np, dtype)


def crop_c(c_padded: np.ndarray, M: int, N: int) -> np.ndarray:
    """Crop the padded result back to the user's M x N."""
    return np.ascontiguousarray(c_padded[:M, :N])
