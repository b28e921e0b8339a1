"""Matrix data layouts for the packed kernel operands (paper Section III-D).

The fast ``A^T B`` kernel reads its operands from packed buffers in global
memory.  A packed operand is logically a ``K x M`` matrix (the transposed
``A^T``; for ``B`` read ``K x N``) stored in one of three layouts,
parameterised by the work-group blocking factors ``(Kwg, Mwg)``:

* ``ROW`` — plain row-major: element ``(k, m)`` at offset ``k*M + m``.
* ``CBL`` — column-block-row-major (paper Fig. 3b): the matrix is split
  into ``K x Mwg`` column blocks; each block's data is contiguous and
  row-major inside the block.  All data a work-group needs for one column
  block of ``A^T`` is one contiguous span.
* ``RBL`` — row-block-row-major (paper Fig. 3c): the matrix is split into
  ``Kwg x M`` row blocks, each stored as a sequence of row-major
  ``Kwg x Mwg`` sub-blocks.  The data for one ``Kwg x Mwg`` multiplication
  step is one contiguous span.

Both block-major layouts improve spatial locality over ``ROW``; the paper
finds they are essential on the AMD GPUs and that ``ROW`` additionally
suffers memory-bank conflicts when the leading dimension is a multiple of
2048 (Section IV-A).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["Layout", "pad_matrix", "pack_matrix", "unpack_matrix", "element_offsets", "tile_view"]


class Layout(enum.Enum):
    """Packed-operand data layout."""

    ROW = "ROW"
    CBL = "CBL"
    RBL = "RBL"

    @property
    def is_block_major(self) -> bool:
        return self is not Layout.ROW

    @property
    def contiguous_tile_elements(self) -> str:
        """Human description of which span is contiguous (for reports)."""
        return {
            Layout.ROW: "single rows",
            Layout.CBL: "K x Mwg column blocks",
            Layout.RBL: "Kwg x Mwg sub-blocks",
        }[self]


def _check_blocking(K: int, M: int, bk: int, bm: int, layout: Layout) -> None:
    if M % bm != 0:
        raise ValueError(f"{layout.value}: M={M} not a multiple of block width {bm}")
    if layout is Layout.RBL and K % bk != 0:
        raise ValueError(f"RBL: K={K} not a multiple of block height {bk}")


def pad_matrix(mat: np.ndarray, rows: int, cols: int, dtype=None) -> np.ndarray:
    """A fresh ``rows x cols`` array holding ``mat`` (cast to ``dtype``,
    default ``mat``'s) in its top-left corner and zeros elsewhere: the
    zero padding of Section IV-B."""
    if mat.shape[0] > rows or mat.shape[1] > cols:
        raise ValueError(
            f"matrix {mat.shape} larger than padded target ({rows}, {cols})")
    out = np.zeros((rows, cols), dtype=mat.dtype if dtype is None else dtype)
    out[: mat.shape[0], : mat.shape[1]] = mat
    return out


def pack_matrix(mat: np.ndarray, layout: Layout, bk: int, bm: int) -> np.ndarray:
    """Pack a ``K x M`` row-major matrix into ``layout``.

    Returns a flat 1-D array of ``K*M`` elements in packed order.  ``bk``
    and ``bm`` are the blocking factors ``(Kwg, Mwg)``; ``bk`` is ignored
    for ``ROW`` and ``CBL``.
    """
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
    K, M = mat.shape
    mat = np.ascontiguousarray(mat)
    if layout is Layout.ROW:
        return mat.reshape(-1).copy()
    _check_blocking(K, M, bk, bm, layout)
    if layout is Layout.CBL:
        # (K, M) -> (M/bm, K, bm): column blocks, row-major inside.
        blocked = mat.reshape(K, M // bm, bm).transpose(1, 0, 2)
        return np.ascontiguousarray(blocked).reshape(-1)
    # RBL: (K, M) -> (K/bk, M/bm, bk, bm)
    blocked = mat.reshape(K // bk, bk, M // bm, bm).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(blocked).reshape(-1)


def unpack_matrix(
    flat: np.ndarray, layout: Layout, K: int, M: int, bk: int, bm: int
) -> np.ndarray:
    """Inverse of :func:`pack_matrix`: recover the ``K x M`` matrix."""
    if flat.size != K * M:
        raise ValueError(f"flat buffer has {flat.size} elements, expected {K * M}")
    if layout is Layout.ROW:
        return flat.reshape(K, M).copy()
    _check_blocking(K, M, bk, bm, layout)
    if layout is Layout.CBL:
        blocked = flat.reshape(M // bm, K, bm)
        return np.ascontiguousarray(blocked.transpose(1, 0, 2)).reshape(K, M)
    blocked = flat.reshape(K // bk, M // bm, bk, bm)
    return np.ascontiguousarray(blocked.transpose(0, 2, 1, 3)).reshape(K, M)


def element_offsets(
    layout: Layout,
    k: np.ndarray,
    m: np.ndarray,
    K: int,
    M: int,
    bk: int,
    bm: int,
) -> np.ndarray:
    """Flat offsets of elements ``(k, m)`` in a packed buffer.

    This is the address arithmetic the emitted OpenCL code performs; the
    executor and the emitter must agree with :func:`pack_matrix`, which
    the test suite checks property-style.
    """
    k = np.asarray(k, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    if layout is Layout.ROW:
        return k * M + m
    if layout is Layout.CBL:
        return (m // bm) * (K * bm) + k * bm + (m % bm)
    return (
        (k // bk) * (bk * M)
        + (m // bm) * (bk * bm)
        + (k % bk) * bm
        + (m % bm)
    )


def tile_view(
    flat: np.ndarray,
    layout: Layout,
    kb: int,
    mb: int | None,
    K: int,
    M: int,
    bk: int,
    bm: int,
) -> np.ndarray:
    """Return the ``bk x bm`` tile at block coordinates ``(kb, mb)``.

    ``kb`` indexes ``Kwg``-tall row blocks, ``mb`` indexes ``Mwg``-wide
    column blocks; ``mb=None`` returns every column block of row block
    ``kb``, stacked on a leading axis: shape ``(M // bm, bk, bm)``.  For
    the block-major layouts this is a cheap numpy view (no copy),
    mirroring the contiguous access the layouts exist to provide; for
    ``ROW`` it is a strided view.
    """
    grid = M // bm
    if not (0 <= kb < K // bk) or not (mb is None or 0 <= mb < grid):
        raise IndexError(
            f"tile ({kb}, {mb}) out of range for {K}x{M} with blocks {bk}x{bm}"
        )
    rows = slice(kb * bk, (kb + 1) * bk)
    if layout is Layout.ROW:
        panel = flat.reshape(K, M)[rows, : grid * bm].reshape(bk, grid, bm)
        panel = panel.transpose(1, 0, 2)
    elif layout is Layout.CBL:
        panel = flat.reshape(grid, K, bm)[:, rows]
    else:
        panel = flat.reshape(K // bk, grid, bk, bm)[kb]
    return panel if mb is None else panel[mb]
