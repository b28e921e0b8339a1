"""Simulated global-memory buffer objects."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.codegen.layouts import Layout, pack_matrix, pad_matrix
from repro.errors import CLError

__all__ = ["MemFlags", "Hold", "Buffer", "Image2D"]


class MemFlags(enum.Flag):
    """``cl_mem_flags`` analogue."""

    READ_WRITE = enum.auto()
    READ_ONLY = enum.auto()
    WRITE_ONLY = enum.auto()
    COPY_HOST_PTR = enum.auto()
    ALLOC_HOST_PTR = enum.auto()


class Hold(NamedTuple):
    """A pack kernel's output before it is laid out: the unpadded ``K x
    X`` payload, a view of the pack's source oriented as the kernel reads
    it, and the zero-padded ``extent`` it fills in ``layout`` with
    blocking ``(block_k, block_x)``."""

    payload: np.ndarray
    layout: Layout
    block_k: int
    block_x: int
    extent: Tuple[int, int]

    def packed(self) -> np.ndarray:
        """The flat block-major contents the pack kernel writes."""
        return pack_matrix(pad_matrix(self.payload, *self.extent),
                           self.layout, self.block_k, self.block_x)


class Buffer:
    """A global-memory buffer object (``cl_mem`` analogue).

    Backed by a flat numpy array that is built on first access.  A
    size-only buffer defers its zero fill.  A buffer a pack kernel wrote
    keeps that kernel's :class:`Hold`: the caller's operand as an
    oriented view, unpadded and uncopied.  The zero-padded block-major
    contents are built from it only when something reads the buffer
    element by element (``array``, ``flat_array``, ``read``, ``write``,
    the ``workgroup`` executor), and the hold is then dropped, so the
    flat array is the one source of truth.  The ``fast`` executor
    multiplies the held payload directly (:meth:`held`).  Like a
    ``CL_MEM_USE_HOST_PTR`` region, a pack's source must not be written
    while a destination still holds it.

    Creation is accounted against the context's device global-memory
    capacity; exceeding it raises ``CLError`` the way
    ``CL_MEM_OBJECT_ALLOCATION_FAILURE`` would.
    """

    def __init__(
        self,
        context,
        flags: MemFlags = MemFlags.READ_WRITE,
        size: int = 0,
        hostbuf: Optional[np.ndarray] = None,
        dtype=np.float32,
    ):
        #: The pack kernel's :class:`Hold` while it is not laid out, or None.
        self._held: Optional[Hold] = None
        if hostbuf is not None:
            arr = np.ascontiguousarray(hostbuf).reshape(-1)
            if MemFlags.COPY_HOST_PTR in flags:
                arr = arr.copy()
            self._array = arr
            self._dtype = arr.dtype
            self.size = arr.nbytes
        else:
            if size <= 0:
                raise CLError("Buffer needs a positive size or a hostbuf")
            dt = np.dtype(dtype)
            if size % dt.itemsize:
                raise CLError(
                    f"buffer size {size} is not a multiple of dtype size {dt.itemsize}"
                )
            self._array = None
            self._dtype = dt
            self.size = size
        self.flags = flags
        self.context = context
        context._register_allocation(self)

    @property
    def array(self) -> np.ndarray:
        """The backing store (device memory contents)."""
        if self._array is None:
            if self._held is None:
                self._array = np.zeros(self.size // self._dtype.itemsize,
                                       dtype=self._dtype)
            else:
                self._array = self._held.packed().view(self._dtype)
                self._held = None
        return self._array

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def hold(self, hold: Hold) -> None:
        """Store a pack kernel's output without laying it out.

        Contents that already exist (a host pointer, an earlier read)
        are overwritten in place at once; so is a mis-sized output,
        which fails there as an eager write would.
        """
        rows, cols = hold.extent
        if self._array is None and rows * cols * hold.payload.itemsize == self.size:
            self._held = hold
        else:
            self.array[:] = hold.packed().view(self._dtype)

    def held(self, layout: Layout, block_k: int,
             block_x: int) -> Optional[Hold]:
        """The :class:`Hold` a pack kernel left here, if it is still not
        laid out, was packed in ``layout`` with blocking ``(block_k,
        block_x)``, and has this buffer's dtype; otherwise None."""
        hold = self._held
        if (hold is not None
                and (hold.layout, hold.block_k, hold.block_x)
                == (layout, block_k, block_x)
                and hold.payload.dtype == self._dtype):
            return hold
        return None

    def read(self) -> np.ndarray:
        """Copy device contents to a fresh host array."""
        return self.array.copy()

    def write(self, data: np.ndarray) -> None:
        """Copy host data into the buffer (sizes must match)."""
        data = np.ascontiguousarray(data).reshape(-1)
        if data.nbytes != self.size:
            raise CLError(
                f"host data is {data.nbytes} B but buffer is {self.size} B"
            )
        self.array[:] = data.view(self._dtype)

    @property
    def flat_array(self) -> np.ndarray:
        """Flat view of the backing store (uniform with Image2D)."""
        return self.array

    def release(self) -> None:
        """Free the allocation (``clReleaseMemObject`` analogue)."""
        self.context._unregister_allocation(self)

    def __repr__(self) -> str:
        return f"<Buffer {self.size} B {self.dtype}>"


class Image2D:
    """A 2-D image object (``cl_mem`` image analogue).

    Single-channel images: ``CL_R``/``CL_FLOAT`` texels for single
    precision, and ``CL_RG``/``CL_UNSIGNED_INT32`` texels reinterpreted
    as doubles for double precision (OpenCL images have no native fp64
    format; generated kernels use the ``as_double(read_imageui(...).xy)``
    idiom).  Backed by a ``height x width`` array; rows are texture
    rows.  Images are read-only to kernels in this stack.
    """

    def __init__(
        self,
        context,
        width: int,
        height: int,
        dtype=np.float32,
        hostbuf: Optional[np.ndarray] = None,
    ):
        if width <= 0 or height <= 0:
            raise CLError(f"image dimensions must be positive, got {width}x{height}")
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise CLError(f"unsupported image element type {dt}")
        if hostbuf is not None:
            arr = np.ascontiguousarray(hostbuf, dtype=dt)
            if arr.size != width * height:
                raise CLError(
                    f"hostbuf has {arr.size} elements; image needs {width * height}"
                )
            self._array = arr.reshape(height, width).copy()
        else:
            self._array = np.zeros((height, width), dtype=dt)
        self.width = width
        self.height = height
        self.size = self._array.nbytes
        self.context = context
        context._register_allocation(self)

    @property
    def array(self) -> np.ndarray:
        """The backing store as a ``height x width`` array."""
        return self._array

    @property
    def flat_array(self) -> np.ndarray:
        return self._array.reshape(-1)

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def read(self) -> np.ndarray:
        return self._array.copy()

    def release(self) -> None:
        self.context._unregister_allocation(self)

    def __repr__(self) -> str:
        return f"<Image2D {self.width}x{self.height} {self.dtype}>"
