"""Functional execution of kernel plans.

Two execution paths compute ``alpha * A^T B + beta * C``; they agree to
rounding, not bit-for-bit, because they accumulate in different orders
(the test suite checks this across the parameter matrix):

* ``workgroup`` — faithful: walks the algorithm's k-loop structure
  (BA's single loop, PL's prologue/body/epilogue, DB's alternating
  half-buffers) for the whole work-group grid at once, which is a numpy
  axis rather than a Python loop.  Each k-chunk gathers every
  work-group's tiles through the layout address functions, stages them
  through simulated local-memory arrays when the plan says so, puts them
  into work-item ownership order, and adds all work-groups' products
  with one stacked ``np.matmul``; one un-permute through the ownership
  maps merges the result with alpha/beta.  Index-arithmetic mistakes
  anywhere in the stack produce numerically wrong output.
* ``fast`` — whole-matrix: reads each operand as its logical ``K x X``
  matrix and issues one BLAS-3 call.  An operand a pack kernel wrote is
  still held as the matrix the kernel staged, so it is neither packed
  nor unpacked on the host; other operands are reshaped (``ROW``) or
  unpacked from their layouts.  Used for large benchmark problems where
  the faithful path's per-k-chunk gathers, copies and small products
  would dominate.

Both are differentially tested against the gold standard, the
executable spec (:func:`repro.spec.machine.run_kernel`), which
interprets every work-item of the emitted OpenCL C text itself.

Work-groups and the work-items within them are vectorised as numpy
axes — the idiomatic way to simulate a data-parallel device on a CPU
(work-groups are independent, and everything in a work-group is, by
OpenCL semantics, observationally equivalent to any interleaving that
respects barriers; the plan verified barrier-free ownership/staging
disjointness at build time).  Each work-group's product is still its
own ``(Mwg x k) @ (k x Nwg)`` BLAS call, so the arithmetic, and with it
every output bit, does not depend on how many work-groups there are.
"""

from __future__ import annotations

import numpy as np

from repro.clsim.memory import Buffer
from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout, tile_view, unpack_matrix
from repro.codegen.plan import KernelPlan
from repro.errors import LaunchError

__all__ = ["execute_plan", "ExecutionArrays"]


def _clipped_tile(
    flat: np.ndarray, K: int, X: int, kb: int, bk: int, bx: int, dtype,
) -> np.ndarray:
    """Every ``bk x bx`` tile of k-block ``kb`` from an unpadded row-major
    operand, stacked on a leading axis: shape ``(ceil(X / bx), bk, bx)``.

    Edge tiles are zero-filled beyond the matrix — exactly what the
    guarded kernel's bounds-checked reads produce (out-of-range loads
    are skipped and the corresponding products never contribute).
    """
    width = -(-X // bx) * bx
    piece = flat.reshape(K, X)[kb * bk : (kb + 1) * bk]
    if piece.shape != (bk, width):
        padded = np.zeros((bk, width), dtype=dtype)
        padded[: piece.shape[0], :X] = piece
        piece = padded
    return piece.reshape(bk, width // bx, bx).transpose(1, 0, 2)


class ExecutionArrays:
    """Validated, shaped views of the kernel's buffer arguments.

    ``a`` and ``b`` are flat packed arrays or the memory objects
    (:class:`~repro.clsim.memory.Buffer`, ``Image2D``) bound to the
    kernel.  A memory object's contents are read only when a path asks
    for them: :attr:`a`/:attr:`b` give the flat packed contents, and
    :meth:`logical` gives the ``K x X`` matrix without building them
    when a pack kernel's staged matrix is still held.
    """

    def __init__(
        self,
        plan: KernelPlan,
        a,
        b,
        c_flat: np.ndarray,
        M: int,
        N: int,
        K: int,
    ):
        dtype = plan.dtype
        for name, arr, n in (("A", a, K * M), ("B", b, K * N), ("C", c_flat, M * N)):
            size = arr.size if isinstance(arr, np.ndarray) else (
                arr.size // arr.dtype.itemsize)
            if arr.dtype != dtype:
                raise LaunchError(
                    f"{name} buffer dtype {arr.dtype} does not match kernel "
                    f"precision {dtype}"
                )
            if size != n:
                raise LaunchError(
                    f"{name} buffer has {size} elements; kernel expects {n}"
                )
        self._a = a
        self._b = b
        self.c = c_flat.reshape(M, N)
        self.M, self.N, self.K = M, N, K

    @property
    def a(self) -> np.ndarray:
        """Flat packed contents of the A operand."""
        return _flat(self._a)

    @property
    def b(self) -> np.ndarray:
        """Flat packed contents of the B operand."""
        return _flat(self._b)

    def logical(self, which: str, layout: Layout, bk: int, bx: int) -> np.ndarray:
        """Operand ``which`` ("a" or "b") as its ``K x X`` matrix.

        A pack kernel's held matrix when its layout and blocking match;
        otherwise the packed contents, reshaped (``ROW``: a view) or
        unpacked.
        """
        mem, X = (self._a, self.M) if which == "a" else (self._b, self.N)
        if isinstance(mem, Buffer):
            staged = mem.held(layout, bk, bx)
            if staged is not None and staged.shape == (self.K, X):
                return staged
        flat = _flat(mem)
        if layout is Layout.ROW:
            return flat.reshape(self.K, X)
        return unpack_matrix(flat, layout, self.K, X, bk, bx)


def _flat(mem) -> np.ndarray:
    return mem if isinstance(mem, np.ndarray) else mem.flat_array


def execute_plan(
    plan: KernelPlan,
    arrays: ExecutionArrays,
    alpha: float,
    beta: float,
    mode: str = "workgroup",
    injector=None,
    device: str = "",
    fault_key: str = "",
) -> None:
    """Run the kernel over the buffers in-place.

    With a fault ``injector``, a firing ``result`` rule silently
    overwrites part of the output with NaNs after the (correct)
    computation — the simulated analogue of a device writing garbage
    without reporting an error, detectable only by functional
    verification downstream.
    """
    plan.check_problem(arrays.M, arrays.N, arrays.K)
    if mode == "fast":
        _execute_fast(plan, arrays, alpha, beta)
    elif mode == "workgroup":
        _execute_workgroups(plan, arrays, alpha, beta)
    else:
        raise LaunchError(f"unknown execution mode {mode!r}")
    if injector is not None and injector.corrupts_result(
        device, fault_key, params=plan.params
    ):
        _corrupt_result(plan, arrays)


def _corrupt_result(plan: KernelPlan, arrays: ExecutionArrays) -> None:
    """Silently poison one output tile (no exception, no log)."""
    p = plan.params
    arrays.c[: min(p.mwg, arrays.M), : min(p.nwg, arrays.N)] = np.nan


def _execute_fast(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    p = plan.params
    at = ar.logical("a", p.layout_a, p.kwg, p.mwg)
    b = ar.logical("b", p.layout_b, p.kwg, p.nwg)
    # The product is taken before C is scaled: a ROW operand is a view of
    # its buffer, which may be C's.
    prod = at.T @ b
    prod *= plan.dtype.type(alpha)
    ar.c *= plan.dtype.type(beta)
    ar.c += prod


class _Grid:
    """State of every work-group of a launch: local tiles and accumulators.

    Tiles are stacked over the grid: a gathered A tile is
    ``(grid_m, k, Mwg)``, a B tile ``(grid_n, k, Nwg)``.  The accumulator
    is ``(grid_m, grid_n, Mwg, Nwg)`` in *ownership order*: axis 2 runs
    over (M-lane, owned-element) pairs, axis 3 over (N-lane,
    owned-element) pairs, exactly the private `cpm` register blocks of
    each work-group of the emitted kernel concatenated.
    """

    def __init__(self, plan: KernelPlan, ar: ExecutionArrays):
        self.plan = plan
        p = plan.params
        # Ownership permutations: tile index per (lane, element), flattened.
        self.rows = plan.row_permutation()
        self.cols = plan.col_permutation()
        grid_m, grid_n = plan.workgroup_grid(ar.M, ar.N)
        self.acc = np.zeros((grid_m, grid_n, p.mwg, p.nwg), dtype=plan.dtype)
        # Simulated local memory (contents only; capacity was checked at
        # build time).  DB keeps two half-height buffers per matrix.
        self.alm: list[np.ndarray] = []
        self.blm: list[np.ndarray] = []

    def stage(self, which: str, tile: np.ndarray, slot: int = 0) -> None:
        """Cooperative copy of a (half-)tile into a local buffer slot."""
        target = self.alm if which == "a" else self.blm
        while len(target) <= slot:
            target.append(np.empty((0, 0, 0), dtype=self.plan.dtype))
        target[slot] = np.ascontiguousarray(tile)

    def local(self, which: str, slot: int = 0) -> np.ndarray:
        return (self.alm if which == "a" else self.blm)[slot]

    def multiply_add(self, a_tile: np.ndarray, b_tile: np.ndarray) -> None:
        """acc += a_tile^T @ b_tile per work-group, in ownership order.

        ``a_tile`` is (grid_m x k x Mwg), ``b_tile`` is (grid_n x k x
        Nwg).  The columns are gathered in ownership order — the
        per-work-item private loads of the emitted kernel — and every
        (mb, nb) product lands in that work-group's accumulator, so a
        wrong ownership map corrupts the output.
        """
        a_perm = a_tile[:, :, self.rows]
        b_perm = b_tile[:, :, self.cols]
        self.acc += np.matmul(a_perm.transpose(0, 2, 1)[:, None], b_perm[None])

    def merge(self, ar: ExecutionArrays, alpha, beta) -> None:
        """Un-permute the accumulator into C, merging with alpha/beta.

        Inverting the ownership maps places each accumulator row and
        column: every (lane, element) pair writes its position into the
        tile slot it owns.  A map that is not a bijection leaves slots
        unowned (they read position 0), so it corrupts C.  Cropping to
        ``M x N`` is the guarded kernel's out-of-range lanes writing
        nothing.
        """
        p = self.plan.params
        grid_m, grid_n = self.acc.shape[:2]
        slot_rows = np.zeros(p.mwg, dtype=np.intp)
        slot_rows[self.rows] = np.arange(p.mwg)
        slot_cols = np.zeros(p.nwg, dtype=np.intp)
        slot_cols[self.cols] = np.arange(p.nwg)
        gj = (np.arange(grid_n)[:, None] * p.nwg + slot_cols).reshape(-1)
        acc = self.acc.transpose(0, 2, 1, 3).take(slot_rows, axis=1)
        acc = acc.reshape(grid_m * p.mwg, grid_n * p.nwg)[: ar.M]
        ar.c[...] = alpha * acc.take(gj[: ar.N], axis=1) + beta * ar.c


def _execute_workgroups(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    runner = {
        Algorithm.BA: _run_ba,
        Algorithm.PL: _run_pl,
        Algorithm.DB: _run_db,
    }[plan.params.algorithm]
    grid = _Grid(plan, ar)
    runner(plan, ar, grid)
    grid.merge(ar, alpha, beta)


def _tiles(plan: KernelPlan, ar: ExecutionArrays, kb: int):
    """Every work-group's A and B tiles of k-block ``kb``, stacked."""
    p = plan.params
    if p.guard_edges:
        return (_clipped_tile(ar.a, ar.K, ar.M, kb, p.kwg, p.mwg, plan.dtype),
                _clipped_tile(ar.b, ar.K, ar.N, kb, p.kwg, p.nwg, plan.dtype))
    return (tile_view(ar.a, p.layout_a, kb, None, ar.K, ar.M, p.kwg, p.mwg),
            tile_view(ar.b, p.layout_b, kb, None, ar.K, ar.N, p.kwg, p.nwg))


def _k_blocks(plan: KernelPlan, K: int) -> int:
    p = plan.params
    return -(-K // p.kwg) if p.guard_edges else K // p.kwg


def _run_ba(plan: KernelPlan, ar: ExecutionArrays, grid: _Grid) -> None:
    """Basic algorithm (paper Fig. 4): stage, barrier, compute, barrier."""
    p = plan.params
    for kb in range(_k_blocks(plan, ar.K)):
        a_tile, b_tile = _tiles(plan, ar, kb)
        if p.shared_a:
            grid.stage("a", a_tile)
            a_src = grid.local("a")
        else:
            a_src = a_tile
        if p.shared_b:
            grid.stage("b", b_tile)
            b_src = grid.local("b")
        else:
            b_src = b_tile
        # barrier; inner pwi loop (fully unrolled in Kwi steps); barrier.
        grid.multiply_add(a_src, b_src)


def _run_pl(plan: KernelPlan, ar: ExecutionArrays, grid: _Grid) -> None:
    """Software pipelining (paper Fig. 5).

    The body computes on the tiles staged in local memory while the
    *next* tiles travel global -> private; they are committed to local
    memory after a barrier.  Functionally: compute always uses the tiles
    staged in the previous step, and the epilogue consumes the last ones.
    """
    p = plan.params
    if not (p.shared_a or p.shared_b):
        _run_ba(plan, ar, grid)  # degenerate PL (no local memory): same order
        return
    n_iter = _k_blocks(plan, ar.K)
    # Prologue: stage tiles of k-block 0.
    a_tile, b_tile = _tiles(plan, ar, 0)
    if p.shared_a:
        grid.stage("a", a_tile)
    if p.shared_b:
        grid.stage("b", b_tile)
    prefetch_a = prefetch_b = None
    for kb in range(n_iter - 1):
        # Prefetch next tiles into private staging...
        next_a, next_b = _tiles(plan, ar, kb + 1)
        if p.shared_a:
            prefetch_a = np.ascontiguousarray(next_a)
        if p.shared_b:
            prefetch_b = np.ascontiguousarray(next_b)
        # ...compute on the currently staged tiles...
        grid.multiply_add(grid.local("a") if p.shared_a else a_tile,
                          grid.local("b") if p.shared_b else b_tile)
        # ...barrier; commit the prefetch; barrier.
        if p.shared_a:
            grid.stage("a", prefetch_a)
        if p.shared_b:
            grid.stage("b", prefetch_b)
        a_tile, b_tile = next_a, next_b
    # Epilogue: the last staged tiles.
    grid.multiply_add(grid.local("a") if p.shared_a else a_tile,
                      grid.local("b") if p.shared_b else b_tile)


def _run_db(plan: KernelPlan, ar: ExecutionArrays, grid: _Grid) -> None:
    """Double buffering (paper Fig. 6).

    Each ``Kwg`` tile is processed as two half-height pieces; while one
    half-buffer is computed on, the other is being filled.  Buffer 0
    holds even halves, buffer 1 odd halves.
    """
    p = plan.params
    half = p.kwg // 2

    def halves(kb: int):
        a_tile, b_tile = _tiles(plan, ar, kb)
        return (
            (a_tile[:, :half], a_tile[:, half:]),
            (b_tile[:, :half], b_tile[:, half:]),
        )

    def compute(a_half, b_half, slot):
        a_src = grid.local("a", slot) if p.shared_a else a_half
        b_src = grid.local("b", slot) if p.shared_b else b_half
        grid.multiply_add(a_src, b_src)

    n_iter = _k_blocks(plan, ar.K)
    # Prologue: fill slot 0 with the first half of k-block 0.
    (a0, a1), (b0, b1) = halves(0)
    if p.shared_a:
        grid.stage("a", a0, slot=0)
    if p.shared_b:
        grid.stage("b", b0, slot=0)
    for kb in range(n_iter):
        (a0, a1), (b0, b1) = halves(kb)
        # Load odd half into slot 1 while computing on slot 0.
        if p.shared_a:
            grid.stage("a", a1, slot=1)
        if p.shared_b:
            grid.stage("b", b1, slot=1)
        compute(a0, b0, slot=0)
        # Load the *next* block's even half into slot 0 while computing
        # on slot 1 (the epilogue has no next block).
        if kb + 1 < n_iter:
            (na0, _), (nb0, _) = halves(kb + 1)
            if p.shared_a:
                grid.stage("a", na0, slot=0)
            if p.shared_b:
                grid.stage("b", nb0, slot=0)
        compute(a1, b1, slot=1)
