"""Functional execution of kernel plans.

Two execution paths compute ``alpha * A^T B + beta * C``; they agree to
rounding, not bit-for-bit, because they accumulate in different orders
(the test suite checks this across the parameter matrix):

* ``workgroup`` — faithful: iterates the work-group grid; for each
  work-group walks the algorithm's k-loop structure (BA's single loop,
  PL's prologue/body/epilogue, DB's alternating half-buffers), gathers
  tiles through the layout address functions, stages them through
  simulated local-memory arrays when the plan says so, accumulates
  through the work-item ownership permutations, and merges with
  alpha/beta.  Index-arithmetic mistakes anywhere in the stack produce
  numerically wrong output.
* ``fast`` — whole-matrix: unpacks the operands from their layouts and
  issues one BLAS-3 call.  Used for large benchmark problems where the
  faithful path's Python-level loops would dominate.

Both are differentially tested against the gold standard, the
executable spec (:func:`repro.spec.machine.run_kernel`), which
interprets every work-item of the emitted OpenCL C text itself.

Within a work-group the work-items are vectorised as numpy axes — the
idiomatic way to simulate a data-parallel device on a CPU (everything in
a work-group is, by OpenCL semantics, observationally equivalent to any
interleaving that respects barriers; the plan verified barrier-free
ownership/staging disjointness at build time).
"""

from __future__ import annotations

import numpy as np

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import tile_view
from repro.codegen.plan import KernelPlan
from repro.codegen.layouts import unpack_matrix
from repro.errors import LaunchError

__all__ = ["execute_plan", "ExecutionArrays"]


def _clipped_tile(
    flat: np.ndarray, K: int, X: int, kb: int, xb: int, bk: int, bx: int,
    dtype,
) -> np.ndarray:
    """A full ``bk x bx`` tile from an unpadded row-major operand.

    Edge tiles are zero-filled beyond the matrix — exactly what the
    guarded kernel's bounds-checked reads produce (out-of-range loads
    are skipped and the corresponding products never contribute).
    """
    mat = flat.reshape(K, X)
    k0, x0 = kb * bk, xb * bx
    piece = mat[k0:k0 + bk, x0:x0 + bx]
    if piece.shape == (bk, bx):
        return piece
    out = np.zeros((bk, bx), dtype=dtype)
    out[: piece.shape[0], : piece.shape[1]] = piece
    return out


class ExecutionArrays:
    """Validated, shaped views of the kernel's buffer arguments."""

    def __init__(
        self,
        plan: KernelPlan,
        a_flat: np.ndarray,
        b_flat: np.ndarray,
        c_flat: np.ndarray,
        M: int,
        N: int,
        K: int,
    ):
        dtype = plan.dtype
        for name, arr, n in (("A", a_flat, K * M), ("B", b_flat, K * N), ("C", c_flat, M * N)):
            if arr.dtype != dtype:
                raise LaunchError(
                    f"{name} buffer dtype {arr.dtype} does not match kernel "
                    f"precision {dtype}"
                )
            if arr.size != n:
                raise LaunchError(
                    f"{name} buffer has {arr.size} elements; kernel expects {n}"
                )
        self.a = a_flat
        self.b = b_flat
        self.c = c_flat.reshape(M, N)
        self.M, self.N, self.K = M, N, K


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
    at = unpack_matrix(ar.a, p.layout_a, ar.K, ar.M, p.kwg, p.mwg)
    b = unpack_matrix(ar.b, p.layout_b, ar.K, ar.N, p.kwg, p.nwg)
    ar.c *= plan.dtype.type(beta)
    ar.c += plan.dtype.type(alpha) * (at.T @ b)


def _gather_a(plan: KernelPlan, ar: ExecutionArrays, kb: int, mb: int) -> np.ndarray:
    p = plan.params
    if p.guard_edges:
        return _clipped_tile(ar.a, ar.K, ar.M, kb, mb, p.kwg, p.mwg, plan.dtype)
    return tile_view(ar.a, p.layout_a, kb, mb, ar.K, ar.M, p.kwg, p.mwg)


def _gather_b(plan: KernelPlan, ar: ExecutionArrays, kb: int, nb: int) -> np.ndarray:
    p = plan.params
    if p.guard_edges:
        return _clipped_tile(ar.b, ar.K, ar.N, kb, nb, p.kwg, p.nwg, plan.dtype)
    return tile_view(ar.b, p.layout_b, kb, nb, ar.K, ar.N, p.kwg, p.nwg)


class _WorkGroup:
    """State of one simulated work-group: local tiles and accumulators.

    The accumulator is kept in *ownership order*: axis 0 runs over
    (M-lane, owned-element) pairs, axis 1 over (N-lane, owned-element)
    pairs, exactly the private `cpm` register blocks of the emitted
    kernel concatenated over the work-group.
    """

    def __init__(self, plan: KernelPlan, mb: int, nb: int):
        self.plan = plan
        self.mb = mb
        self.nb = nb
        p = plan.params
        # Ownership permutations: tile index per (lane, element), flattened.
        self.rows = plan.row_permutation()
        self.cols = plan.col_permutation()
        self.acc = np.zeros((p.mwg, p.nwg), dtype=plan.dtype)
        # Simulated local memory (contents only; capacity was checked at
        # build time).  DB keeps two half-height buffers per matrix.
        self.alm: list[np.ndarray] = []
        self.blm: list[np.ndarray] = []

    def stage(self, which: str, tile: np.ndarray, slot: int = 0) -> None:
        """Cooperative copy of a (half-)tile into a local buffer slot."""
        target = self.alm if which == "a" else self.blm
        while len(target) <= slot:
            target.append(np.empty((0, 0), dtype=self.plan.dtype))
        target[slot] = np.ascontiguousarray(tile)

    def local(self, which: str, slot: int = 0) -> np.ndarray:
        return (self.alm if which == "a" else self.blm)[slot]

    def multiply_add(self, a_tile: np.ndarray, b_tile: np.ndarray) -> None:
        """acc += a_tile^T @ b_tile through the ownership permutations.

        ``a_tile`` is (k x Mwg), ``b_tile`` is (k x Nwg).  The columns
        are gathered in ownership order — the per-work-item private
        loads of the emitted kernel — and the result is scattered back
        the same way, so a wrong ownership map corrupts the output.
        """
        a_perm = a_tile[:, self.rows]
        b_perm = b_tile[:, self.cols]
        self.acc[np.ix_(self.rows, self.cols)] += a_perm.T @ b_perm

    def merge(self, ar: ExecutionArrays, alpha, beta) -> None:
        p = self.plan.params
        r0, c0 = self.mb * p.mwg, self.nb * p.nwg
        gi = r0 + self.rows
        gj = c0 + self.cols
        if p.guard_edges:
            # Guarded merge: out-of-range lanes write nothing.
            rsel = gi < ar.M
            csel = gj < ar.N
            if not rsel.any() or not csel.any():
                return
            cidx = np.ix_(gi[rsel], gj[csel])
            aidx = np.ix_(self.rows[rsel], self.cols[csel])
            ar.c[cidx] = alpha * self.acc[aidx] + beta * ar.c[cidx]
            return
        block = ar.c[r0 : r0 + p.mwg, c0 : c0 + p.nwg]
        idx = np.ix_(self.rows, self.cols)
        block[idx] = alpha * self.acc[idx] + beta * block[idx]


def _execute_workgroups(plan: KernelPlan, ar: ExecutionArrays, alpha, beta) -> None:
    p = plan.params
    grid_m, grid_n = plan.workgroup_grid(ar.M, ar.N)
    runner = {
        Algorithm.BA: _run_ba,
        Algorithm.PL: _run_pl,
        Algorithm.DB: _run_db,
    }[p.algorithm]
    for mb in range(grid_m):
        for nb in range(grid_n):
            wg = _WorkGroup(plan, mb, nb)
            runner(plan, ar, wg)
            wg.merge(ar, alpha, beta)


def _tiles(plan: KernelPlan, ar: ExecutionArrays, wg: _WorkGroup, kb: int):
    return _gather_a(plan, ar, kb, wg.mb), _gather_b(plan, ar, kb, wg.nb)


def _k_blocks(plan: KernelPlan, K: int) -> int:
    p = plan.params
    return -(-K // p.kwg) if p.guard_edges else K // p.kwg


def _run_ba(plan: KernelPlan, ar: ExecutionArrays, wg: _WorkGroup) -> None:
    """Basic algorithm (paper Fig. 4): stage, barrier, compute, barrier."""
    p = plan.params
    for kb in range(_k_blocks(plan, ar.K)):
        a_tile, b_tile = _tiles(plan, ar, wg, kb)
        if p.shared_a:
            wg.stage("a", a_tile)
            a_src = wg.local("a")
        else:
            a_src = a_tile
        if p.shared_b:
            wg.stage("b", b_tile)
            b_src = wg.local("b")
        else:
            b_src = b_tile
        # barrier; inner pwi loop (fully unrolled in Kwi steps); barrier.
        wg.multiply_add(a_src, b_src)


def _run_pl(plan: KernelPlan, ar: ExecutionArrays, wg: _WorkGroup) -> None:
    """Software pipelining (paper Fig. 5).

    The body computes on the tiles staged in local memory while the
    *next* tiles travel global -> private; they are committed to local
    memory after a barrier.  Functionally: compute always uses the tiles
    staged in the previous step, and the epilogue consumes the last ones.
    """
    p = plan.params
    if not (p.shared_a or p.shared_b):
        _run_ba(plan, ar, wg)  # degenerate PL (no local memory): same order
        return
    n_iter = _k_blocks(plan, ar.K)
    # Prologue: stage tiles of k-block 0.
    a_tile, b_tile = _tiles(plan, ar, wg, 0)
    if p.shared_a:
        wg.stage("a", a_tile)
    if p.shared_b:
        wg.stage("b", b_tile)
    prefetch_a = prefetch_b = None
    for kb in range(n_iter - 1):
        # Prefetch next tiles into private staging...
        next_a, next_b = _tiles(plan, ar, wg, kb + 1)
        if p.shared_a:
            prefetch_a = np.ascontiguousarray(next_a)
        if p.shared_b:
            prefetch_b = np.ascontiguousarray(next_b)
        # ...compute on the currently staged tiles...
        cur_a = wg.local("a") if p.shared_a else _gather_a(plan, ar, kb, wg.mb)
        cur_b = wg.local("b") if p.shared_b else _gather_b(plan, ar, kb, wg.nb)
        wg.multiply_add(cur_a, cur_b)
        # ...barrier; commit the prefetch; barrier.
        if p.shared_a:
            wg.stage("a", prefetch_a)
        if p.shared_b:
            wg.stage("b", prefetch_b)
    # Epilogue: the last staged tiles.
    last = n_iter - 1
    cur_a = wg.local("a") if p.shared_a else _gather_a(plan, ar, last, wg.mb)
    cur_b = wg.local("b") if p.shared_b else _gather_b(plan, ar, last, wg.nb)
    wg.multiply_add(cur_a, cur_b)


def _run_db(plan: KernelPlan, ar: ExecutionArrays, wg: _WorkGroup) -> None:
    """Double buffering (paper Fig. 6).

    Each ``Kwg`` tile is processed as two half-height pieces; while one
    half-buffer is computed on, the other is being filled.  Buffer 0
    holds even halves, buffer 1 odd halves.
    """
    p = plan.params
    half = p.kwg // 2

    def halves(kb: int):
        a_tile, b_tile = _tiles(plan, ar, wg, kb)
        return (
            (a_tile[:half], a_tile[half:]),
            (b_tile[:half], b_tile[half:]),
        )

    def compute(a_half, b_half, slot):
        a_src = wg.local("a", slot) if p.shared_a else a_half
        b_src = wg.local("b", slot) if p.shared_b else b_half
        wg.multiply_add(a_src, b_src)

    n_iter = _k_blocks(plan, ar.K)
    # Prologue: fill slot 0 with the first half of k-block 0.
    (a0, a1), (b0, b1) = halves(0)
    if p.shared_a:
        wg.stage("a", a0, slot=0)
    if p.shared_b:
        wg.stage("b", b0, slot=0)
    for kb in range(n_iter):
        (a0, a1), (b0, b1) = halves(kb)
        # Load odd half into slot 1 while computing on slot 0.
        if p.shared_a:
            wg.stage("a", a1, slot=1)
        if p.shared_b:
            wg.stage("b", b1, slot=1)
        compute(a0, b0, slot=0)
        # Load the *next* block's even half into slot 0 while computing
        # on slot 1 (the epilogue has no next block).
        if kb + 1 < n_iter:
            (na0, _), (nb0, _) = halves(kb + 1)
            if p.shared_a:
                wg.stage("a", na0, slot=0)
            if p.shared_b:
                wg.stage("b", nb0, slot=0)
        compute(a1, b1, slot=1)
