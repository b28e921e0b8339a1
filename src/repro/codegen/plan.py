"""Executable kernel plans.

A :class:`KernelPlan` is the structured, executable mirror of an emitted
OpenCL kernel: it precomputes the work-item ownership maps (which C
elements each work-item accumulates, under unit or non-unit stride), the
local-memory staging geometry, and the loop structure for the chosen
algorithm.  The OpenCL simulator (:mod:`repro.clsim`) executes plans; the
emitter embeds the plan's parameters in the kernel source so the
simulator's "compiler" can reconstruct it.

Building a plan *proves* structural correctness of the parameter vector:
the ownership maps are verified to be exact bijections onto the C tile,
and the staging grids are verified to cover the A/B tiles exactly once.
An ownership map is a pure function of its ``(dim, wi, vw, nonunit)``
geometry, so each distinct geometry is proved once per process and its
verified, read-only map is shared by every plan with that geometry (a
tune's thousands of candidates have about a hundred geometries).  A
geometry that fails the proof is not remembered; it fails again on
every build.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.codegen.algorithms import Algorithm
from repro.codegen.params import KernelParams
from repro.errors import LaunchError, ParameterError

__all__ = ["KernelPlan", "build_plan", "ownership_map"]


def ownership_map(dim: int, wi: int, vw: int, nonunit: bool) -> np.ndarray:
    """Map work-item lane ``i`` and element index ``a`` to a tile index.

    Returns an ``(dim, wi)`` integer array ``owner`` with
    ``owner[i, a]`` = the tile-local index (row or column) of the ``a``-th
    element owned by work-item lane ``i``.

    Unit stride (paper Fig. 2a): lane ``i`` owns the adjacent span
    ``[i*wi, (i+1)*wi)``.

    Non-unit stride (Fig. 2b): elements are interleaved across lanes with
    stride ``dim``; with vector variables (``vw >= 2``) the interleaving
    granularity is ``vw`` consecutive elements, so the stride becomes
    ``vw * dim``.
    """
    i = np.arange(dim)[:, None]
    a = np.arange(wi)[None, :]
    if not nonunit:
        return (i * wi + a).astype(np.int64)
    return ((a // vw) * (vw * dim) + i * vw + (a % vw)).astype(np.int64)


@functools.lru_cache(maxsize=1024)
def _proved_ownership(dim: int, wi: int, vw: int, nonunit: bool) -> np.ndarray:
    """The ownership map of one geometry, verified to be a bijection.

    Cached per geometry, so the returned array is shared and read-only.
    The bound is far above the 110 geometries in the full search spaces
    of every catalog device and precision.  A failing geometry raises
    and is not cached.
    """
    owner = ownership_map(dim, wi, vw, nonunit)
    extent = dim * wi
    flat = np.sort(owner.reshape(-1))
    if flat.size != extent or not np.array_equal(flat, np.arange(extent)):
        raise ParameterError(
            f"ownership map is not a bijection onto [0, {extent}): "
            f"covered {np.unique(owner).size} of {extent} indices"
        )
    owner.flags.writeable = False
    return owner


def _verified_ownership(dim: int, wi: int, vw: int, nonunit: bool, what: str) -> np.ndarray:
    """:func:`_proved_ownership`, naming the direction ``what`` on failure."""
    try:
        return _proved_ownership(dim, wi, vw, nonunit)
    except ParameterError as exc:
        raise ParameterError(f"{what} {exc}") from None


@dataclass(frozen=True)
class StagingGeometry:
    """How a work-group cooperatively loads one tile into local memory.

    The work-group's ``wg_size`` work-items are reshaped into a
    ``dim_major x dim_k`` grid (paper Section III-C); each work-item
    loads a ``wi_major x wi_k`` sub-tile.  The grid tiles the
    ``extent_k x extent_major`` tile exactly (verified at construction).
    """

    dim_major: int
    dim_k: int
    wi_major: int
    wi_k: int
    extent_major: int
    extent_k: int

    def __post_init__(self) -> None:
        if self.dim_major * self.wi_major != self.extent_major:
            raise ParameterError(
                f"staging grid does not cover tile width: "
                f"{self.dim_major} x {self.wi_major} != {self.extent_major}"
            )
        if self.dim_k * self.wi_k != self.extent_k:
            raise ParameterError(
                f"staging grid does not cover tile height: "
                f"{self.dim_k} x {self.wi_k} != {self.extent_k}"
            )

    @property
    def loads_per_workitem(self) -> int:
        return self.wi_major * self.wi_k


@dataclass(frozen=True)
class KernelPlan:
    """Executable description of one generated GEMM kernel."""

    params: KernelParams
    #: (mdimc, mwi) map: C-tile row owned by lane i, element a
    #: (read-only: shared by every plan with this geometry).
    row_owner: np.ndarray
    #: (ndimc, nwi) map: C-tile column owned by lane j, element b
    #: (read-only, shared likewise).
    col_owner: np.ndarray
    #: Staging geometry for A when ``shared_a`` (else None).
    staging_a: StagingGeometry | None
    #: Staging geometry for B when ``shared_b`` (else None).
    staging_b: StagingGeometry | None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.params.precision == "s" else np.float64)

    @property
    def algorithm(self) -> Algorithm:
        return self.params.algorithm

    # ------------------------------------------------------------------
    def workgroup_grid(self, M: int, N: int) -> Tuple[int, int]:
        """Number of work-groups in (M, N).

        Guarded kernels cover partial edge tiles (ceil); unguarded ones
        require padded multiples (enforced by :meth:`check_problem`).
        """
        p = self.params
        if p.guard_edges:
            return -(-M // p.mwg), -(-N // p.nwg)
        return M // p.mwg, N // p.nwg

    def global_size(self, M: int, N: int) -> Tuple[int, int]:
        """OpenCL NDRange global size for a padded ``M x N`` output."""
        gm, gn = self.workgroup_grid(M, N)
        return gm * self.params.mdimc, gn * self.params.ndimc

    def local_size(self) -> Tuple[int, int]:
        return self.params.mdimc, self.params.ndimc

    def check_problem(self, M: int, N: int, K: int) -> None:
        """Validate that a (padded) problem is launchable with this plan.

        The generated kernels require each dimension to be a multiple of
        its work-group blocking factor (the GEMM routine layer zero-pads
        arbitrary sizes; Section IV-B), and the pipelined algorithms need
        at least two k-iterations for their prologue/epilogue.
        """
        p = self.params
        if not p.guard_edges and (M % p.mwg or N % p.nwg or K % p.kwg):
            raise LaunchError(
                f"problem {M}x{N}x{K} not divisible by blocking "
                f"{p.mwg}x{p.nwg}x{p.kwg}; pad inputs first "
                f"(or generate with guard_edges)"
            )
        # Guarded kernels degrade gracefully to a single k-iteration:
        # the pipelined loop body is empty and the epilogue consumes the
        # prologue's tile.  Unguarded PL/DB kernels are generated for
        # padded problems with at least two iterations (the paper's
        # Figs. 5-6 loop structure), which the padding layer guarantees.
        min_iters = 1 if p.guard_edges else p.algorithm.min_k_iterations
        k_iters = -(-K // p.kwg) if p.guard_edges else K // p.kwg
        if k_iters < min_iters:
            raise LaunchError(
                f"{p.algorithm.value} kernel needs K >= {min_iters}*Kwg "
                f"({min_iters * p.kwg}), got K={K}"
            )

    def row_permutation(self) -> np.ndarray:
        """C-tile rows in (lane, element) ownership order — a permutation."""
        return self.row_owner.reshape(-1)

    def col_permutation(self) -> np.ndarray:
        return self.col_owner.reshape(-1)


def build_plan(params: KernelParams) -> KernelPlan:
    """Construct and verify the executable plan for a parameter vector."""
    row_owner = _verified_ownership(
        params.mdimc, params.mwi, params.vw, params.stride.m, "row (M)")
    col_owner = _verified_ownership(
        params.ndimc, params.nwi, params.vw, params.stride.n, "column (N)")

    staging_a = None
    if params.shared_a:
        staging_a = StagingGeometry(
            dim_major=params.effective_mdima,
            dim_k=params.kdima,
            wi_major=params.mwia,
            wi_k=params.kwia,
            extent_major=params.mwg,
            extent_k=params.kwg,
        )
    staging_b = None
    if params.shared_b:
        staging_b = StagingGeometry(
            dim_major=params.effective_ndimb,
            dim_k=params.kdimb,
            wi_major=params.nwib,
            wi_k=params.kwib,
            extent_major=params.nwg,
            extent_k=params.kwg,
        )
    return KernelPlan(
        params=params,
        row_owner=row_owner,
        col_owner=col_owner,
        staging_a=staging_a,
        staging_b=staging_b,
    )
