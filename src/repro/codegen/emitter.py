"""OpenCL C source emission for generated GEMM kernels.

The emitter turns a validated :class:`~repro.codegen.params.KernelParams`
into OpenCL C source for a ``C <- alpha * A^T B + beta * C`` kernel over
packed row-major / block-major operands (paper Section III).  The first
source line is a machine-readable metadata header,

``// GEMMGEN-META: {"generator": ..., "params": {...}}``

which the simulator's compiler (:class:`repro.clsim.Program`) parses to
reconstruct the execution plan — playing the role a real OpenCL compiler
front-end plays for the paper's generator.

The emitted source is structurally faithful: blocking factors appear as
``#define``s; with ``vw > 1`` the accumulators and B fragments are vector
variables (``float4``/``double2``/...) loaded and stored with
``vload``/``vstore``; local-memory tiles and
``barrier(CLK_LOCAL_MEM_FENCE)`` appear exactly when a matrix is shared;
the inner loop is unrolled ``Kwi`` deep under ``#pragma unroll``; and the
three algorithms produce the loop structures of the paper's Figs. 4-6.
"""

from __future__ import annotations

import json
import textwrap
from typing import List

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.params import KernelParams
from repro.errors import BuildError, ParameterError

__all__ = [
    "emit_kernel_source",
    "parse_meta_header",
    "parse_any_meta",
    "KERNEL_NAME",
    "META_PREFIX",
]

KERNEL_NAME = "gemm_atb"
META_PREFIX = "// GEMMGEN-META: "
GENERATOR_VERSION = "repro-gemmgen/1.2.0"

#: Base of the last staged K-tile: ``KWG * floor((kSizeK - 1) / KWG)``.
#: For K a multiple of KWG (the only launchable case for unguarded
#: PL/DB) this equals ``kSizeK - KWG``; for guarded kernels with ragged
#: K it is the base the prologue/steady-state staging actually used for
#: the final tile, where the naive ``kSizeK - KWG`` would misalign the
#: direct-loaded operand against the staged tile (double-counting some k
#: and, for K < KWG, reading negative indices).
_LAST_TILE_BASE = "((kSizeK - 1) / KWG) * KWG"


class _Src:
    """Tiny indented source builder."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        for line in text.splitlines() or [""]:
            self.lines.append(("  " * self.depth + line).rstrip())

    def open(self, text: str) -> None:
        self.emit(text)
        self.depth += 1

    def close(self, text: str = "}") -> None:
        self.depth -= 1
        self.emit(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _base_type(precision: str) -> str:
    return "float" if precision == "s" else "double"


def _vec_type(precision: str, vw: int) -> str:
    base = _base_type(precision)
    return base if vw == 1 else f"{base}{vw}"


def _offset_expr(layout: Layout, k: str, m: str, K: str, M: str, bk: int, bm: int) -> str:
    """Flat-offset expression matching :func:`repro.codegen.layouts.element_offsets`."""
    if layout is Layout.ROW:
        return f"(({k}) * ({M}) + ({m}))"
    if layout is Layout.CBL:
        return f"((({m}) / {bm}) * (({K}) * {bm}) + ({k}) * {bm} + (({m}) % {bm}))"
    return (
        f"((({k}) / {bk}) * ({bk} * ({M})) + (({m}) / {bm}) * ({bk} * {bm})"
        f" + (({k}) % {bk}) * {bm} + (({m}) % {bm}))"
    )


def _row_expr(p: KernelParams, a: str) -> str:
    """C-tile row owned by lane ``i0``, element ``a`` (ownership map)."""
    if p.stride.m:
        return f"(({a}) / VW) * (VW * MDIMC) + i0 * VW + (({a}) % VW)"
    return f"i0 * MWI + ({a})"


def _colv_expr(p: KernelParams, bv: str) -> str:
    """First C-tile column of vector slot ``bv`` owned by lane ``j0``.

    Columns are handled in aligned groups of ``VW``; under non-unit N
    stride the groups interleave across lanes with stride ``VW * NDIMC``
    (paper Fig. 2b with vector variables).
    """
    if p.stride.n:
        return f"({bv}) * (VW * NDIMC) + j0 * VW"
    return f"j0 * NWI + ({bv}) * VW"


def _emit_defines(s: _Src, p: KernelParams) -> None:
    s.emit("/* Work-group blocking (paper Fig. 1) */")
    s.emit(f"#define MWG {p.mwg}")
    s.emit(f"#define NWG {p.nwg}")
    s.emit(f"#define KWG {p.kwg}")
    s.emit("/* Work-item blocking (paper Fig. 2) */")
    s.emit(f"#define MDIMC {p.mdimc}")
    s.emit(f"#define NDIMC {p.ndimc}")
    s.emit(f"#define MWI {p.mwi}")
    s.emit(f"#define NWI {p.nwi}")
    s.emit(f"#define KWI {p.kwi}")
    s.emit("/* Local-memory staging reshape (paper Section III-C) */")
    s.emit(f"#define MDIMA {p.effective_mdima}")
    s.emit(f"#define KDIMA {p.kdima}")
    s.emit(f"#define KDIMB {p.kdimb}")
    s.emit(f"#define NDIMB {p.effective_ndimb}")
    s.emit(f"#define MWIA {p.mwia}")
    s.emit(f"#define KWIA {p.kwia}")
    s.emit(f"#define KWIB {p.kwib}")
    s.emit(f"#define NWIB {p.nwib}")
    s.emit(f"#define VW {p.vw}")
    s.emit(f"#define NWIV {p.nwi // p.vw}  /* NWI in vector units */")
    s.emit("")


def _emit_read_macros(s: _Src, p: KernelParams, real: str) -> None:
    """READ_A/READ_B: one macro per operand for all global reads.

    Buffer kernels expand to offset arithmetic in the operand's layout;
    image kernels expand to texture fetches (``read_imagef`` for single
    precision; the ``as_double(read_imageui(...).xy)`` idiom for double,
    since OpenCL images have no native fp64 format).
    """
    if p.use_images:
        s.emit("__constant sampler_t SMP = CLK_NORMALIZED_COORDS_FALSE |")
        s.emit("                            CLK_ADDRESS_NONE | CLK_FILTER_NEAREST;")
        s.emit("/* operands read through the texture cache (image objects) */")
        if p.precision == "d":
            fetch_a = "as_double(read_imageui(agm, SMP, (int2)((m), (k))).xy)"
            fetch_b = "as_double(read_imageui(bgm, SMP, (int2)((n), (k))).xy)"
        else:
            fetch_a = "read_imagef(agm, SMP, (int2)((m), (k))).x"
            fetch_b = "read_imagef(bgm, SMP, (int2)((n), (k))).x"
        if p.guard_edges:
            # CLK_ADDRESS_NONE leaves out-of-range texel fetches undefined,
            # so guarded kernels must bounds-check image reads too.
            s.emit("/* bounds-checked: CLK_ADDRESS_NONE makes OOB fetches undefined */")
            fetch_a = f"(((k) < kSizeK && (m) < kSizeM) ? {fetch_a} : ({real})(0))"
            fetch_b = f"(((k) < kSizeK && (n) < kSizeN) ? {fetch_b} : ({real})(0))"
        s.emit(f"#define READ_A(k, m) {fetch_a}")
        s.emit(f"#define READ_B(k, n) {fetch_b}")
    elif p.guard_edges:
        off_a = _offset_expr(p.layout_a, "(k)", "(m)", "kSizeK", "kSizeM", p.kwg, p.mwg)
        off_b = _offset_expr(p.layout_b, "(k)", "(n)", "kSizeK", "kSizeN", p.kwg, p.nwg)
        s.emit("/* bounds-checked reads: edge tiles are handled in place, no padding */")
        s.emit(f"#define READ_A(k, m) (((k) < kSizeK && (m) < kSizeM) ? agm[{off_a}] : ({real})(0))")
        s.emit(f"#define READ_B(k, n) (((k) < kSizeK && (n) < kSizeN) ? bgm[{off_b}] : ({real})(0))")
    else:
        off_a = _offset_expr(p.layout_a, "(k)", "(m)", "kSizeK", "kSizeM", p.kwg, p.mwg)
        off_b = _offset_expr(p.layout_b, "(k)", "(n)", "kSizeK", "kSizeN", p.kwg, p.nwg)
        s.emit(f"#define READ_A(k, m) agm[{off_a}]")
        s.emit(f"#define READ_B(k, n) bgm[{off_b}]")
    s.emit("")


def _emit_local_decls(s: _Src, p: KernelParams, real: str) -> None:
    copies = p.algorithm.local_buffer_copies
    if p.shared_a:
        if copies == 2:
            s.emit(f"__local {real} alm0[(KWG / 2) * MWG];")
            s.emit(f"__local {real} alm1[(KWG / 2) * MWG];")
        else:
            s.emit(f"__local {real} alm[KWG * MWG];")
    if p.shared_b:
        if copies == 2:
            s.emit(f"__local {real} blm0[(KWG / 2) * NWG];")
            s.emit(f"__local {real} blm1[(KWG / 2) * NWG];")
        else:
            s.emit(f"__local {real} blm[KWG * NWG];")


def _emit_private_decls(s: _Src, p: KernelParams, real: str, realv: str) -> None:
    s.emit(f"{realv} cpm[MWI * NWIV]; /* accumulators, vectorised along N */")
    s.emit(f"{real} apm[MWI * KWI];")
    s.emit(f"{realv} bpm[KWI * NWIV];")
    if p.algorithm.uses_private_staging:
        if p.shared_a:
            s.emit(f"{real} apm0[MWIA * KWIA]; /* PL prefetch staging for A */")
        if p.shared_b:
            s.emit(f"{real} bpm0[KWIB * NWIB]; /* PL prefetch staging for B */")


def _emit_stage_to_local(
    s: _Src, p: KernelParams, matrix: str, buf: str, khalf: bool, koff: str
) -> None:
    """Cooperative global -> local staging loop for one tile.

    ``matrix`` is 'a' or 'b'; the work-group's items form the reshaped
    ``MDIMA x KDIMA`` (or ``NDIMB x KDIMB``) loader grid of Section III-C
    and each copies its ``MWIA x KWIA`` (``NWIB x KWIB``) sub-tile.
    ``khalf`` selects half-height staging for DB half-buffers.
    """
    if matrix == "a":
        dim_major, wi_major, wi_k = "MDIMA", "MWIA", "KWIA"
        extent, read = "MWG", "READ_A"
        gdim = "get_group_id(0)"
    else:
        dim_major, wi_major, wi_k = "NDIMB", "NWIB", "KWIB"
        extent, read = "NWG", "READ_B"
        gdim = "get_group_id(1)"
    height = f"{wi_k} / 2" if khalf else wi_k
    s.emit(
        f"/* stage {matrix.upper()} tile to local memory "
        f"({dim_major} x {'KDIM' + matrix.upper()} loader grid) */"
    )
    s.open(f"for (int li = 0; li < {height}; ++li) {{")
    s.open(f"for (int lj = 0; lj < {wi_major}; ++lj) {{")
    s.emit(f"const int kk = (tid / {dim_major}) * ({height}) + li;")
    s.emit(f"const int mm = (tid % {dim_major}) * {wi_major} + lj;")
    s.emit(f"const int gk = ({koff}) + kk;")
    s.emit(f"const int gm = {gdim} * {extent} + mm;")
    s.emit(f"{buf}[kk * {extent} + mm] = {read}(gk, gm);")
    s.close("}")
    s.close("}")


def _emit_load_a(s: _Src, p: KernelParams, buf: str, kbase: str, from_local: bool) -> None:
    s.open("for (int kk = 0; kk < KWI; ++kk) {")
    s.open("for (int a = 0; a < MWI; ++a) {")
    row = _row_expr(p, "a")
    if from_local:
        s.emit(f"apm[a * KWI + kk] = {buf}[({kbase} + kk) * MWG + ({row})];")
    else:
        s.emit(f"const int gk = {kbase} + kk;")
        s.emit(f"const int gm = get_group_id(0) * MWG + ({row});")
        s.emit("apm[a * KWI + kk] = READ_A(gk, gm);")
    s.close("}")
    s.close("}")


def _emit_load_b(s: _Src, p: KernelParams, buf: str, kbase: str, from_local: bool) -> None:
    vload = f"vload{p.vw}" if p.vw > 1 else ""
    s.open("for (int kk = 0; kk < KWI; ++kk) {")
    s.open("for (int bv = 0; bv < NWIV; ++bv) {")
    col = _colv_expr(p, "bv")
    if from_local:
        src = f"&{buf}[({kbase} + kk) * NWG + ({col})]"
        if p.vw > 1:
            s.emit(f"bpm[kk * NWIV + bv] = {vload}(0, {src});")
        else:
            s.emit(f"bpm[kk * NWIV + bv] = *({src});")
    else:
        s.emit(f"const int gk = {kbase} + kk;")
        s.emit(f"const int gn = get_group_id(1) * NWG + ({col});")
        if p.vw > 1 and (p.use_images or p.guard_edges):
            # Per-lane gather: images have no vector fetch, and a raw
            # vload would bypass the READ_B edge guard.
            lanes = ", ".join(f"READ_B(gk, gn + {i})" for i in range(p.vw))
            s.emit(f"bpm[kk * NWIV + bv] = ({_vec_type(p.precision, p.vw)})({lanes});")
        elif p.vw > 1:
            off = _offset_expr(p.layout_b, "gk", "gn", "kSizeK", "kSizeN", p.kwg, p.nwg)
            s.emit(f"bpm[kk * NWIV + bv] = {vload}(0, &bgm[{off}]);")
        else:
            s.emit("bpm[kk * NWIV + bv] = READ_B(gk, gn);")
    s.close("}")
    s.close("}")


def _emit_multiply_add(s: _Src, p: KernelParams, realv: str) -> None:
    s.emit("/* rank-KWI update of the accumulators (fully unrolled) */")
    s.emit("#pragma unroll")
    s.open("for (int kk = 0; kk < KWI; ++kk) {")
    s.emit("#pragma unroll")
    s.open("for (int a = 0; a < MWI; ++a) {")
    s.emit(f"const {realv} aval = ({realv})(apm[a * KWI + kk]);")
    s.emit("#pragma unroll")
    s.open("for (int bv = 0; bv < NWIV; ++bv) {")
    s.emit("cpm[a * NWIV + bv] = mad(aval, bpm[kk * NWIV + bv], cpm[a * NWIV + bv]);")
    s.close("}")
    s.close("}")
    s.close("}")


def _emit_inner_loop(
    s: _Src,
    p: KernelParams,
    realv: str,
    kstart: str,
    kend: str,
    local_a: str,
    local_b: str,
    kglobal_base: str = "pwg",
    local_koff: str = "0",
) -> None:
    """The ``pwi`` loop over one staged tile (paper Fig. 4 lines 6-10).

    ``local_koff`` rebases ``pwi`` for local reads when the staged
    buffer holds only part of the k-range (DB half-buffers: the second
    half iterates ``pwi`` over ``[KWG/2, KWG)`` but its buffer rows
    start at 0).
    """
    local_k = "pwi" if local_koff == "0" else f"pwi - ({local_koff})"
    s.open(f"for (int pwi = {kstart}; pwi < {kend}; pwi += KWI) {{")
    if p.shared_a:
        _emit_load_a(s, p, local_a, local_k, from_local=True)
    else:
        _emit_load_a(s, p, "", f"{kglobal_base} + pwi", from_local=False)
    if p.shared_b:
        _emit_load_b(s, p, local_b, local_k, from_local=True)
    else:
        _emit_load_b(s, p, "", f"{kglobal_base} + pwi", from_local=False)
    _emit_multiply_add(s, p, realv)
    s.close("}")


def _emit_barrier(s: _Src) -> None:
    s.emit("barrier(CLK_LOCAL_MEM_FENCE);")


def _emit_merge(s: _Src, p: KernelParams, real: str) -> None:
    s.emit("/* merge accumulators into C with alpha/beta (Fig. 4 line 13) */")
    s.open("for (int a = 0; a < MWI; ++a) {")
    s.open("for (int bv = 0; bv < NWIV; ++bv) {")
    s.emit(f"const int gi = get_group_id(0) * MWG + ({_row_expr(p, 'a')});")
    s.emit(f"const int gj = get_group_id(1) * NWG + ({_colv_expr(p, 'bv')});")
    if p.guard_edges and p.vw > 1:
        # A vector store of VW lanes may straddle the right edge even when
        # its first lane is in range, so the guard must be per lane
        # (vector components are addressed .s0../.sf; OpenCL C forbids
        # dynamic component indices, hence the unrolled lanes).
        s.emit("if (gi >= kSizeM) continue; /* edge guard (row) */")
        for lane in range(p.vw):
            s.open(f"if (gj + {lane} < kSizeN) {{ /* edge guard (lane) */")
            s.emit(f"const size_t ci = (size_t)gi * kSizeN + (gj + {lane});")
            s.emit(
                f"cgm[ci] = alpha * cpm[a * NWIV + bv].s{lane:x} + beta * cgm[ci];"
            )
            s.close("}")
    else:
        if p.guard_edges:
            s.emit("if (gi >= kSizeM || gj >= kSizeN) continue; /* edge guard */")
        s.emit("const size_t ci = (size_t)gi * kSizeN + gj;")
        if p.vw > 1:
            s.emit(f"const {_vec_type(p.precision, p.vw)} cold = vload{p.vw}(0, &cgm[ci]);")
            s.emit(
                f"vstore{p.vw}(alpha * cpm[a * NWIV + bv] + beta * cold, 0, &cgm[ci]);"
            )
        else:
            s.emit("cgm[ci] = alpha * cpm[a * NWIV + bv] + beta * cgm[ci];")
    s.close("}")
    s.close("}")


def _emit_body_ba(s: _Src, p: KernelParams, realv: str) -> None:
    uses_local = p.shared_a or p.shared_b
    s.open("for (int pwg = 0; pwg < kSizeK; pwg += KWG) {")
    if p.shared_a:
        _emit_stage_to_local(s, p, "a", "alm", False, "pwg")
    if p.shared_b:
        _emit_stage_to_local(s, p, "b", "blm", False, "pwg")
    if uses_local:
        _emit_barrier(s)
    _emit_inner_loop(s, p, realv, "0", "KWG", "alm", "blm")
    if uses_local:
        _emit_barrier(s)
    s.close("}")


def _emit_prefetch_private(s: _Src, p: KernelParams, matrix: str, koff: str) -> None:
    """PL: fetch the next global tile into private staging registers."""
    if matrix == "a":
        dim_major, wi_major, wi_k, extent = "MDIMA", "MWIA", "KWIA", "MWG"
        pmbuf, read = "apm0", "READ_A"
        gdim = "get_group_id(0)"
    else:
        dim_major, wi_major, wi_k, extent = "NDIMB", "NWIB", "KWIB", "NWG"
        pmbuf, read = "bpm0", "READ_B"
        gdim = "get_group_id(1)"
    s.emit(f"/* PL prefetch: next {matrix.upper()} tile -> private (Fig. 5 lines 6-7) */")
    s.open(f"for (int li = 0; li < {wi_k}; ++li) {{")
    s.open(f"for (int lj = 0; lj < {wi_major}; ++lj) {{")
    s.emit(f"const int gk = ({koff}) + (tid / {dim_major}) * {wi_k} + li;")
    s.emit(f"const int gm = {gdim} * {extent} + (tid % {dim_major}) * {wi_major} + lj;")
    s.emit(f"{pmbuf}[li * {wi_major} + lj] = {read}(gk, gm);")
    s.close("}")
    s.close("}")


def _emit_commit_local(s: _Src, p: KernelParams, matrix: str) -> None:
    """PL: store the prefetched private tile into local memory."""
    if matrix == "a":
        dim_major, wi_major, wi_k, extent, pmbuf, lbuf = (
            "MDIMA", "MWIA", "KWIA", "MWG", "apm0", "alm",
        )
    else:
        dim_major, wi_major, wi_k, extent, pmbuf, lbuf = (
            "NDIMB", "NWIB", "KWIB", "NWG", "bpm0", "blm",
        )
    s.emit(f"/* PL commit: private -> local for {matrix.upper()} (Fig. 5 lines 15-16) */")
    s.open(f"for (int li = 0; li < {wi_k}; ++li) {{")
    s.open(f"for (int lj = 0; lj < {wi_major}; ++lj) {{")
    s.emit(f"const int kk = (tid / {dim_major}) * {wi_k} + li;")
    s.emit(f"const int mm = (tid % {dim_major}) * {wi_major} + lj;")
    s.emit(f"{lbuf}[kk * {extent} + mm] = {pmbuf}[li * {wi_major} + lj];")
    s.close("}")
    s.close("}")


def _emit_body_pl(s: _Src, p: KernelParams, realv: str) -> None:
    """Software pipelining (paper Fig. 5)."""
    uses_local = p.shared_a or p.shared_b
    if not uses_local:
        # Degenerate PL: nothing to commit to local memory; the structure
        # collapses to BA with direct global loads.
        _emit_body_ba(s, p, realv)
        return
    s.emit("/* prologue: stage the first tiles (Fig. 5 lines 2-4) */")
    if p.shared_a:
        _emit_stage_to_local(s, p, "a", "alm", False, "0")
    if p.shared_b:
        _emit_stage_to_local(s, p, "b", "blm", False, "0")
    _emit_barrier(s)
    s.open("for (int pwg = 0; pwg < kSizeK - KWG; pwg += KWG) {")
    if p.shared_a:
        _emit_prefetch_private(s, p, "a", "pwg + KWG")
    if p.shared_b:
        _emit_prefetch_private(s, p, "b", "pwg + KWG")
    _emit_inner_loop(s, p, realv, "0", "KWG", "alm", "blm")
    _emit_barrier(s)
    if p.shared_a:
        _emit_commit_local(s, p, "a")
    if p.shared_b:
        _emit_commit_local(s, p, "b")
    _emit_barrier(s)
    s.close("}")
    s.emit("/* epilogue: last staged tiles (Fig. 5 lines 19-23) */")
    _emit_inner_loop(s, p, realv, "0", "KWG", "alm", "blm", _LAST_TILE_BASE)


def _emit_body_db(s: _Src, p: KernelParams, realv: str) -> None:
    """Double buffering (paper Fig. 6)."""
    la0, la1 = ("alm0", "alm1") if p.shared_a else ("alm", "alm")
    lb0, lb1 = ("blm0", "blm1") if p.shared_b else ("blm", "blm")
    s.emit("/* prologue: fill buffer 0 with the first half tile (Fig. 6 lines 2-3) */")
    if p.shared_a:
        _emit_stage_to_local(s, p, "a", la0, True, "0")
    if p.shared_b:
        _emit_stage_to_local(s, p, "b", lb0, True, "0")
    s.open("for (int pwg = 0; pwg < kSizeK - KWG; pwg += KWG) {")
    _emit_barrier(s)
    s.emit("/* load buffer 1 while computing on buffer 0 */")
    if p.shared_a:
        _emit_stage_to_local(s, p, "a", la1, True, "pwg + KWG / 2")
    if p.shared_b:
        _emit_stage_to_local(s, p, "b", lb1, True, "pwg + KWG / 2")
    _emit_inner_loop(s, p, realv, "0", "KWG / 2", la0, lb0)
    _emit_barrier(s)
    s.emit("/* load buffer 0 (next iteration) while computing on buffer 1 */")
    if p.shared_a:
        _emit_stage_to_local(s, p, "a", la0, True, "pwg + KWG")
    if p.shared_b:
        _emit_stage_to_local(s, p, "b", lb0, True, "pwg + KWG")
    _emit_inner_loop(s, p, realv, "KWG / 2", "KWG", la1, lb1, local_koff="KWG / 2")
    s.close("}")
    s.emit("/* epilogue (Fig. 6 lines 22-35) */")
    _emit_barrier(s)
    if p.shared_a:
        _emit_stage_to_local(s, p, "a", la1, True, f"{_LAST_TILE_BASE} + KWG / 2")
    if p.shared_b:
        _emit_stage_to_local(s, p, "b", lb1, True, f"{_LAST_TILE_BASE} + KWG / 2")
    _emit_inner_loop(s, p, realv, "0", "KWG / 2", la0, lb0, _LAST_TILE_BASE)
    _emit_barrier(s)
    _emit_inner_loop(
        s, p, realv, "KWG / 2", "KWG", la1, lb1, _LAST_TILE_BASE,
        local_koff="KWG / 2",
    )


def emit_kernel_source(params: KernelParams) -> str:
    """Emit OpenCL C source for one generated GEMM kernel.

    The source computes ``C <- alpha * A^T B + beta * C`` where the packed
    ``A^T`` (``K x M``) and ``B`` (``K x N``) operands are laid out per
    ``params.layout_a`` / ``params.layout_b`` and ``C`` is row-major.
    """
    p = params
    real = _base_type(p.precision)
    realv = _vec_type(p.precision, p.vw)
    meta = {
        "generator": GENERATOR_VERSION,
        "kernel": KERNEL_NAME,
        "params": p.to_dict(),
    }
    s = _Src()
    s.emit(META_PREFIX + json.dumps(meta, sort_keys=True))
    s.emit(
        textwrap.dedent(
            f"""\
            /*
             * Auto-generated GEMM kernel: C <- alpha * A^T B + beta * C
             *   {p.summary()}
             * A^T is kSizeK x kSizeM in {p.layout_a.value} layout;
             * B   is kSizeK x kSizeN in {p.layout_b.value} layout;
             * C   is kSizeM x kSizeN row-major.
             * Algorithm: {p.algorithm.description}
             */"""
        )
    )
    if p.precision == "d":
        s.emit("#pragma OPENCL EXTENSION cl_khr_fp64 : enable")
    s.emit("")
    _emit_defines(s, p)
    _emit_read_macros(s, p, real)
    if p.use_images:
        operand_a = "__read_only image2d_t agm"
        operand_b = "__read_only image2d_t bgm"
    else:
        operand_a = f"__global const {real}* restrict agm"
        operand_b = f"__global const {real}* restrict bgm"
    s.open(
        f"__kernel __attribute__((reqd_work_group_size(MDIMC, NDIMC, 1)))\n"
        f"void {KERNEL_NAME}(const int kSizeM, const int kSizeN, const int kSizeK,\n"
        f"                   const {real} alpha, const {real} beta,\n"
        f"                   {operand_a},\n"
        f"                   {operand_b},\n"
        f"                   __global {real}* cgm) {{"
    )
    s.emit("const int i0 = get_local_id(0);")
    s.emit("const int j0 = get_local_id(1);")
    s.emit("const int tid = j0 * MDIMC + i0;")
    s.emit("(void)tid;")
    _emit_local_decls(s, p, real)
    _emit_private_decls(s, p, real, realv)
    s.emit("")
    s.open("for (int q = 0; q < MWI * NWIV; ++q) {")
    s.emit(f"cpm[q] = ({realv})(0);")
    s.close("}")
    s.emit("")
    if p.algorithm is Algorithm.BA:
        _emit_body_ba(s, p, realv)
    elif p.algorithm is Algorithm.PL:
        _emit_body_pl(s, p, realv)
    else:
        _emit_body_db(s, p, realv)
    s.emit("")
    _emit_merge(s, p, real)
    s.close("}")
    return s.text()


def parse_any_meta(source: str) -> dict:
    """Extract the raw GEMMGEN metadata dict from any generated source."""
    for line in source.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(META_PREFIX):
            try:
                return json.loads(line[len(META_PREFIX):])
            except json.JSONDecodeError as exc:
                raise BuildError(f"corrupt GEMMGEN metadata header: {exc}") from exc
        break
    raise BuildError(
        "source has no GEMMGEN-META header; only generator-produced kernels "
        "can be built by the simulator"
    )


def parse_meta_header(source: str) -> KernelParams:
    """Recover the generating parameters from emitted kernel source.

    This is the simulator compiler's front-end: it refuses sources that
    were not produced by this generator, mirroring a real compiler
    rejecting invalid programs.
    """
    for line in source.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(META_PREFIX):
            try:
                meta = json.loads(line[len(META_PREFIX):])
                return KernelParams.from_dict(meta["params"])
            except (json.JSONDecodeError, KeyError, TypeError, ParameterError) as exc:
                raise BuildError(f"corrupt GEMMGEN metadata header: {exc}") from exc
        break
    raise BuildError(
        "source has no GEMMGEN-META header; only generator-produced kernels "
        "can be built by the simulator"
    )
