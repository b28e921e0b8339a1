"""Buffers written by pack kernels keep the logical matrix they staged.

The packed block-major contents are built only when something reads the
buffer element by element; the ``fast`` executor takes the held matrix
directly.  These tests pin that the deferral is invisible: every read
sees exactly the bytes an eager pack wrote, and every launch computes
exactly the bits it computes on eagerly packed operands.
"""

import itertools

import numpy as np
import pytest

import repro.clsim as cl
import repro.clsim.executor as executor_mod
import repro.clsim.memory as memory_mod
import repro.codegen.layouts as layouts_mod
from repro.clsim.queue import ExecutionMode
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.layouts import Layout
from repro.codegen.packers import PackPlan, emit_pack_source
from repro.errors import LaunchError

from tests.conftest import make_params

LAYOUTS = (Layout.ROW, Layout.CBL, Layout.RBL)
_DTYPES = {"s": np.float32, "d": np.float64}


def _queue(mode=ExecutionMode.AUTO):
    dev = cl.get_device("tahiti")
    ctx = cl.Context([dev])
    return ctx, cl.CommandQueue(ctx, dev, execution_mode=mode)


def _pack(ctx, queue, plan, mat, k_padded, x_padded, dst=None):
    """Launch ``plan``'s pack kernel on ``mat``; returns the destination."""
    kernel = cl.Program(ctx, emit_pack_source(plan)).build().get_kernel(
        "pack_operand")
    rows, cols = mat.shape
    src = cl.Buffer(ctx, hostbuf=mat)
    if dst is None:
        dst = cl.Buffer(ctx, size=k_padded * x_padded * plan.dtype.itemsize,
                        dtype=plan.dtype)
    kernel.set_args(rows, cols, k_padded, x_padded, src, dst)
    queue.launch(kernel, kernel.expected_global_size(),
                 plan.local_size())
    src.release()
    return dst


class TestPackedContents:
    @pytest.mark.parametrize(
        "layout,transpose,precision",
        list(itertools.product(LAYOUTS, (False, True), ("s", "d"))),
    )
    def test_read_equals_eager_pack_byte_for_byte(self, layout, transpose,
                                                  precision, rng):
        plan = PackPlan(precision=precision, transpose=transpose,
                        layout=layout, block_k=8, block_x=16)
        ctx, queue = _queue()
        # Exact and ragged (zero-padded) source shapes.
        for rows, cols, kp, xp in ((16, 32, 16, 32), (13, 27, 16, 32),
                                   (5, 9, 24, 48)):
            if transpose:
                kp, xp = max(kp, -(-cols // 8) * 8), max(xp, -(-rows // 16) * 16)
            mat = rng.standard_normal((rows, cols)).astype(plan.dtype)
            dst = _pack(ctx, queue, plan, mat, kp, xp)
            eager = plan.execute(mat.reshape(-1), rows, cols, kp, xp)
            got = dst.read()
            assert got.dtype == eager.dtype
            assert got.tobytes() == eager.tobytes()

    def test_stage_is_the_logical_matrix_of_execute(self, rng):
        for layout in LAYOUTS:
            plan = PackPlan(precision="d", transpose=True, layout=layout,
                            block_k=8, block_x=16)
            mat = rng.standard_normal((13, 11))
            staged = plan.stage(mat.reshape(-1), 13, 11, 16, 16)
            assert staged.shape == (16, 16)
            np.testing.assert_array_equal(staged[:11, :13], mat.T)
            assert not staged[11:].any() and not staged[:, 13:].any()
            packed = layouts_mod.pack_matrix(staged, layout, 8, 16)
            assert packed.tobytes() == plan.execute(
                mat.reshape(-1), 13, 11, 16, 16).tobytes()


def _gemm_case(params, M, N, K, seed=0):
    rng = np.random.default_rng(seed)
    dtype = _DTYPES[params.precision]
    a = rng.standard_normal((M, K)).astype(dtype)  # user A (M x K)
    b = rng.standard_normal((K, N)).astype(dtype)
    c = rng.standard_normal((M, N)).astype(dtype)
    return a, b, c


def _plans(params):
    return (
        PackPlan(precision=params.precision, transpose=True,
                 layout=params.layout_a, block_k=params.kwg,
                 block_x=params.mwg),
        PackPlan(precision=params.precision, transpose=False,
                 layout=params.layout_b, block_k=params.kwg,
                 block_x=params.nwg),
    )


def _launch_gemm(ctx, queue, params, abuf, bbuf, c, M, N, K,
                 alpha=1.5, beta=-0.5):
    kernel = cl.Program(ctx, emit_kernel_source(params)).build().gemm_atb
    cbuf = cl.Buffer(ctx, hostbuf=c.copy())
    kernel.set_args(M, N, K, alpha, beta, abuf, bbuf, cbuf)
    queue.launch(kernel, kernel.expected_global_size(),
                 kernel.plan.local_size())
    return cbuf.read()


def _held_operands(ctx, queue, params, a, b, M, N, K):
    plan_a, plan_b = _plans(params)
    return (_pack(ctx, queue, plan_a, a, K, M),
            _pack(ctx, queue, plan_b, b, K, N))


def _eager_operands(ctx, params, a, b, M, N, K):
    plan_a, plan_b = _plans(params)
    return (
        cl.Buffer(ctx, hostbuf=plan_a.execute(a.reshape(-1), M, K, K, M)),
        cl.Buffer(ctx, hostbuf=plan_b.execute(b.reshape(-1), K, N, K, N)),
    )


_GEMM_PARAMS = [
    make_params(layout_a=la, layout_b=lb, precision=prec)
    for (la, lb), prec in itertools.product(
        [(Layout.ROW, Layout.ROW), (Layout.CBL, Layout.RBL),
         (Layout.RBL, Layout.CBL)], ("s", "d"))
]


@pytest.mark.parametrize("params", _GEMM_PARAMS,
                         ids=lambda p: f"{p.layout_a.value}-"
                                       f"{p.layout_b.value}-{p.precision}")
class TestLaunchesOnHeldOperands:
    M, N, K = 32, 48, 24

    @pytest.mark.parametrize("mode", [ExecutionMode.WORKGROUP,
                                      ExecutionMode.FAST])
    def test_same_bits_as_eagerly_packed_operands(self, params, mode):
        M, N, K = self.M, self.N, self.K
        a, b, c = _gemm_case(params, M, N, K)
        ctx, queue = _queue(mode)
        held = _launch_gemm(ctx, queue, params,
                            *_held_operands(ctx, queue, params, a, b, M, N, K),
                            c, M, N, K)
        eager = _launch_gemm(ctx, queue, params,
                             *_eager_operands(ctx, params, a, b, M, N, K),
                             c, M, N, K)
        assert held.tobytes() == eager.tobytes()

    def test_fast_launch_neither_packs_nor_unpacks(self, params, monkeypatch):
        M, N, K = self.M, self.N, self.K
        a, b, c = _gemm_case(params, M, N, K)
        ctx, queue = _queue(ExecutionMode.FAST)
        abuf, bbuf = _held_operands(ctx, queue, params, a, b, M, N, K)
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (memory_mod, layouts_mod):
            monkeypatch.setattr(mod, "pack_matrix",
                                counting("pack", layouts_mod.pack_matrix))
        for mod in (executor_mod, layouts_mod):
            monkeypatch.setattr(mod, "unpack_matrix",
                                counting("unpack", layouts_mod.unpack_matrix))
        got = _launch_gemm(ctx, queue, params, abuf, bbuf, c, M, N, K)
        assert calls == []
        # The packed arrays were never built: both still hold their
        # logical matrices.
        assert abuf.held(params.layout_a, params.kwg, params.mwg) is not None
        assert bbuf.held(params.layout_b, params.kwg, params.nwg) is not None
        monkeypatch.undo()
        expected = 1.5 * (a @ b) - 0.5 * c
        tol = 1e-12 if params.precision == "d" else 1e-4
        np.testing.assert_allclose(got.reshape(M, N), expected, rtol=tol,
                                   atol=tol)

    @pytest.mark.parametrize("mode", [ExecutionMode.WORKGROUP,
                                      ExecutionMode.FAST])
    @pytest.mark.parametrize("store", ["write", "array"])
    def test_store_after_pack_is_what_the_next_launch_reads(
            self, params, mode, store):
        M, N, K = self.M, self.N, self.K
        a, b, c = _gemm_case(params, M, N, K)
        a2, _, _ = _gemm_case(params, M, N, K, seed=1)
        ctx, queue = _queue(mode)
        abuf, bbuf = _held_operands(ctx, queue, params, a, b, M, N, K)
        plan_a, _ = _plans(params)
        replacement = plan_a.execute(a2.reshape(-1), M, K, K, M)
        if store == "write":
            abuf.write(replacement)
        else:
            abuf.array[...] = replacement
        assert abuf.held(params.layout_a, params.kwg, params.mwg) is None
        got = _launch_gemm(ctx, queue, params, abuf, bbuf, c, M, N, K)
        eager = _launch_gemm(ctx, queue, params,
                             *_eager_operands(ctx, params, a2, b, M, N, K),
                             c, M, N, K)
        assert got.tobytes() == eager.tobytes()


class TestAccountingAndMismatches:
    def test_allocated_bytes_unchanged_through_create_launch_release(self, rng):
        ctx, queue = _queue()
        plan = PackPlan(precision="d", transpose=True, layout=Layout.CBL,
                        block_k=8, block_x=16)
        nbytes = 16 * 32 * 8
        dst = cl.Buffer(ctx, size=nbytes, dtype=np.float64)
        assert ctx.allocated_bytes == nbytes
        _pack(ctx, queue, plan, rng.standard_normal((27, 13)), 16, 32, dst=dst)
        assert ctx.allocated_bytes == nbytes
        dst.read()
        assert ctx.allocated_bytes == nbytes
        dst.release()
        assert ctx.allocated_bytes == 0

    def test_size_only_buffer_reads_zeros(self):
        ctx, _ = _queue()
        buf = cl.Buffer(ctx, size=64, dtype=np.float32)
        assert buf.dtype == np.float32
        got = buf.read()
        assert got.dtype == np.float32 and got.shape == (16,) and not got.any()

    def test_mis_sized_destination_is_refused(self, rng):
        ctx, _ = _queue()
        plan = PackPlan(precision="s", transpose=False, layout=Layout.RBL,
                        block_k=8, block_x=16)
        kernel = cl.Program(ctx, emit_pack_source(plan)).build().get_kernel(
            "pack_operand")
        src = cl.Buffer(ctx, hostbuf=rng.standard_normal((8, 16)).astype(
            np.float32))
        dst = cl.Buffer(ctx, size=8 * 32 * 4, dtype=np.float32)
        with pytest.raises(LaunchError, match="does not match packed extent"):
            kernel.set_args(8, 16, 8, 16, src, dst)

    def test_mismatched_dtype_destination_reinterprets(self, rng):
        ctx, queue = _queue()
        plan = PackPlan(precision="s", transpose=True, layout=Layout.CBL,
                        block_k=8, block_x=16)
        mat = rng.standard_normal((13, 7)).astype(np.float32)
        dst = cl.Buffer(ctx, size=8 * 16 * 4, dtype=np.float64)
        _pack(ctx, queue, plan, mat, 8, 16, dst=dst)
        assert dst.held(Layout.CBL, 8, 16) is None  # not usable as float64
        eager = plan.execute(mat.reshape(-1), 13, 7, 8, 16)
        got = dst.read()
        assert got.dtype == np.float64
        assert got.tobytes() == eager.tobytes()

    def test_pack_into_host_backed_buffer_writes_through(self, rng):
        ctx, queue = _queue()
        plan = PackPlan(precision="d", transpose=False, layout=Layout.RBL,
                        block_k=8, block_x=16)
        host = np.zeros(16 * 32)
        dst = cl.Buffer(ctx, hostbuf=host)
        mat = rng.standard_normal((16, 32))
        _pack(ctx, queue, plan, mat, 16, 32, dst=dst)
        eager = plan.execute(mat.reshape(-1), 16, 32, 16, 32)
        assert host.tobytes() == eager.tobytes()
