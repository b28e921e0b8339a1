"""Buffers written by pack kernels hold the caller's operand, unpadded.

A pack kernel's destination keeps the oriented source as a view (no
copy, no zero padding) together with the padded extent it fills.  The
zero-padded block-major contents are built only when something reads the
buffer element by element.  These tests pin that element readers cannot
see the deferral, on exact and on padded extents alike: every read sees
exactly the bytes an eager pack wrote, and every WORKGROUP launch
computes exactly the bits it computes on eagerly packed operands.

The ``fast`` executor multiplies the held payloads directly, neither
padding, packing nor unpacking them.  On exact extents its result is
bit-identical to a launch on eagerly packed operands.  On padded extents
it multiplies only the payload, so the result is bit-equal to
``c*beta + alpha*(opA @ opB)`` over the caller's operands, with the
padded rest of C scaled by beta.  It is not bit-equal to BLAS over the
zero-padded operands, which blocks its K loop differently.
"""

import itertools

import numpy as np
import pytest

import repro.clsim as cl
import repro.clsim.executor as executor_mod
import repro.clsim.memory as memory_mod
import repro.codegen.layouts as layouts_mod
import repro.codegen.packers as packers_mod
from repro.clsim.queue import ExecutionMode
from repro.codegen.emitter import emit_kernel_source
from repro.codegen.layouts import Layout
from repro.codegen.packers import PackPlan, emit_pack_source
from repro.errors import LaunchError
from repro.gemm.packing import required_padding

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

    @pytest.mark.parametrize(
        "layout,transpose,precision",
        list(itertools.product(LAYOUTS, (False, True), ("s", "d"))),
    )
    @pytest.mark.parametrize("reader", ["read", "array"])
    def test_padded_hold_reads_as_the_eager_pack(self, layout, transpose,
                                                 precision, reader, rng):
        plan = PackPlan(precision=precision, transpose=transpose,
                        layout=layout, block_k=8, block_x=16)
        ctx, queue = _queue()
        K, X, kp, xp = 11, 21, 24, 48  # k_padded > K and x_padded > X
        rows, cols = (X, K) if transpose else (K, X)
        mat = rng.standard_normal((rows, cols)).astype(plan.dtype)
        before = mat.tobytes()
        dst = _pack(ctx, queue, plan, mat, kp, xp)
        hold = dst.held(layout, 8, 16)
        # The hold is the caller's operand itself, oriented: no copy.
        assert hold.extent == (kp, xp) and hold.payload.shape == (K, X)
        assert np.shares_memory(hold.payload, mat)
        eager = plan.execute(mat.reshape(-1), rows, cols, kp, xp)
        got = dst.read() if reader == "read" else dst.array
        assert got.dtype == eager.dtype
        assert got.tobytes() == eager.tobytes()
        assert dst.held(layout, 8, 16) is None
        assert not np.shares_memory(dst.array, mat)
        assert mat.tobytes() == before

    def test_stage_is_the_logical_matrix_of_execute(self, rng):
        for layout in LAYOUTS:
            plan = PackPlan(precision="d", transpose=True, layout=layout,
                            block_k=8, block_x=16)
            mat = rng.standard_normal((13, 11))
            staged = layouts_mod.pad_matrix(
                plan.orient(mat.reshape(-1), 13, 11, 16, 16), 16, 16)
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
    """``a`` (user A) and ``b`` packed by pack kernels for an ``M x N x
    K`` launch; operands smaller than that are zero-padded."""
    plan_a, plan_b = _plans(params)
    return (_pack(ctx, queue, plan_a, a, K, M),
            _pack(ctx, queue, plan_b, b, K, N))


def _eager_operands(ctx, params, a, b, M, N, K):
    plan_a, plan_b = _plans(params)
    return (
        cl.Buffer(ctx, hostbuf=plan_a.execute(a.reshape(-1), *a.shape, K, M)),
        cl.Buffer(ctx, hostbuf=plan_b.execute(b.reshape(-1), *b.shape, K, N)),
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

    #: A payload shape that is no multiple of any blocking factor.
    PADDED = (27, 37, 19)

    def _padded_case(self, params):
        """User ``a`` and ``b`` of :attr:`PADDED`, a C of the padded
        launch shape, and that shape."""
        Mp, Np, Kp = required_padding(params, *self.PADDED)
        a, b, _ = _gemm_case(params, *self.PADDED)
        c = np.random.default_rng(2).standard_normal((Mp, Np)).astype(a.dtype)
        return a, b, c, (Mp, Np, Kp)

    def test_fast_launch_neither_packs_nor_unpacks(self, params, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        pack, unpack = layouts_mod.pack_matrix, layouts_mod.unpack_matrix
        pad = layouts_mod.pad_matrix
        for mod in (memory_mod, layouts_mod):
            monkeypatch.setattr(mod, "pack_matrix", counting("pack", pack))
        for mod in (executor_mod, layouts_mod):
            monkeypatch.setattr(mod, "unpack_matrix",
                                counting("unpack", unpack))
        for mod in (memory_mod, packers_mod, executor_mod, layouts_mod):
            monkeypatch.setattr(mod, "pad_matrix", counting("pad", pad))
        ctx, queue = _queue(ExecutionMode.FAST)
        exact = _gemm_case(params, self.M, self.N, self.K) + (
            (self.M, self.N, self.K),)
        runs = []
        for a, b, c, (M, N, K) in (exact, self._padded_case(params)):
            # Neither the packs nor the launch build a padded staging
            # copy, a packed array or an unpacked one.
            abuf, bbuf = _held_operands(ctx, queue, params, a, b, M, N, K)
            got = _launch_gemm(ctx, queue, params, abuf, bbuf, c, M, N, K)
            assert calls == []
            # Both buffers still hold the caller's operands.
            assert abuf.held(params.layout_a, params.kwg, params.mwg) is not None
            assert bbuf.held(params.layout_b, params.kwg, params.nwg) is not None
            runs.append((a, b, c, got.reshape(M, N)))
        monkeypatch.undo()
        tol = 1e-12 if params.precision == "d" else 1e-4
        for a, b, c, got in runs:
            expected = -0.5 * c
            expected[: a.shape[0], : b.shape[1]] += 1.5 * (a @ b)
            np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    def test_workgroup_on_padded_holds_matches_eager_packs(self, params):
        a, b, c, (M, N, K) = self._padded_case(params)
        ctx, queue = _queue(ExecutionMode.WORKGROUP)
        held = _launch_gemm(ctx, queue, params,
                            *_held_operands(ctx, queue, params, a, b, M, N, K),
                            c, M, N, K)
        eager = _launch_gemm(ctx, queue, params,
                             *_eager_operands(ctx, params, a, b, M, N, K),
                             c, M, N, K)
        assert held.tobytes() == eager.tobytes()

    def test_fast_on_padded_holds_is_numpy_on_the_payload(self, params):
        a, b, c, (M, N, K) = self._padded_case(params)
        ctx, queue = _queue(ExecutionMode.FAST)
        got = _launch_gemm(ctx, queue, params,
                           *_held_operands(ctx, queue, params, a, b, M, N, K),
                           c, M, N, K).reshape(M, N)
        alpha, beta = a.dtype.type(1.5), a.dtype.type(-0.5)
        expected = c * beta
        m, n = self.PADDED[:2]
        expected[:m, :n] = c[:m, :n] * beta + alpha * (a @ b)
        assert got.tobytes() == expected.tobytes()

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

    def test_padded_pack_into_host_backed_buffer_writes_through(self, rng):
        ctx, queue = _queue()
        plan = PackPlan(precision="d", transpose=True, layout=Layout.CBL,
                        block_k=8, block_x=16)
        host = np.full(24 * 32, np.nan)
        dst = cl.Buffer(ctx, hostbuf=host)
        mat = rng.standard_normal((27, 13))  # oriented: 13 x 27 in 24 x 32
        before = mat.tobytes()
        _pack(ctx, queue, plan, mat, 24, 32, dst=dst)
        eager = plan.execute(mat.reshape(-1), 27, 13, 24, 32)
        assert host.tobytes() == eager.tobytes()
        assert dst.held(Layout.CBL, 8, 16) is None
        assert mat.tobytes() == before
        assert not np.shares_memory(host, mat)

    @pytest.mark.parametrize("precision", ["s", "d"])
    def test_fast_takes_the_product_before_scaling_a_padded_c(self, precision):
        # B is C's own ROW buffer (K == M makes the sizes agree) and A a
        # padded hold: the product must read C before beta scales it.
        params = make_params(layout_a=Layout.CBL, precision=precision)
        m, k = 27, 19
        M, N, K = 32, 48, 32
        rng = np.random.default_rng(5)
        a = rng.standard_normal((m, k)).astype(_DTYPES[precision])
        c = rng.standard_normal((M, N)).astype(a.dtype)
        ctx, queue = _queue(ExecutionMode.FAST)
        abuf = _pack(ctx, queue, _plans(params)[0], a, K, M)
        cbuf = cl.Buffer(ctx, hostbuf=c.copy())
        kernel = cl.Program(ctx, emit_kernel_source(params)).build().gemm_atb
        kernel.set_args(M, N, K, 1.5, -0.5, abuf, cbuf, cbuf)
        queue.launch(kernel, kernel.expected_global_size(),
                     kernel.plan.local_size())
        alpha, beta = a.dtype.type(1.5), a.dtype.type(-0.5)
        expected = c * beta
        expected[:m] = c[:m] * beta + alpha * (a @ c[:k])
        assert cbuf.read().tobytes() == expected.tobytes()
