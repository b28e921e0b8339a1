"""Functional correctness of the plan executor.

The central correctness property of the whole stack: for every
combination of algorithm, layouts, stride modes, vector widths and
local-memory staging in the parameter matrix, the executed kernel must
reproduce ``alpha * A^T B + beta * C`` exactly — through the real index
structure (ownership permutations, tile gathers, staged halves).
"""

import dataclasses

import numpy as np
import pytest

from repro.clsim.executor import ExecutionArrays, execute_plan
from repro.codegen.layouts import pack_matrix
from repro.codegen.plan import build_plan
from repro.errors import LaunchError
from repro.spec.differential import run_spec_leg
from repro.spec.enumerate import SpecProgram

from tests.conftest import PARAM_MATRIX, make_params


def _operands(params, M, N, K, seed):
    rng = np.random.default_rng(seed)
    dtype = np.float64 if params.precision == "d" else np.float32
    at = rng.standard_normal((K, M)).astype(dtype)
    b = rng.standard_normal((K, N)).astype(dtype)
    c = rng.standard_normal((M, N)).astype(dtype)
    return at, b, c


def _run(params, M, N, K, alpha=1.5, beta=-0.5, mode="workgroup", seed=0,
         plan=None):
    at, b, c = _operands(params, M, N, K, seed)
    a_flat = pack_matrix(at, params.layout_a, params.kwg, params.mwg)
    b_flat = pack_matrix(b, params.layout_b, params.kwg, params.nwg)
    c_flat = c.reshape(-1).copy()
    plan = plan or build_plan(params)
    arrays = ExecutionArrays(plan, a_flat, b_flat, c_flat, M, N, K)
    execute_plan(plan, arrays, alpha, beta, mode=mode)
    expected = alpha * (at.T @ b) + beta * c
    return c_flat.reshape(M, N), expected


@pytest.mark.parametrize("params", PARAM_MATRIX, ids=lambda p: p.summary()[:48])
class TestCorrectnessMatrix:
    def _sizes(self, params):
        # Smallest launchable problem plus one with several tiles per dim.
        m0 = params.mwg
        n0 = params.nwg
        k0 = params.algorithm.min_k_iterations * params.kwg
        return [(m0, n0, k0), (3 * m0, 2 * n0, k0 + 2 * params.kwg)]

    def test_workgroup_mode_matches_reference(self, params):
        tol = 1e-12 if params.precision == "d" else 1e-4
        for M, N, K in self._sizes(params):
            got, expected = _run(params, M, N, K)
            np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    def test_fast_mode_matches_workgroup_mode(self, params):
        # The two paths accumulate in different orders (per-Kwg blocks vs
        # one whole-K product), so they agree to rounding, not bit-for-bit.
        tol = 1e-12 if params.precision == "d" else 5e-4
        M, N, K = self._sizes(params)[1]
        got_wg, _ = _run(params, M, N, K, mode="workgroup")
        got_fast, _ = _run(params, M, N, K, mode="fast")
        np.testing.assert_allclose(got_wg, got_fast, rtol=tol, atol=tol)


@pytest.mark.parametrize("params", [p for p in PARAM_MATRIX if p.guard_edges],
                         ids=lambda p: p.summary()[:48])
def test_guarded_ragged_multi_tile_problem(params):
    # No dimension is a blocking multiple, so every edge work-group of the
    # 3x2 grid has partial tiles and the last k-block is short.
    M, N, K = 3 * params.mwg - 3, 2 * params.nwg - 1, 2 * params.kwg + 3
    assert build_plan(params).workgroup_grid(M, N) == (3, 2)
    tol = 1e-12 if params.precision == "d" else 1e-4
    got, expected = _run(params, M, N, K)
    np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)


def test_workgroup_mode_consumes_the_ownership_map():
    # A row map with a repeated index (one row owned twice, another not at
    # all) bypasses build_plan's bijection check; the faithful path reads
    # and writes C through the map, so its output must go wrong.
    params = make_params()
    plan = build_plan(params)
    owner = plan.row_owner.copy()
    owner.reshape(-1)[1] = owner.reshape(-1)[0]
    tampered = dataclasses.replace(plan, row_owner=owner)
    M, N, K = 2 * params.mwg, 2 * params.nwg, 2 * params.kwg
    got, expected = _run(params, M, N, K, plan=tampered)
    assert not np.allclose(got, expected, rtol=1e-6, atol=1e-6)
    got, expected = _run(params, M, N, K, plan=plan)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestScalars:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 1.0), (2.5, 1.0),
                                            (-1.0, -2.0), (0.0, 0.0)])
    def test_alpha_beta_combinations(self, alpha, beta):
        params = make_params()
        got, expected = _run(params, 32, 32, 16, alpha=alpha, beta=beta)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_beta_zero_overwrites_garbage(self):
        # With beta=0 the previous C contents must not leak through.
        params = make_params()
        got, expected = _run(params, 16, 16, 8, alpha=1.0, beta=0.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestNonSquare:
    def test_rectangular_problem(self):
        params = make_params()
        got, expected = _run(params, 48, 16, 24)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_deep_k(self):
        params = make_params(kwg=8)
        got, expected = _run(params, 16, 16, 96)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestValidation:
    def test_rejects_wrong_dtype(self):
        params = make_params(precision="d")
        plan = build_plan(params)
        bad = np.zeros(16 * 16, dtype=np.float32)
        good = np.zeros(16 * 16, dtype=np.float64)
        with pytest.raises(LaunchError, match="dtype"):
            ExecutionArrays(plan, bad, good, good, 16, 16, 16)

    def test_rejects_wrong_buffer_size(self):
        params = make_params()
        plan = build_plan(params)
        good = np.zeros(16 * 16, dtype=np.float64)
        short = np.zeros(100, dtype=np.float64)
        with pytest.raises(LaunchError, match="elements"):
            ExecutionArrays(plan, short, good, good, 16, 16, 16)

    def test_rejects_indivisible_problem(self):
        params = make_params()  # kwg=8; K=20 is not a multiple
        plan = build_plan(params)
        a = np.zeros(20 * 16, dtype=np.float64)
        b = np.zeros(20 * 16, dtype=np.float64)
        c = np.zeros(16 * 16, dtype=np.float64)
        arrays = ExecutionArrays(plan, a, b, c, 16, 16, 20)
        with pytest.raises(LaunchError, match="divisible"):
            execute_plan(plan, arrays, 1.0, 0.0)

    def test_rejects_unknown_mode(self):
        params = make_params()
        plan = build_plan(params)
        z = np.zeros(16 * 16, dtype=np.float64)
        arrays = ExecutionArrays(plan, z.copy(), z.copy(), z.copy(), 16, 16, 16)
        with pytest.raises(LaunchError, match="mode"):
            execute_plan(plan, arrays, 1.0, 0.0, mode="warp")


def _run_spec(params, M, N, K, alpha=1.5, beta=-0.5, seed=0):
    """The same launch as :func:`_run`, interpreted work-item by work-item
    from the emitted OpenCL C by the executable spec."""
    at, b, c = _operands(params, M, N, K, seed)
    program = SpecProgram(0, params, (M, N, K), alpha, beta, origin="gold")
    got, outcome, _ = run_spec_leg(program, at, b, c)
    assert outcome.ok, outcome.violations[:3]
    return got, alpha * (at.T @ b) + beta * c


class TestScalarGoldStandard:
    """Differential testing: the spec VM's per-work-item (scalar)
    interpretation of the emitted text vs the vectorised executor,
    across the whole parameter matrix."""

    @pytest.mark.parametrize("params", PARAM_MATRIX,
                             ids=lambda p: p.summary()[:48])
    def test_scalar_matches_workgroup(self, params):
        M, N = params.mwg, params.nwg
        K = params.algorithm.min_k_iterations * params.kwg
        got_spec, _ = _run_spec(params, M, N, K)
        got_wg, _ = _run(params, M, N, K, mode="workgroup")
        np.testing.assert_allclose(got_spec, got_wg, rtol=1e-6, atol=1e-6)

    def test_scalar_matches_reference_multi_tile(self):
        params = make_params(stride=make_params().stride.__class__(m=True, n=True),
                             vw=2, mwg=32, nwg=32)
        got, expected = _run_spec(params, 64, 32, 16)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
