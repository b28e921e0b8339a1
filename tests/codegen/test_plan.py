"""Plan construction: ownership maps, staging geometry, launch checks."""

import numpy as np
import pytest

from repro.codegen.algorithms import Algorithm
from repro.codegen import plan as plan_module
from repro.codegen.plan import StagingGeometry, build_plan, ownership_map
from repro.codegen.params import StrideMode
from repro.errors import LaunchError, ParameterError

from tests.conftest import PARAM_MATRIX, make_params


class TestOwnershipMap:
    def test_unit_stride_is_adjacent(self):
        owner = ownership_map(dim=4, wi=3, vw=1, nonunit=False)
        # Lane i owns [i*3, i*3+3).
        np.testing.assert_array_equal(owner[0], [0, 1, 2])
        np.testing.assert_array_equal(owner[2], [6, 7, 8])

    def test_nonunit_stride_interleaves(self):
        owner = ownership_map(dim=4, wi=2, vw=1, nonunit=True)
        # Lane i owns {i, i + dim}.
        np.testing.assert_array_equal(owner[:, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(owner[:, 1], [4, 5, 6, 7])

    def test_nonunit_stride_with_vectors(self):
        # vw=2: lanes own vw-consecutive elements, interleaved by vw*dim.
        owner = ownership_map(dim=2, wi=4, vw=2, nonunit=True)
        np.testing.assert_array_equal(owner[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(owner[1], [2, 3, 6, 7])

    @pytest.mark.parametrize("dim,wi,vw,nonunit", [
        (4, 4, 1, False), (4, 4, 1, True), (8, 2, 2, True),
        (16, 6, 2, True), (3, 5, 1, False),
    ])
    def test_always_a_bijection(self, dim, wi, vw, nonunit):
        owner = ownership_map(dim, wi, vw, nonunit)
        flat = np.sort(owner.reshape(-1))
        np.testing.assert_array_equal(flat, np.arange(dim * wi))


class TestStagingGeometry:
    def test_valid_geometry(self):
        g = StagingGeometry(dim_major=8, dim_k=2, wi_major=4, wi_k=4,
                            extent_major=32, extent_k=8)
        assert g.loads_per_workitem == 16

    def test_rejects_uncovered_width(self):
        with pytest.raises(ParameterError, match="width"):
            StagingGeometry(dim_major=8, dim_k=2, wi_major=3, wi_k=4,
                            extent_major=32, extent_k=8)

    def test_rejects_uncovered_height(self):
        with pytest.raises(ParameterError, match="height"):
            StagingGeometry(dim_major=8, dim_k=2, wi_major=4, wi_k=3,
                            extent_major=32, extent_k=8)


class TestBuildPlan:
    @pytest.mark.parametrize("params", PARAM_MATRIX, ids=lambda p: p.summary()[:40])
    def test_all_matrix_entries_build(self, params):
        plan = build_plan(params)
        assert sorted(plan.row_permutation()) == list(range(params.mwg))
        assert sorted(plan.col_permutation()) == list(range(params.nwg))
        # The proved maps are shared between plans, so they are read-only.
        for shared, geometry in (
            (plan.row_owner, (params.mdimc, params.mwi, params.vw, params.stride.m)),
            (plan.col_owner, (params.ndimc, params.nwi, params.vw, params.stride.n)),
        ):
            np.testing.assert_array_equal(shared, ownership_map(*geometry))
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0, 0] = -1

    def test_plans_of_one_geometry_share_one_proved_map(self):
        a = build_plan(make_params(precision="d"))
        b = build_plan(make_params(precision="s", kwg=16, shared_b=True))
        assert a.row_owner is b.row_owner
        assert a.col_owner is b.col_owner
        # Square tiles: rows and columns have the same geometry too.
        assert a.row_owner is a.col_owner

    def test_failing_geometry_is_never_cached(self, monkeypatch):
        calls = []

        def broken(dim, wi, vw, nonunit):
            calls.append((dim, wi, vw, nonunit))
            return np.zeros((dim, wi), dtype=np.int64)

        plan_module._proved_ownership.cache_clear()
        monkeypatch.setattr(plan_module, "ownership_map", broken)
        texts = []
        for _ in range(2):
            with pytest.raises(ParameterError) as excinfo:
                build_plan(make_params())
            texts.append(str(excinfo.value))
        assert texts == [
            "row (M) ownership map is not a bijection onto [0, 16): "
            "covered 1 of 16 indices"
        ] * 2
        assert calls == [(4, 4, 1, False)] * 2
        monkeypatch.undo()
        build_plan(make_params())

    def test_staging_only_when_shared(self):
        plan = build_plan(make_params(shared_a=True))
        assert plan.staging_a is not None
        assert plan.staging_b is None

    def test_dtype_tracks_precision(self):
        assert build_plan(make_params(precision="s")).dtype == np.float32
        assert build_plan(make_params(precision="d")).dtype == np.float64

    def test_grid_and_sizes(self):
        plan = build_plan(make_params())  # 16x16 tiles, 4x4 work-groups
        assert plan.workgroup_grid(64, 32) == (4, 2)
        assert plan.global_size(64, 32) == (16, 8)
        assert plan.local_size() == (4, 4)


class TestCheckProblem:
    def test_accepts_divisible_problem(self):
        build_plan(make_params()).check_problem(32, 32, 16)

    @pytest.mark.parametrize("M,N,K", [(30, 32, 16), (32, 30, 16), (32, 32, 12)])
    def test_rejects_indivisible(self, M, N, K):
        with pytest.raises(LaunchError, match="not divisible"):
            build_plan(make_params()).check_problem(M, N, K)

    def test_pipelined_algorithms_need_two_iterations(self):
        plan = build_plan(make_params(algorithm=Algorithm.PL, shared_b=True))
        with pytest.raises(LaunchError, match="K >="):
            plan.check_problem(16, 16, 8)  # K == Kwg: only one iteration
        plan.check_problem(16, 16, 16)  # two iterations: fine

    def test_ba_allows_single_iteration(self):
        build_plan(make_params()).check_problem(16, 16, 8)


class TestOwnershipThroughStride:
    def test_nonunit_plan_permutation_differs_from_unit(self):
        unit = build_plan(make_params())
        nonunit = build_plan(make_params(stride=StrideMode(m=True)))
        assert not np.array_equal(unit.row_permutation(), nonunit.row_permutation())
        # Columns are unaffected by M-direction stride.
        np.testing.assert_array_equal(
            unit.col_permutation(), nonunit.col_permutation()
        )
