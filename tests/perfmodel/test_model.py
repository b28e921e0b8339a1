"""The kernel timing model: structure, factors, quirks, determinism."""

import pickle

import pytest

from repro.analyze import StaticVerifier
from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.params import FIT_SLOT
from repro.devices import get_device_spec
from repro.errors import LaunchError, ResourceError
from repro.perfmodel import occupancy
from repro.perfmodel.model import (
    alu_efficiency,
    check_execution_quirks,
    check_resources,
    estimate_copy_time,
    estimate_kernel_time,
)
from repro.perfmodel.whatif import scaling_sweep
from repro.tuner.parallel import measure_once
from repro.tuner.pretuned import pretuned_params

from tests.conftest import make_params


class TestAluEfficiency:
    def test_factors_multiply_to_total(self, tahiti):
        total, factors = alu_efficiency(tahiti, make_params())
        product = 1.0
        for v in factors.values():
            product *= v
        assert total == pytest.approx(product)

    def test_all_factors_positive_and_bounded(self, tahiti):
        _, factors = alu_efficiency(tahiti, make_params(vw=2))
        for name, value in factors.items():
            assert 0.0 < value <= 1.2, (name, value)

    def test_preferred_vector_width_is_best(self, cayman):
        # Cayman's VLIW wants 4-wide SP vectors.
        base = make_params(precision="s", mwg=32, nwg=32, mdimc=8, ndimc=8)
        eff = {
            vw: alu_efficiency(cayman, base.replace(vw=vw))[0]
            for vw in (1, 2, 4)
        }
        assert eff[4] > eff[2] > eff[1]

    def test_scalar_code_hurts_more_on_cpu(self, cayman, sandybridge):
        base = make_params(precision="s", mwg=64, nwg=64, mdimc=8, ndimc=8)

        def penalty(spec):
            pref = spec.model.simd_width_sp
            best = alu_efficiency(spec, base.replace(vw=pref))[1]["vector"]
            worst = alu_efficiency(spec, base.replace(vw=1))[1]["vector"]
            return worst / best

        assert penalty(sandybridge) < penalty(cayman)

    def test_unroll_amortises_loop_overhead(self, tahiti):
        low = alu_efficiency(tahiti, make_params(kwi=1))[1]["unroll"]
        high = alu_efficiency(tahiti, make_params(kwi=8))[1]["unroll"]
        assert high > low

    def test_unstaged_operands_cost_issue_slots(self, tahiti):
        staged = alu_efficiency(
            tahiti, make_params(shared_a=True, shared_b=True)
        )[1]["staging"]
        unstaged = alu_efficiency(tahiti, make_params())[1]["staging"]
        assert staged == 1.0
        assert unstaged == pytest.approx(tahiti.model.nolocal_alu_factor ** 2)

    def test_cayman_pays_nothing_unstaged(self, cayman):
        assert alu_efficiency(cayman, make_params())[1]["staging"] == 1.0

    def test_spill_penalty_beyond_register_cap(self):
        fermi = get_device_spec("fermi")
        light = make_params()
        heavy = make_params(mwg=64, nwg=32, mdimc=8, ndimc=8)  # 32 accs
        assert alu_efficiency(fermi, light)[1]["spill"] == 1.0
        assert alu_efficiency(fermi, heavy)[1]["spill"] < 1.0

    def test_row_layout_costs_issue_slots(self, sandybridge):
        row = alu_efficiency(sandybridge, make_params())[1]["layout"]
        blk = alu_efficiency(
            sandybridge,
            make_params(layout_a=Layout.CBL, layout_b=Layout.RBL),
        )[1]["layout"]
        assert blk == 1.0
        assert row < 1.0


class TestEstimateKernelTime:
    def test_breakdown_is_consistent(self, tahiti):
        bd = estimate_kernel_time(tahiti, make_params(), 64, 64, 32, noise=False)
        assert bd.total_seconds > 0
        assert bd.flops == 2.0 * 64 * 64 * 32
        assert bd.gflops == pytest.approx(bd.flops / bd.total_seconds / 1e9)
        assert bd.bound in ("alu", "gmem", "lmem")

    def test_noise_is_deterministic_and_small(self, tahiti):
        p = make_params()
        a = estimate_kernel_time(tahiti, p, 64, 64, 32).total_seconds
        b = estimate_kernel_time(tahiti, p, 64, 64, 32).total_seconds
        clean = estimate_kernel_time(tahiti, p, 64, 64, 32, noise=False).total_seconds
        assert a == b
        assert abs(a - clean) / clean < 0.016

    def test_efficiency_never_exceeds_boosted_peak(self, tahiti):
        p = pretuned_params("tahiti", "d")
        bd = estimate_kernel_time(tahiti, p, 4032, 4032, 4032, noise=False)
        boosted = tahiti.peak_dp_gflops * tahiti.model.boost_factor
        assert bd.gflops <= boosted

    def test_larger_problems_are_more_efficient(self, tahiti):
        p = pretuned_params("tahiti", "s")
        lcm = p.lcm
        small = estimate_kernel_time(tahiti, p, lcm, lcm, lcm, noise=False)
        big = estimate_kernel_time(tahiti, p, 8 * lcm, 8 * lcm, 8 * lcm, noise=False)
        assert big.gflops > small.gflops

    def test_barrier_time_only_with_local_memory(self, tahiti):
        no_local = estimate_kernel_time(tahiti, make_params(), 64, 64, 32, noise=False)
        with_local = estimate_kernel_time(
            tahiti, make_params(shared_b=True), 64, 64, 32, noise=False
        )
        assert no_local.t_barrier == 0.0
        assert with_local.t_barrier > 0.0

    def test_cayman_barriers_dwarf_tahitis(self, tahiti, cayman):
        p = make_params(shared_a=True, shared_b=True)
        t = estimate_kernel_time(tahiti, p, 64, 64, 32, noise=False).t_barrier
        c = estimate_kernel_time(cayman, p, 64, 64, 32, noise=False).t_barrier
        assert c > 5 * t

    def test_nonresident_kernel_raises(self, cayman):
        p = make_params(mwg=96, nwg=96, kwg=24, mdimc=8, ndimc=8,
                        shared_a=True, shared_b=True)
        with pytest.raises(ResourceError):
            estimate_kernel_time(cayman, p, 96, 96, 48)


class TestResourceChecks:
    def test_workgroup_size_limit(self, tahiti):
        with pytest.raises(ResourceError, match="work-group"):
            check_resources(tahiti, make_params(mwg=32, nwg=32, mdimc=32, ndimc=32))

    def test_private_hard_cap(self):
        fermi = get_device_spec("fermi")
        monster = make_params(mwg=128, nwg=128, mdimc=8, ndimc=8)  # 256 accs
        with pytest.raises(ResourceError, match="register cap"):
            check_resources(fermi, monster)

    def test_quirk_check(self, bulldozer, sandybridge):
        pl_d = make_params(algorithm=Algorithm.PL, shared_b=True)
        with pytest.raises(LaunchError):
            check_execution_quirks(bulldozer, pl_d)
        check_execution_quirks(sandybridge, pl_d)  # fine elsewhere
        check_execution_quirks(bulldozer, pl_d.replace(precision="s"))


class TestDeviceFit:
    """The device build rules are proved once per (device, candidate)."""

    def test_gate_then_measure_computes_occupancy_once(self, tahiti, monkeypatch):
        calls = []
        real = occupancy.compute_occupancy

        def counted(spec, params):
            calls.append(params)
            return real(spec, params)

        monkeypatch.setattr(occupancy, "compute_occupancy", counted)
        params = make_params(shared_a=True, shared_b=True)
        assert StaticVerifier(tahiti).gate(params) is None
        n = max(params.lcm, params.algorithm.min_k_iterations * params.kwg)
        assert measure_once(tahiti, params, n, n, n) > 0
        assert len(calls) == 1

    def test_whatif_variants_are_proved_afresh(self, tahiti):
        params = pretuned_params("tahiti", "d")
        check_resources(tahiti, params)  # the fit now names the base spec
        points = scaling_sweep(
            "tahiti", params, "local_mem_kb", (0.1, 0.5, 1, 2), 1008, 1056, 1056
        )
        # Shrunk local memory cannot host the tile; the base fit must not
        # leak onto the variants.
        assert [scale for scale, _ in points] == [1, 2]
        assert [gflops for _, gflops in points] == pytest.approx(
            [769.168901785042, 770.1339995694739], rel=1e-12
        )

    def test_pickle_carries_no_fit(self, tahiti):
        params = pretuned_params("tahiti", "d")
        before = estimate_kernel_time(tahiti, params, 1008, 1056, 1056)
        assert FIT_SLOT in params.__dict__
        clone = pickle.loads(pickle.dumps(params))
        assert FIT_SLOT not in clone.__dict__
        assert clone == params and hash(clone) == hash(params)
        assert repr(clone) == repr(params)
        after = estimate_kernel_time(tahiti, clone, 1008, 1056, 1056)
        assert after.total_seconds == before.total_seconds


class TestCopyTime:
    def test_scales_with_bytes(self, tahiti):
        small = estimate_copy_time(tahiti, 1e6)
        large = estimate_copy_time(tahiti, 1e8)
        assert large > small

    def test_has_fixed_overhead(self, tahiti):
        assert estimate_copy_time(tahiti, 0.0) > 0.0
