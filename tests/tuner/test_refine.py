"""The hill-climbing refinement stage."""

import pytest

from repro.codegen.algorithms import Algorithm
from repro.codegen.space import SpaceRestrictions
from repro.devices import get_device_spec
from repro.tuner.refine import neighbors
from repro.tuner.search import SearchEngine, TuningConfig

from tests.conftest import make_params


@pytest.fixture(scope="module")
def tahiti():
    return get_device_spec("tahiti")


class TestNeighbors:
    def test_yields_valid_unique_variations(self, tahiti):
        base = make_params(shared_a=True, shared_b=True)
        seen = {base.cache_key()}
        count = 0
        for candidate in neighbors(base, tahiti):
            assert candidate.cache_key() not in seen
            seen.add(candidate.cache_key())
            assert candidate.local_memory_bytes() <= tahiti.local_mem_bytes
            count += 1
        assert count > 10

    def test_varies_every_parameter_family(self, tahiti):
        base = make_params(shared_b=True)
        variants = list(neighbors(base, tahiti))
        assert any(v.mwg != base.mwg for v in variants)
        assert any(v.kwi != base.kwi for v in variants)
        assert any(v.vw != base.vw for v in variants)
        assert any(v.stride != base.stride for v in variants)
        assert any((v.shared_a, v.shared_b) != (False, True) for v in variants)
        assert any(v.layout_a != base.layout_a for v in variants)
        assert any(v.algorithm != base.algorithm for v in variants)

    def test_image_kernels_keep_row_layouts(self, tahiti):
        base = make_params(use_images=True)
        for candidate in neighbors(base, tahiti):
            if candidate.use_images:
                assert not candidate.layout_a.is_block_major
                assert not candidate.layout_b.is_block_major

    def test_neighbors_of_pretuned_do_not_crash(self, tahiti):
        from repro.tuner.pretuned import pretuned_params

        base = pretuned_params("tahiti", "d")
        assert sum(1 for _ in neighbors(base, tahiti)) > 10


class TestRefinementStage:
    def test_refinement_never_hurts(self):
        results = {}
        for rounds in (0, 2):
            cfg = TuningConfig(budget=400, verify_finalists=0,
                               refine_rounds=rounds)
            results[rounds] = SearchEngine("kepler", "s", cfg).run()
        assert results[2].best_gflops >= results[0].best_gflops
        assert results[2].stats.refined > 0
        assert results[0].stats.refined == 0

    def test_refinement_respects_restrictions(self):
        cfg = TuningConfig(budget=300, verify_finalists=0, refine_rounds=2)
        restrictions = SpaceRestrictions(algorithms=(Algorithm.BA,))
        result = SearchEngine("tahiti", "d", cfg, restrictions).run()
        for mk in result.finalists:
            assert mk.params.algorithm is Algorithm.BA

    def test_refinement_respects_no_local_restriction(self):
        cfg = TuningConfig(budget=300, verify_finalists=0, refine_rounds=2)
        restrictions = SpaceRestrictions(forced_shared=(False, False))
        result = SearchEngine("tahiti", "s", cfg, restrictions).run()
        for mk in result.finalists:
            assert not (mk.params.shared_a or mk.params.shared_b)

    def test_refinement_is_deterministic(self):
        cfg = TuningConfig(budget=300, verify_finalists=0, refine_rounds=1)
        a = SearchEngine("fermi", "d", cfg).run()
        b = SearchEngine("fermi", "d", cfg).run()
        assert a.best.params == b.best.params
