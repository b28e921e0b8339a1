"""Heuristic search-space enumeration."""

import hashlib
import itertools

import pytest

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.space import (
    SpaceRestrictions,
    enumerate_space,
    seed_candidates,
    space_size_estimate,
)
from repro.devices import get_device_spec


@pytest.fixture(scope="module")
def tahiti():
    return get_device_spec("tahiti")


@pytest.fixture(scope="module")
def sandybridge():
    return get_device_spec("sandybridge")


class TestEnumeration:
    def test_yields_valid_unique_candidates(self, tahiti):
        seen = set()
        for params in enumerate_space(tahiti, "d", limit=500):
            key = params.cache_key()
            assert key not in seen
            seen.add(key)
            assert params.precision == "d"
            # Every candidate respects the device's hard limits.
            assert params.workgroup_size <= tahiti.model.max_workgroup_size
            assert params.local_memory_bytes() <= tahiti.local_mem_bytes
        assert len(seen) == 500

    def test_limit_caps_output(self, tahiti):
        assert sum(1 for _ in enumerate_space(tahiti, "s", limit=37)) == 37

    def test_deterministic_for_fixed_seed(self, tahiti):
        a = [p.cache_key() for p in enumerate_space(tahiti, "d", limit=200, seed=1)]
        b = [p.cache_key() for p in enumerate_space(tahiti, "d", limit=200, seed=1)]
        assert a == b

    def test_seed_changes_secondary_sampling(self, tahiti):
        a = {p.cache_key() for p in enumerate_space(tahiti, "d", limit=300, seed=1,
                                                    include_seeds=False)}
        b = {p.cache_key() for p in enumerate_space(tahiti, "d", limit=300, seed=2,
                                                    include_seeds=False)}
        assert a != b

    @pytest.mark.parametrize("device, precision, digest", [
        ("tahiti", "s", "89b59a131874029a"),
        ("bulldozer", "d", "399331c93f04cc11"),
    ])
    def test_yield_sequence_is_pinned(self, device, precision, digest):
        """The enumeration's RNG draws, and so its yield, stay put: the
        digest of the cache-key sequence under the search engine's
        default restrictions."""
        keys = [p.cache_key() for p in enumerate_space(
            get_device_spec(device), precision, SpaceRestrictions(), limit=800, seed=0
        )]
        assert len(keys) == 800
        assert hashlib.blake2b(repr(keys).encode(), digest_size=8).hexdigest() == digest

    def test_full_space_is_tens_of_thousands(self, tahiti):
        # The paper: "tens of thousands of kernel variants per single
        # GEMM type on an OpenCL device".
        size = space_size_estimate(tahiti, "d")
        assert 10_000 < size < 100_000

    def test_curated_seeds_come_first(self, tahiti):
        # Image seeds are only admissible when the space allows images.
        seeds = [p for p in seed_candidates(tahiti, "d") if not p.use_images]
        head = list(itertools.islice(enumerate_space(tahiti, "d"), len(seeds)))
        assert [p.cache_key() for p in head] == [p.cache_key() for p in seeds]

    def test_cpu_space_respects_workgroup_heuristics(self, sandybridge):
        for params in enumerate_space(sandybridge, "d", limit=300):
            assert params.workgroup_size <= 128


class TestRestrictions:
    def test_power_of_two_only(self, tahiti):
        r = SpaceRestrictions(power_of_two_only=True)
        for params in enumerate_space(tahiti, "d", r, limit=300):
            for v in (params.mwg, params.nwg, params.kwg,
                      params.mdimc, params.ndimc, params.kwi):
                assert v & (v - 1) == 0, params.summary()

    def test_forced_algorithm(self, tahiti):
        r = SpaceRestrictions(forced_algorithm=Algorithm.DB)
        for params in enumerate_space(tahiti, "d", r, limit=100):
            assert params.algorithm is Algorithm.DB

    def test_forced_shared(self, tahiti):
        r = SpaceRestrictions(forced_shared=(False, False))
        for params in enumerate_space(tahiti, "s", r, limit=200):
            assert not params.shared_a and not params.shared_b

    def test_forced_layouts(self, tahiti):
        r = SpaceRestrictions(forced_layouts=(Layout.ROW, Layout.ROW))
        for params in enumerate_space(tahiti, "d", r, limit=200):
            assert params.layout_a is Layout.ROW
            assert params.layout_b is Layout.ROW

    def test_no_dual_shared(self, tahiti):
        r = SpaceRestrictions(allow_dual_shared=False)
        for params in enumerate_space(tahiti, "d", r, limit=300):
            assert not (params.shared_a and params.shared_b)

    def test_previous_generator_space(self, tahiti):
        r = SpaceRestrictions.previous_generator()
        for params in enumerate_space(tahiti, "d", r, limit=300):
            assert params.algorithm is Algorithm.BA
            assert not (params.shared_a and params.shared_b)
            # No staging reshape: the loader grid equals the compute grid.
            assert params.effective_mdima == params.mdimc
            assert params.effective_ndimb == params.ndimc

    def test_restricted_space_is_smaller(self, tahiti):
        full = space_size_estimate(tahiti, "d", per_blocking=2)
        old = space_size_estimate(
            tahiti, "d", SpaceRestrictions.previous_generator(), per_blocking=2
        )
        assert old < full

    def test_seeds_filtered_by_restrictions(self, tahiti):
        # With a forced algorithm, only matching seeds survive up front.
        r = SpaceRestrictions(forced_algorithm=Algorithm.PL)
        first = next(iter(enumerate_space(tahiti, "s", r)))
        assert first.algorithm is Algorithm.PL


class TestSeedCandidates:
    @pytest.mark.parametrize("device", ["tahiti", "sandybridge"])
    @pytest.mark.parametrize("precision", ["s", "d"])
    def test_seeds_are_valid_and_nonempty(self, device, precision):
        spec = get_device_spec(device)
        seeds = seed_candidates(spec, precision)
        assert seeds
        for params in seeds:
            assert params.precision == precision
            assert params.local_memory_bytes() <= spec.local_mem_bytes

    def test_gpu_and_cpu_seed_sets_differ(self):
        gpu = {p.cache_key() for p in seed_candidates(get_device_spec("tahiti"), "d")}
        cpu = {p.cache_key() for p in seed_candidates(get_device_spec("bulldozer"), "d")}
        assert gpu.isdisjoint(cpu)
