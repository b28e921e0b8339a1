"""Freivalds verifier: detection probability, false positives, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clsim.faults import FaultInjector, FaultPlan, FaultRule
from repro.gemm.reference import reference_gemm
from repro.gemm.routine import GemmRoutine
from repro.serve import FreivaldsVerifier
from tests.conftest import make_params


def _problem(rng, m, n, k, dtype):
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    return a, b


class TestFalsePositives:
    """A correct result must never be flagged."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_results_always_pass(self, rng, dtype):
        verifier = FreivaldsVerifier(seed=3, rounds=2)
        for i in range(100):
            m, n, k = rng.integers(4, 80, size=3)
            a, b = _problem(rng, m, n, k, dtype)
            c = reference_gemm("N", "N", 1.25, a, b, 0.0)
            check = verifier.check(a, b, c, alpha=1.25, key=f"fp:{i}")
            assert check.passed, (
                f"false positive on exact result {i}: "
                f"residual {check.max_residual:.3e} > {check.tolerance:.3e}"
            )

    def test_real_kernel_output_passes(self, tahiti, rng):
        # The tolerance must absorb a real (simulated) kernel's rounding,
        # including the float32 worst case.
        params = make_params(precision="s")
        routine = GemmRoutine(tahiti, params, measurement_noise=False)
        verifier = FreivaldsVerifier(seed=0, rounds=2)
        for i in range(20):
            a, b = _problem(rng, 48, 48, 48, np.float32)
            result = routine(a, b)
            check = verifier.check(a, b, result.c, key=f"kernel:{i}")
            assert check.passed

    def test_beta_path_passes(self, rng):
        verifier = FreivaldsVerifier(seed=1)
        a, b = _problem(rng, 32, 24, 40, np.float64)
        c0 = rng.standard_normal((32, 24))
        c = reference_gemm("T", "N", 0.5, a.T.copy(), b, -1.5, c0)
        check = verifier.check(
            a.T.copy(), b, c, alpha=0.5, beta=-1.5, c_in=c0,
            transa="T", key="beta",
        )
        assert check.passed


class TestDetection:
    """Seeded faults and adversarial corruption must be caught."""

    def test_injected_result_faults_always_caught(self, tahiti, rng):
        # The clsim `result` fault poisons the output with NaNs; the
        # verifier's non-finite scan catches every single one.
        plan = FaultPlan(seed=5, rules=(FaultRule(kind="result", rate=1.0),))
        verifier = FreivaldsVerifier(seed=0)
        caught = 0
        for i in range(10):
            injector = FaultInjector(plan).salted(f"trial:{i}")
            routine = GemmRoutine(
                tahiti, make_params(), fault_injector=injector,
                measurement_noise=False,
            )
            a, b = _problem(rng, 32, 32, 32, np.float64)
            result = routine(a, b)
            assert not np.all(np.isfinite(result.c)), "fault did not fire"
            check = verifier.check(a, b, result.c, key=f"trial:{i}")
            caught += not check.passed
        assert caught == 10

    def test_large_additive_corruption_always_caught(self, rng):
        # A single corrupted element perturbs C x by e * x_j with
        # |x_j| = 1 — no Rademacher vector can cancel it.
        verifier = FreivaldsVerifier(seed=2, rounds=1)
        for i in range(50):
            a, b = _problem(rng, 24, 24, 24, np.float64)
            c = reference_gemm("N", "N", 1.0, a, b, 0.0)
            c[int(rng.integers(24)), int(rng.integers(24))] += 10.0
            check = verifier.check(a, b, c, key=f"add:{i}")
            assert not check.passed

    def test_adversarial_cancellation_detection_probability(self, rng):
        # Worst case: two equal-and-opposite errors in one row escape a
        # round iff the random vector agrees on both columns (prob 1/2),
        # so detection is 1 - 2^-rounds.  Seeded keys make the measured
        # rates exact constants run over run.
        a, b = _problem(rng, 16, 16, 16, np.float64)
        c = reference_gemm("N", "N", 1.0, a, b, 0.0)
        bad = c.copy()
        bad[3, 2] += 50.0
        bad[3, 11] -= 50.0

        def rate(rounds):
            verifier = FreivaldsVerifier(seed=9, rounds=rounds)
            detected = sum(
                not verifier.check(a, b, bad, key=f"adv:{i}").passed
                for i in range(200)
            )
            return detected / 200.0

        rate2, rate6 = rate(2), rate(6)
        assert 0.60 <= rate2 <= 0.90   # expected 0.75
        assert rate6 >= 0.95           # expected 63/64
        assert rate6 > rate2


class TestNonFiniteResponses:
    """Non-finite output is judged against the reference, not blamed."""

    def _overflowing(self, rng):
        a = rng.standard_normal((32, 24)).astype(np.float32)
        b = rng.standard_normal((24, 16)).astype(np.float32)
        a[:4] = 1e20
        b[:, :3] = 1e20
        with np.errstate(over="ignore"):
            honest = reference_gemm("N", "N", 1.0, a, b, 0.0)
        assert not np.isfinite(honest).all() and np.isfinite(honest).any()
        return a, b, honest

    def test_honest_partial_overflow_passes(self, rng):
        a, b, honest = self._overflowing(rng)
        verifier = FreivaldsVerifier(seed=3)
        assert verifier.check(a, b, honest).passed
        # The same product through op(A) = A^T.
        assert verifier.check(a.T.copy(), b, honest, transa="T").passed

    def test_nan_tile_over_finite_reference_fails(self, rng):
        a, b, honest = self._overflowing(rng)
        corrupt = honest.copy()
        corrupt[-2:, -2:] = np.nan
        check = FreivaldsVerifier(seed=3).check(a, b, corrupt)
        assert not check.passed
        assert (check.rounds, check.max_residual, check.tolerance) == (
            0, float("inf"), 0.0)

    def test_wrong_finite_entries_fail(self, rng):
        a, b, honest = self._overflowing(rng)
        wrong = honest.copy()
        wrong[np.isfinite(wrong)] *= 2.0
        assert not FreivaldsVerifier(seed=3).check(a, b, wrong).passed


class TestDeterminism:
    def test_same_key_same_verdict(self, rng):
        a, b = _problem(rng, 20, 20, 20, np.float64)
        c = reference_gemm("N", "N", 1.0, a, b, 0.0)
        v1 = FreivaldsVerifier(seed=7, rounds=3)
        v2 = FreivaldsVerifier(seed=7, rounds=3)
        c1 = v1.check(a, b, c, key="k")
        c2 = v2.check(a, b, c, key="k")
        assert c1 == c2

    def test_key_varies_the_vectors(self, rng):
        a, b = _problem(rng, 20, 20, 20, np.float64)
        c = reference_gemm("N", "N", 1.0, a, b, 0.0)
        v = FreivaldsVerifier(seed=7, rounds=1)
        r1 = v.check(a, b, c, key="k1").max_residual
        r2 = v.check(a, b, c, key="k2").max_residual
        assert r1 != r2

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            FreivaldsVerifier(rounds=0)
