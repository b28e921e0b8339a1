"""Freivalds probabilistic result verification.

A full correctness check of ``C = alpha op(A) op(B) + beta C0`` costs
another O(n^3) multiplication — as expensive as serving the request
twice.  Freivalds' algorithm (1977) checks the same identity in O(n^2)
per round: pick a random vector ``x``, compare ``C x`` against
``alpha op(A) (op(B) x) + beta (C0 x)``.  A correct result always
passes; a wrong one passes a single round with probability at most 1/2
for adversarial errors — and with probability ~0 for the fault
injector's NaN corruption, which poisons ``C x`` outright.  ``rounds``
independent vectors drive the adversarial escape probability to
``2^-rounds``.

GEMMbench (Lokhmotov, 2015) argues GEMM stacks need systematic
correctness checking alongside timing; this is the cheapest sound way
to get it on the serving hot path.  Every decision is seeded: the
random vectors are a pure function of ``(seed, key)``, so a soak run
re-verifies exactly the same responses with exactly the same vectors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gemm.reference import reference_gemm

__all__ = ["FreivaldsCheck", "FreivaldsVerifier"]


@dataclass(frozen=True)
class FreivaldsCheck:
    """Outcome of one verification: verdict plus evidence."""

    passed: bool
    rounds: int
    #: Largest relative residual observed across rounds (inf for NaN).
    max_residual: float
    #: Residual threshold the verdict compared against.
    tolerance: float


def _derive_seed(seed: int, key: str) -> int:
    """A per-request RNG seed: pure function of the service seed + key."""
    digest = hashlib.blake2b(
        f"freivalds|{seed}|{key}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FreivaldsVerifier:
    """Seeded Freivalds checker for GEMM responses.

    ``tol_factor`` scales the rounding-error allowance: the residual is
    compared against ``tol_factor * K * eps(dtype)`` relative to the
    magnitude of the reference projection.  The default is loose enough
    that honest float32 kernels never trip it (false-positive rate 0 on
    clean runs, asserted by the test suite) while NaN/garbage corruption
    overshoots it by many orders of magnitude.
    """

    def __init__(self, seed: int = 0, rounds: int = 2,
                 tol_factor: float = 64.0) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.seed = seed
        self.rounds = rounds
        self.tol_factor = tol_factor

    def check(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c_out: np.ndarray,
        alpha: float = 1.0,
        beta: float = 0.0,
        c_in: Optional[np.ndarray] = None,
        transa: str = "N",
        transb: str = "N",
        key: str = "",
    ) -> FreivaldsCheck:
        """Verify one response; O(rounds * n^2), deterministic in ``key``."""
        opa = a.T if transa.upper() == "T" else a
        opb = b.T if transb.upper() == "T" else b
        K = opa.shape[1]
        eps = float(np.finfo(c_out.dtype).eps) if np.issubdtype(
            c_out.dtype, np.floating) else float(np.finfo(np.float64).eps)
        tolerance = self.tol_factor * max(K, 1) * eps
        # Non-finite output cannot be projected (NaN/Inf poison C x), so
        # it is judged against the host reference instead: finite
        # operands whose product overflows the dtype give Inf honestly.
        # Corruption (a NaN tile over a finite reference) still fails.
        if not np.all(np.isfinite(c_out)):
            return self._check_nonfinite(opa, opb, c_out, alpha, beta, c_in,
                                         tolerance)
        # Project in float64 so the verifier's own rounding is far below
        # the kernel's; the kernel error budget lives in `tolerance`.
        opa64 = opa.astype(np.float64, copy=False)
        opb64 = opb.astype(np.float64, copy=False)
        c64 = c_out.astype(np.float64, copy=False)
        rng = np.random.default_rng(_derive_seed(self.seed, key))
        worst = 0.0
        for _ in range(self.rounds):
            # Rademacher vector: +-1 entries keep magnitudes comparable.
            x = rng.integers(0, 2, size=c_out.shape[1]).astype(np.float64)
            x = 2.0 * x - 1.0
            lhs = c64 @ x
            rhs = float(alpha) * (opa64 @ (opb64 @ x))
            if float(beta) != 0.0 and c_in is not None:
                rhs = rhs + float(beta) * (
                    c_in.astype(np.float64, copy=False) @ x
                )
            scale = max(float(np.abs(rhs).max(initial=0.0)),
                        float(np.abs(lhs).max(initial=0.0)), 1e-30)
            residual = float(np.abs(lhs - rhs).max(initial=0.0)) / scale
            worst = max(worst, residual)
            if residual > tolerance:
                return FreivaldsCheck(False, self.rounds, worst, tolerance)
        return FreivaldsCheck(True, self.rounds, worst, tolerance)

    @staticmethod
    def _check_nonfinite(opa, opb, c_out, alpha, beta, c_in,
                         tolerance) -> FreivaldsCheck:
        """Compare a non-finite response with the reference computed in
        the response's dtype: the non-finite masks must match exactly
        and the finite entries agree within ``tolerance``."""
        dtype = c_out.dtype
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_gemm(
                "N", "N", float(alpha), opa.astype(dtype, copy=False),
                opb.astype(dtype, copy=False),
                0.0 if c_in is None else float(beta),
                None if c_in is None else c_in.astype(dtype, copy=False),
            )
        finite = np.isfinite(c_out)
        if not np.array_equal(finite, np.isfinite(ref)):
            return FreivaldsCheck(False, 0, float("inf"), 0.0)
        out64 = c_out[finite].astype(np.float64)
        ref64 = ref[finite].astype(np.float64)
        scale = max(float(np.abs(ref64).max(initial=0.0)), 1e-30)
        residual = float(np.abs(out64 - ref64).max(initial=0.0)) / scale
        return FreivaldsCheck(residual <= tolerance, 0, residual, tolerance)
