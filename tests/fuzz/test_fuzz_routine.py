"""Differential fuzzing: the GEMM routine in FAST mode vs numpy, bit for bit.

The routine packs each operand into a zero-padded block-major buffer
(Sections III-D and IV-B), but a pack kernel's destination holds the
caller's operand unpadded, and the ``fast`` executor multiplies only that
payload.  So on a problem that is no blocking multiple, each of the four
transpose combinations must return exactly ``c*beta + alpha*(opA @ opB)``
as numpy computes it on the caller's arrays: a padding, orientation or
argument-plumbing slip shows up as a bit difference.

Each packing configuration of the fuzz corpus (``REPRO_FUZZ_SEED`` /
``REPRO_FUZZ_COUNT``, shared with ``test_fuzz_kernels.py``) runs NN, NT,
TN and TT on one ragged shape drawn from the case's seed and index.
Edge-guarded and image kernels are left out: they take no pack kernel,
and their operand is uploaded as a re-laid-out copy, whose BLAS call may
round differently from numpy's on the caller's array.
"""

import itertools
import os

import numpy as np
import pytest

from repro.clsim.queue import ExecutionMode
from repro.gemm.routine import GemmRoutine
from repro.spec.corpus import (
    DEFAULT_FUZZ_SEED,
    FUZZ_DEVICES,
    FUZZ_PRECISIONS,
    fuzz_cases,
)

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", str(DEFAULT_FUZZ_SEED)))
FUZZ_COUNT = int(os.environ.get("REPRO_FUZZ_COUNT", "200"))

CASES = fuzz_cases(seed=FUZZ_SEED, count=FUZZ_COUNT)

TRANSPOSES = list(itertools.product("NT", "NT"))


def _ragged(rng: np.random.Generator, block: int) -> int:
    """A size in ``[1, 2 * block)`` that is no multiple of ``block``."""
    size = int(rng.integers(1, 2 * block))
    return size + 1 if block > 1 and size % block == 0 else size


def _operand(rng, rows, cols, trans, dtype):
    """The caller's array whose ``op`` is ``rows x cols``."""
    shape = (rows, cols) if trans == "N" else (cols, rows)
    return rng.standard_normal(shape).astype(dtype)


@pytest.mark.parametrize("codename", FUZZ_DEVICES)
@pytest.mark.parametrize("precision", FUZZ_PRECISIONS)
def test_fast_routine_is_numpy_on_the_callers_operands(codename, precision):
    cases = [c for c in CASES
             if c.device == codename and c.precision == precision
             and not (c.params.guard_edges or c.params.use_images)]
    assert cases, "empty fuzz pool"
    dtype = np.dtype(np.float32 if precision == "s" else np.float64)
    for case in cases:
        p = case.params
        routine = GemmRoutine(case.device, p, measurement_noise=False,
                              execution_mode=ExecutionMode.FAST)
        rng = np.random.default_rng((case.seed, case.index))
        M, N, K = _ragged(rng, p.mwg), _ragged(rng, p.nwg), _ragged(rng, p.kwg)
        alpha, beta = dtype.type(case.alpha), dtype.type(case.beta)
        for transa, transb in TRANSPOSES:
            a = _operand(rng, M, K, transa, dtype)
            b = _operand(rng, K, N, transb, dtype)
            c = rng.standard_normal((M, N)).astype(dtype)
            before = (a.tobytes(), b.tobytes(), c.tobytes())
            op_a = a if transa == "N" else a.T
            op_b = b if transb == "N" else b.T
            reference = c * beta + alpha * (op_a @ op_b)
            got = routine(a, b, c, case.alpha, case.beta, transa, transb).c
            assert got.tobytes() == reference.tobytes(), (
                f"{transa}{transb} {M}x{N}x{K}: fast routine differs from "
                f"numpy for {case.describe()}"
            )
            assert (a.tobytes(), b.tobytes(), c.tobytes()) == before
