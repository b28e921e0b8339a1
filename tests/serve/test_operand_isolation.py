"""The service never writes or aliases the caller's operands.

A pack kernel's destination holds a view of the caller's array, not a
padded copy, so the FAST path multiplies the caller's memory directly.
Every request through ``GemmService.submit`` must still leave ``a``,
``b`` and ``c`` byte-unchanged and return a result that shares no memory
with any of them, in FAST and in WORKGROUP mode.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.clsim.queue import ExecutionMode
from repro.codegen.layouts import Layout
from repro.serve import GemmService

from tests.conftest import make_params


@pytest.mark.parametrize("mode", [ExecutionMode.FAST, ExecutionMode.WORKGROUP])
@pytest.mark.parametrize("transa,transb", list(itertools.product("NT", "NT")))
def test_submit_neither_writes_nor_aliases_operands(mode, transa, transb):
    params = make_params(layout_a=Layout.CBL, layout_b=Layout.RBL)
    service = GemmService("tahiti", "d", params={"tahiti": params},
                          execution_mode=mode)
    rng = np.random.default_rng(11)
    M, N, K = 27, 37, 19  # padded on every axis
    a = rng.standard_normal((M, K) if transa == "N" else (K, M))
    b = rng.standard_normal((K, N) if transb == "N" else (N, K))
    c = rng.standard_normal((M, N))
    before = [x.tobytes() for x in (a, b, c)]
    result = service.submit(a, b, c, alpha=1.5, beta=-0.5,
                            transa=transa, transb=transb)
    assert result.rung == "tuned" and not result.degraded
    assert [x.tobytes() for x in (a, b, c)] == before
    assert not any(np.shares_memory(result.c, x) for x in (a, b, c))
    op_a = a if transa == "N" else a.T
    op_b = b if transb == "N" else b.T
    expected = c * -0.5 + 1.5 * (op_a @ op_b)
    if mode is ExecutionMode.FAST:
        assert result.c.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(result.c, expected, rtol=1e-12, atol=1e-12)
