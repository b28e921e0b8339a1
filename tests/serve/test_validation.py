"""Up-front request validation with typed errors naming the argument."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidRequestError, ReproError
from repro.gemm.routine import GemmRoutine, validate_gemm_request
from repro.serve import GemmCall, GemmService
from tests.conftest import make_params


@pytest.fixture
def ab(rng):
    return rng.standard_normal((8, 6)), rng.standard_normal((6, 10))


def test_error_type_is_both_repro_and_value_error(ab):
    a, b = ab
    with pytest.raises(InvalidRequestError) as exc:
        validate_gemm_request(a, b, transa="X")
    assert isinstance(exc.value, ReproError)
    assert isinstance(exc.value, ValueError)
    assert exc.value.argument == "transa"


def _poke(mat, value):
    mat = mat.copy()
    mat[1, 2] = value
    return mat


STRUCTURAL = [
    (lambda a, b: (a[None], b, {}), "a"),                      # 3-D a
    (lambda a, b: (a.astype(complex), b, {}), "a"),            # complex
    (lambda a, b: (a.astype(object), b, {}), "a"),             # object
    (lambda a, b: (np.empty((0, 6)), b, {}), "a"),             # empty
    (lambda a, b: (a, b[:5], {}), "b"),                        # K mismatch
    (lambda a, b: (a, b, {"alpha": float("nan")}), "alpha"),
    (lambda a, b: (a, b, {"beta": float("inf")}), "beta"),
    (lambda a, b: (a, b, {"alpha": "x"}), "alpha"),            # non-scalar
    (lambda a, b: (a, b, {"beta": 0.5}), "c"),                 # beta, no C
    (lambda a, b: (a, b, {"transb": "Q"}), "transb"),
]

# Only the service rejects non-finite operands (see GemmCall.validate).
NONFINITE = [
    pytest.param(lambda a, b: (_poke(a, np.nan), b, {}), "a", id="nan-in-a"),
    pytest.param(lambda a, b: (a, _poke(b, -np.inf), {}), "b", id="inf-in-b"),
]


@pytest.mark.parametrize("mutate, argument", STRUCTURAL)
def test_offending_argument_is_named(ab, mutate, argument):
    a, b, kwargs = mutate(*ab)
    with pytest.raises(InvalidRequestError) as exc:
        validate_gemm_request(a, b, **kwargs)
    assert exc.value.argument == argument
    assert f"argument {argument!r}" in str(exc.value)


@pytest.mark.parametrize("mutate, argument", STRUCTURAL + NONFINITE)
def test_service_call_names_offending_argument(ab, mutate, argument):
    # GemmCall.validate is the service's one validation entry point:
    # validate_gemm_request plus the operand finiteness check.
    a, b, kwargs = mutate(*ab)
    with pytest.raises(InvalidRequestError) as exc:
        GemmCall(a, b, **kwargs).validate(np.float64)
    assert exc.value.argument == argument
    assert f"argument {argument!r}" in str(exc.value)


def test_finiteness_is_checked_in_the_service_dtype(ab):
    a, b = ab
    huge = np.full_like(a, 1e39)  # finite in fp64, Inf in fp32
    GemmCall(huge, b).validate(np.float64)
    with pytest.raises(InvalidRequestError) as exc:
        GemmCall(huge, b).validate(np.float32)
    assert exc.value.argument == "a"
    call = GemmCall(a, b).validate(np.float32)
    assert call.a.dtype == call.b.dtype == np.float32


def test_wrong_c_shape_is_named(ab, rng):
    a, b = ab
    c = rng.standard_normal((8, 9))
    with pytest.raises(InvalidRequestError) as exc:
        validate_gemm_request(a, b, c, beta=1.0)
    assert exc.value.argument == "c"


def test_noncontiguous_inputs_are_accepted(ab):
    a, b = ab
    out_a, out_b, _, _, _ = validate_gemm_request(np.asfortranarray(a), b[:, ::-1])
    assert not out_a.flags.c_contiguous
    assert not out_b.flags.c_contiguous
    assert out_a.shape == (8, 6)
    assert out_b.shape == (6, 10)


def test_nonfinite_c_is_named_only_when_read(ab):
    a, b = ab
    c = np.full((8, 10), np.nan)
    GemmCall(a, b, c, beta=0.0).validate(np.float64)  # C is never read
    with pytest.raises(InvalidRequestError) as exc:
        GemmCall(a, b, c, beta=1.0).validate(np.float64)
    assert exc.value.argument == "c"


def test_routine_keeps_blas_nan_propagation(tahiti, ab):
    # Only the service rejects non-finite operands; a plain routine call
    # lets NaN flow through to the result, as BLAS does.
    routine = GemmRoutine(tahiti, make_params(), measurement_noise=False)
    a, b = ab
    out = routine(_poke(a, np.nan), b).c
    assert np.isnan(out[1]).all()
    assert np.isfinite(np.delete(out, 1, axis=0)).all()


def test_routine_validates_before_touching_the_device(tahiti, ab):
    routine = GemmRoutine(tahiti, make_params(), measurement_noise=False)
    a, b = ab
    with pytest.raises(InvalidRequestError) as exc:
        routine(a, b, beta=2.0)  # beta != 0 without C
    assert exc.value.argument == "c"


def test_service_counts_and_logs_invalid_requests(ab):
    service = GemmService("tahiti", "d")
    a, b = ab
    with pytest.raises(InvalidRequestError):
        service.submit(a, b[:5])
    assert service.counters.invalid == 1
    assert service.counters.admitted == 0
    incidents = service.log.by_kind("invalid")
    assert len(incidents) == 1
    assert "argument 'b'" in incidents[0].detail


# The operand dtype gate, by dtype kind: real floats, signed and
# unsigned integers and bool are accepted; everything else is refused
# with one of three texts.  timedelta64 is refused although numpy files
# it under np.integer: a duration is not a GEMM operand.
_CANNOT_CAST = "dtype {} cannot be cast to a GEMM precision"
OPERAND_DTYPES = [
    ("float16", None), ("float32", None), ("float64", None),
    ("longdouble", None),
    ("int8", None), ("int16", None), ("int32", None), ("int64", None),
    ("uint8", None), ("uint16", None), ("uint32", None), ("uint64", None),
    ("bool", None),
    ("complex64", "complex dtype complex64 is not supported (GEMM is real)"),
    ("complex128",
     "complex dtype complex128 is not supported (GEMM is real)"),
    ("object", "object-dtype arrays are not supported"),
    ("datetime64[s]", _CANNOT_CAST.format("datetime64[s]")),
    ("timedelta64[s]", _CANNOT_CAST.format("timedelta64[s]")),
    ("<U3", _CANNOT_CAST.format("<U3")),
    ("S3", _CANNOT_CAST.format("|S3")),
    ("V8", _CANNOT_CAST.format("|V8")),
]


@pytest.mark.parametrize("dtype, message", OPERAND_DTYPES,
                         ids=[d for d, _ in OPERAND_DTYPES])
def test_operand_dtype_gate(dtype, message):
    a = np.zeros((2, 3), dtype=dtype)
    b = np.ones((3, 4))
    if message is None:
        out_a, _, _, _, _ = validate_gemm_request(a, b)
        assert out_a is a
        return
    with pytest.raises(InvalidRequestError) as exc:
        validate_gemm_request(a, b)
    assert exc.value.argument == "a"
    assert str(exc.value) == f"invalid GEMM request: argument 'a': {message}"
