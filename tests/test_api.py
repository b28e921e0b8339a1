"""The convenience API (repro.api) and the package's public surface."""

import importlib

import numpy as np
import pytest

import repro
from repro.api import autotune, tuned_gemm
from repro.errors import ReproError
from repro.gemm.reference import relative_error


class TestTunedGemm:
    def test_pretuned_path(self):
        routine = tuned_gemm("cayman", "s")
        from repro.tuner.pretuned import pretuned_params

        assert routine.params == pretuned_params("cayman", "s")
        assert routine.precision == "s"

    def test_explicit_params_override_pretuned(self):
        from tests.conftest import make_params

        p = make_params()
        routine = tuned_gemm("tahiti", "d", params=p)
        assert routine.params == p

    def test_computes(self, rng):
        routine = tuned_gemm("bulldozer", "d")
        a = rng.standard_normal((40, 30))
        b = rng.standard_normal((30, 50))
        assert relative_error(routine(a, b).c, a @ b) < 1e-11

    def test_routine_kwargs_forwarded(self):
        from repro.clsim.queue import ExecutionMode

        routine = tuned_gemm("tahiti", "d",
                             execution_mode=ExecutionMode.FAST,
                             measurement_noise=False)
        assert routine.queue.execution_mode is ExecutionMode.FAST
        assert routine.queue.measurement_noise is False


class TestAutotune:
    def test_respects_budget_and_seed(self):
        a = autotune("fermi", "s", budget=150, seed=5)
        b = autotune("fermi", "s", budget=150, seed=5)
        assert a.best.params == b.best.params
        assert a.stats.generated >= 150  # stage 1 plus refinement

    def test_restrictions_forwarded(self):
        from repro.codegen import Algorithm, SpaceRestrictions

        result = autotune(
            "tahiti", "d", budget=150,
            restrictions=SpaceRestrictions(algorithms=(Algorithm.BA,)),
        )
        assert result.best.params.algorithm is Algorithm.BA


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module_name", [
        "repro", "repro.clsim", "repro.codegen", "repro.devices",
        "repro.perfmodel", "repro.gemm", "repro.tuner", "repro.baselines",
        "repro.bench", "repro.blas3",
    ])
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_top_level_names(self):
        for name in ("tuned_gemm", "autotune", "KernelParams", "GemmRoutine",
                     "SearchEngine", "get_device_spec", "pretuned_params"):
            assert hasattr(repro, name)

    def test_error_hierarchy(self):
        from repro.errors import (
            BuildError, CLError, LaunchError, ParameterError,
            ReproError, ResourceError, TuningError, ValidationError,
        )

        assert issubclass(ParameterError, ReproError)
        assert issubclass(ParameterError, ValueError)
        assert issubclass(BuildError, CLError)
        assert issubclass(ResourceError, BuildError)
        assert issubclass(LaunchError, CLError)
        assert issubclass(TuningError, ReproError)
        assert issubclass(ValidationError, ReproError)
        # Everything catchable with one except clause.
        assert issubclass(CLError, ReproError)
