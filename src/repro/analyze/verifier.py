"""The :class:`StaticVerifier` facade and batch analysis entry points.

Two distinct verdicts are offered, with different contracts:

:meth:`StaticVerifier.gate`
    the **search gate**: the device constraint rules, re-stating
    exactly what :func:`repro.tuner.parallel.measure_once` checks before
    timing a candidate (a constructed vector has already passed every
    structural rule).  Agreement with the simulator is
    by construction: the gate and ``check_resources`` both read the
    candidate's one :func:`~repro.perfmodel.occupancy.device_fit`, so
    gating a search prunes failing candidates without ever changing
    the winner.

:meth:`StaticVerifier.analyze`
    the **full analysis**: constraints plus the model-level bounds/race
    proofs and (when the emitted source is supplied) the text-level
    cross-checks.  These extra passes detect *generator* bugs, which no
    valid parameter vector should trigger — the differential test-suite
    holds ``analyze`` clean over the fuzz corpus and sampled spaces.

Verdicts are memoized per parameter vector (`KernelParams.cache_key`),
making the gate cheap enough to sit inside the tuner's hot enumeration
loop.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Union

from repro.analyze.bounds import BOUNDS_RULES, check_bounds
from repro.analyze.constraints import (
    DEVICE_RULES,
    STRUCTURAL_RULES,
    failure_class,
    prove,
    prove_constraints,
)
from repro.analyze.diagnostics import AnalysisReport, Severity
from repro.analyze.races import RACE_RULES, check_races
from repro.analyze.sites import build_model
from repro.analyze.source_checks import SOURCE_RULES, check_source
from repro.codegen.params import KernelParams
from repro.devices.specs import DeviceSpec

__all__ = [
    "StaticVerifier",
    "analyze_params",
    "analyze_catalog",
    "analyze_space_sample",
]

Subject = Union[KernelParams, Mapping]


def _subject_label(subject: Subject) -> str:
    if isinstance(subject, KernelParams):
        return subject.summary()
    return "raw " + ", ".join(f"{k}={v}" for k, v in sorted(dict(subject).items()))


class StaticVerifier:
    """Static safety verdicts for generated GEMM kernels.

    ``spec`` scopes the device rules; without one only device-neutral
    rules run (structural constraints, bounds, races, source checks).
    """

    def __init__(self, spec: Optional[DeviceSpec] = None) -> None:
        self.spec = spec
        self._gate_cache: Dict[str, Optional[str]] = {}

    # -- search gate ----------------------------------------------------
    def gate(self, params: KernelParams) -> Optional[str]:
        """First violated constraint rule id, or None when admissible.

        Mirrors :func:`repro.tuner.parallel.measure_once`: a non-None
        return means the simulator would record the candidate as failed
        (generation/build/launch) without producing a measurement.  A
        constructed vector has passed every structural rule, so only the
        device rules are proved.
        """
        key = params.cache_key()
        if key not in self._gate_cache:
            diags = prove_constraints(self.spec, params)
            errors = [d for d in diags if d.severity is Severity.ERROR]
            self._gate_cache[key] = errors[0].rule if errors else None
        return self._gate_cache[key]

    def gate_class(self, params: KernelParams) -> Optional[str]:
        """The measure_once failure class ('generation'/'build'/'launch')."""
        diags = prove_constraints(self.spec, params)
        return failure_class(diags)

    # -- full analysis --------------------------------------------------
    def analyze(
        self,
        subject: Subject,
        source: Optional[str] = None,
        deep: bool = True,
        samples: int = 64,
    ) -> AnalysisReport:
        """Full diagnostic report for one parameter vector.

        ``source`` adds the text-level cross-checks for an already
        emitted kernel; ``deep=False`` restricts to the constraint
        rules (the gate's view, but with *all* violations reported).
        """
        report = AnalysisReport(
            subject=_subject_label(subject),
            device=self.spec.codename if self.spec else "",
        )
        checked: List[str] = list(STRUCTURAL_RULES)
        if self.spec is not None:
            checked.extend(DEVICE_RULES)
        params, diagnostics = prove(self.spec, subject)
        report.extend(diagnostics)
        if deep and params is not None:
            model = build_model(params)
            report.extend(check_bounds(model))
            checked.extend(BOUNDS_RULES)
            report.extend(check_races(model))
            checked.extend(RACE_RULES)
            if source is not None:
                report.extend(check_source(params, source, model, samples))
                checked.extend(SOURCE_RULES)
        report.checked_rules = tuple(checked)
        return report


def analyze_params(
    subject: Subject,
    device: Optional[str] = None,
    with_source: bool = True,
    samples: int = 64,
) -> AnalysisReport:
    """Analyze one vector, optionally against a device, emitting source.

    Source-level checks require a structurally valid vector (the
    emitter refuses anything else), so ``with_source`` is skipped for
    invalid ones.
    """
    from repro.devices.catalog import get_device_spec

    spec = get_device_spec(device) if device else None
    verifier = StaticVerifier(spec)
    source = None
    if with_source:
        params = prove(None, subject)[0]
        if params is not None:
            from repro.codegen.emitter import emit_kernel_source

            source = emit_kernel_source(params)
    return verifier.analyze(subject, source=source, samples=samples)


def analyze_catalog(
    device: Optional[str] = None, samples: int = 64
) -> List[AnalysisReport]:
    """Full analysis of every shipped pretuned kernel (CI gate).

    ``device`` restricts to one codename; default is the whole catalog.
    """
    from repro.tuner.pretuned import pretuned_catalog

    reports = []
    for codename, precision, params in pretuned_catalog():
        if device is not None and codename != device:
            continue
        report = analyze_params(params, device=codename, samples=samples)
        report.subject = f"{codename}/{precision} pretuned: {params.summary()}"
        reports.append(report)
    return reports


def analyze_space_sample(
    device: str,
    precision: str,
    sample: int = 500,
    seed: int = 0,
    with_source: bool = False,
    samples: int = 64,
) -> List[AnalysisReport]:
    """Analyze a deterministic sample of the device's search space.

    ``enumerate_space`` yields only structurally valid vectors, so any
    ERROR here beyond the device-budget rules indicates a generator or
    analyzer bug — the acceptance criterion the differential tests
    enforce.
    """
    from repro.codegen.space import enumerate_space
    from repro.devices.catalog import get_device_spec

    spec = get_device_spec(device)
    reports = []
    for params in enumerate_space(spec, precision, limit=sample, seed=seed):
        reports.append(analyze_params(
            params, device=device, with_source=with_source, samples=samples))
    return reports
