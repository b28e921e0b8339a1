"""The constraint prover: Section-III structural rules + device budgets.

It proves, as individually reported rules with witnesses, exactly the
checks the dynamic pipeline performs:

* the structural rules of the Section-III table in
  :mod:`repro.codegen.rules`, which ``KernelParams`` construction walks
  too (a violation there is the paper's "failed in code generation"),
* the device resource budgets of
  :func:`repro.perfmodel.occupancy.device_fit` ("failed in
  compilation"), and
* the execution quirks of
  :func:`repro.perfmodel.model.check_execution_quirks` ("failed in
  testing": the Bulldozer PL-DGEMM launch failure of Section IV-A).

The structural rules run only for a **raw mapping**: construction raises
on the first rule a vector breaks, while the prover reports *every*
violated rule, each with the concrete values that violate it.  A
constructed ``KernelParams`` has already passed every structural rule,
so only the device rules are proved for it.

Agreement contract: for any vector, :func:`failure_class` equals the
failure category :func:`repro.tuner.parallel.measure_once` would record
(``None`` when the measurement would succeed).  The differential tests
in ``tests/analyze`` hold this over the fuzz corpus and sampled spaces;
the search gate in :mod:`repro.tuner.search` relies on it for
winner-identity between gated and ungated runs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analyze.diagnostics import Diagnostic, Severity
from repro.codegen.params import Draft, KernelParams
from repro.codegen.rules import SECTION_III, violations
from repro.devices.specs import DeviceSpec
from repro.errors import ParameterError
from repro.perfmodel.model import pl_dgemm_quirk
from repro.perfmodel.occupancy import device_fit

__all__ = [
    "RULES",
    "STRUCTURAL_RULES",
    "DEVICE_RULES",
    "prove",
    "prove_constraints",
    "structural_diagnostics",
    "device_diagnostics",
    "failure_class",
]

#: rule id -> (paper section, one-line description).  The catalog is the
#: source of the rule table in ``docs/static_analysis.md``.
STRUCTURAL_RULES: Dict[str, Tuple[str, str]] = {
    rule.id: (rule.section, rule.description) for rule in SECTION_III
}

DEVICE_RULES: Dict[str, Tuple[str, str]] = {
    "device.workgroup-size": ("II", "MdimC*NdimC within the device work-group limit"),
    "device.local-memory": ("III-C", "local tile bytes within the device's local memory"),
    "device.private-memory": ("III-B", "private footprint within twice the register cap"),
    "device.occupancy": ("II", "at least one work-group resident per compute unit"),
    "device.quirk-pl-dgemm": ("IV-A", "PL DGEMM kernels abort on Bulldozer-quirk devices"),
}

RULES: Dict[str, Tuple[str, str]] = {**STRUCTURAL_RULES, **DEVICE_RULES}


def _err(rule: str, message: str, witness: Mapping[str, object]) -> Diagnostic:
    paper = RULES.get(rule, ("", ""))[0]
    return Diagnostic(rule, Severity.ERROR, message, dict(witness), paper)


def structural_diagnostics(raw: Mapping) -> List[Diagnostic]:
    """Every Section-III rule a raw mapping breaks, each with its witness.

    The order is the order ``KernelParams.from_dict`` raises them in, so
    the first diagnostic carries the text construction would raise.
    """
    draft = Draft(raw)
    return [_err(rule.id, rule.text(draft), rule.witness(draft))
            for rule in violations(draft)]


def device_diagnostics(spec: DeviceSpec, params: KernelParams) -> List[Diagnostic]:
    """Prove the device budgets and quirks for a *valid* vector.

    The budgets are the violations :func:`repro.perfmodel.model.check_resources`
    raises from, and the quirk is the predicate of ``check_execution_quirks``,
    so a rule fires here exactly when the simulated build/launch would fail.
    """
    out = [_err(rule, message, witness)
           for rule, message, witness in device_fit(spec, params).violations]
    if pl_dgemm_quirk(spec, params):
        out.append(_err("device.quirk-pl-dgemm",
                        f"kernel would fail to execute on {spec.codename} "
                        "(PL double-precision kernels abort on this device)",
                        {"algorithm": "PL", "precision": "d",
                         "device": spec.codename}))
    return out


def prove(
    spec: Optional[DeviceSpec], subject: Union[KernelParams, Mapping]
) -> Tuple[Optional[KernelParams], List[Diagnostic]]:
    """The subject as a ``KernelParams`` and every constraint it breaks.

    A raw mapping is held to the structural rules first; the vector is
    ``None`` when it breaks one.  Device rules follow for a vector when
    ``spec`` is given.
    """
    out: List[Diagnostic] = []
    if isinstance(subject, KernelParams):
        params: Optional[KernelParams] = subject
    else:
        out = structural_diagnostics(subject)
        if out:
            return None, out
        try:
            params = KernelParams.from_dict(subject)
        except (ParameterError, TypeError, ValueError, KeyError) as exc:
            # The rules passed the vector but the dataclass disagrees: a
            # prover bug worth surfacing loudly.
            out.append(_err("param.fields",
                            f"vector rejected by KernelParams despite passing "
                            f"the structural rules: {exc}",
                            {"error": str(exc)}))
            return None, out
    if spec is not None:
        out.extend(device_diagnostics(spec, params))
    return params, out


def prove_constraints(
    spec: Optional[DeviceSpec], subject: Union[KernelParams, Mapping]
) -> List[Diagnostic]:
    """Structural rules for a raw mapping, then device rules (see :func:`prove`)."""
    return prove(spec, subject)[1]


def failure_class(diagnostics: Sequence[Diagnostic]) -> Optional[str]:
    """The failure category :func:`measure_once` would record.

    ``"generation"`` for structural violations, ``"build"`` for resource
    budgets, ``"launch"`` for execution quirks, ``None`` for a clean
    vector — matching the error the dynamic path raises first.
    """
    rules = {d.rule for d in diagnostics if d.severity is Severity.ERROR}
    if any(r.startswith("param.") for r in rules):
        return "generation"
    if rules & {"device.workgroup-size", "device.local-memory",
                "device.private-memory", "device.occupancy"}:
        return "build"
    if "device.quirk-pl-dgemm" in rules:
        return "launch"
    return None
