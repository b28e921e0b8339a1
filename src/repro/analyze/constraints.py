"""The constraint prover: Section-III structural rules + device budgets.

This module re-states, as individually provable rules with witnesses,
exactly the checks the dynamic pipeline performs:

* the structural constraints :class:`~repro.codegen.params.KernelParams`
  enforces in ``__post_init__`` (a violation there is the paper's
  "failed in code generation"),
* the device resource budgets of
  :func:`repro.perfmodel.occupancy.device_fit` ("failed in
  compilation"), and
* the execution quirks of
  :func:`repro.perfmodel.model.check_execution_quirks` ("failed in
  testing": the Bulldozer PL-DGEMM launch failure of Section IV-A).

Because the prover accepts a **raw mapping** (not just a constructed
``KernelParams``), it can diagnose invalid vectors that the dataclass
would reject with a single exception — reporting *every* violated rule,
each with the concrete values that violate it.

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
from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.params import (
    KernelParams,
    PRECISION_SIZES,
    StrideMode,
    VALID_VECTOR_WIDTHS,
)
from repro.devices.specs import DeviceSpec
from repro.errors import ParameterError
from repro.perfmodel.model import pl_dgemm_quirk
from repro.perfmodel.occupancy import device_fit

__all__ = [
    "RULES",
    "STRUCTURAL_RULES",
    "DEVICE_RULES",
    "prove_constraints",
    "structural_diagnostics",
    "device_diagnostics",
    "failure_class",
    "normalize_raw",
]

#: rule id -> (paper section, one-line description).  The catalog is the
#: source of the rule table in ``docs/static_analysis.md``.
STRUCTURAL_RULES: Dict[str, Tuple[str, str]] = {
    "param.fields": ("III", "every field is present with a usable type"),
    "param.precision": ("III", "precision is 's' or 'd'"),
    "param.positive": ("III", "all blocking factors are >= 1"),
    "param.vector-width": ("III-B", f"vector width is one of {VALID_VECTOR_WIDTHS}"),
    "param.stride": ("III-B", "stride label names only M/N directions"),
    "param.layout": ("III-D", "operand layouts are ROW/CBL/RBL"),
    "param.algorithm": ("III-E", "algorithm is BA/PL/DB"),
    "param.mwg-mdimc": ("III-B", "Mwg divisible by MdimC (Mwi derivation)"),
    "param.nwg-ndimc": ("III-B", "Nwg divisible by NdimC (Nwi derivation)"),
    "param.kwg-kwi": ("III-E", "Kwg divisible by the unroll depth Kwi"),
    "param.mwi-vw": ("III-B", "Mwi divisible by the vector width"),
    "param.nwi-vw": ("III-B", "Nwi divisible by the vector width"),
    "param.wg-mdima": ("III-C", "work-group size divisible by MdimA (KdimA derivation)"),
    "param.mwg-mdima": ("III-C", "Mwg divisible by MdimA (MwiA derivation)"),
    "param.kwg-kdima": ("III-C", "Kwg divisible by KdimA (KwiA derivation)"),
    "param.wg-ndimb": ("III-C", "work-group size divisible by NdimB (KdimB derivation)"),
    "param.nwg-ndimb": ("III-C", "Nwg divisible by NdimB (NwiB derivation)"),
    "param.kwg-kdimb": ("III-C", "Kwg divisible by KdimB (KwiB derivation)"),
    "param.image-layout": ("III-F", "image kernels require ROW layouts (2-D texel addressing)"),
    "param.guard-layout": ("", "edge-guarded kernels require ROW layouts (unpacked operands)"),
    "param.db-shared": ("III-E", "DB double-buffers local memory: a matrix must be shared"),
    "param.db-even-kwg": ("III-E", "DB requires an even Kwg (two half-buffers)"),
    "param.db-half-kwi": ("III-E", "DB half-buffer Kwg/2 divisible by Kwi"),
    "param.db-half-kdima": ("III-E", "DB half tile of A loadable: Kwg/2 divisible by KdimA"),
    "param.db-half-kdimb": ("III-E", "DB half tile of B loadable: Kwg/2 divisible by KdimB"),
}

DEVICE_RULES: Dict[str, Tuple[str, str]] = {
    "device.workgroup-size": ("II", "MdimC*NdimC within the device work-group limit"),
    "device.local-memory": ("III-C", "local tile bytes within the device's local memory"),
    "device.private-memory": ("III-B", "private footprint within twice the register cap"),
    "device.occupancy": ("II", "at least one work-group resident per compute unit"),
    "device.quirk-pl-dgemm": ("IV-A", "PL DGEMM kernels abort on Bulldozer-quirk devices"),
}

RULES: Dict[str, Tuple[str, str]] = {**STRUCTURAL_RULES, **DEVICE_RULES}

#: Raw-dict fields, their types, and dataclass defaults.
_INT_FIELDS = ("mwg", "nwg", "kwg", "mdimc", "ndimc")
_INT_DEFAULTED = {"kwi": 1, "vw": 1, "mdima": 0, "ndimb": 0}
_BOOL_DEFAULTED = {
    "shared_a": False,
    "shared_b": False,
    "use_images": False,
    "guard_edges": False,
}


def _err(rule: str, message: str, witness: Mapping[str, object]) -> Diagnostic:
    paper = RULES.get(rule, ("", ""))[0]
    return Diagnostic(rule, Severity.ERROR, message, dict(witness), paper)


def normalize_raw(subject: Union[KernelParams, Mapping]) -> Dict[str, object]:
    """A plain dict view of the subject (labels, not enum objects)."""
    if isinstance(subject, KernelParams):
        return subject.to_dict()
    return dict(subject)


def structural_diagnostics(subject: Union[KernelParams, Mapping]) -> List[Diagnostic]:
    """Prove (or refute, with witnesses) every Section-III structural rule.

    Mirrors ``KernelParams.__post_init__`` plus the enum/label decoding
    of ``KernelParams.from_dict``, but reports **all** violations instead
    of raising on the first.
    """
    raw = normalize_raw(subject)
    out: List[Diagnostic] = []

    vals: Dict[str, int] = {}
    bad_fields = False
    for name in _INT_FIELDS:
        v = raw.get(name)
        if not isinstance(v, int) or isinstance(v, bool):
            out.append(_err("param.fields", f"field {name!r} must be an integer",
                            {"field": name, "value": repr(v)}))
            bad_fields = True
        else:
            vals[name] = v
    for name, default in _INT_DEFAULTED.items():
        v = raw.get(name, default)
        if not isinstance(v, int) or isinstance(v, bool):
            out.append(_err("param.fields", f"field {name!r} must be an integer",
                            {"field": name, "value": repr(v)}))
            bad_fields = True
        else:
            vals[name] = v
    flags: Dict[str, bool] = {}
    for name, default in _BOOL_DEFAULTED.items():
        flags[name] = bool(raw.get(name, default))
    if bad_fields:
        return out  # nothing further is derivable

    precision = raw.get("precision")
    if precision not in PRECISION_SIZES:
        out.append(_err("param.precision",
                        f"precision must be 's' or 'd', got {precision!r}",
                        {"precision": repr(precision)}))

    try:
        stride = StrideMode.from_label(str(raw.get("stride", "-")))
    except ParameterError as exc:
        out.append(_err("param.stride", str(exc), {"stride": repr(raw.get("stride"))}))
        stride = StrideMode()
    try:
        layout_a = Layout(raw.get("layout_a", "ROW"))
        layout_b = Layout(raw.get("layout_b", "ROW"))
    except ValueError as exc:
        out.append(_err("param.layout", f"unknown layout: {exc}",
                        {"layout_a": repr(raw.get("layout_a")),
                         "layout_b": repr(raw.get("layout_b"))}))
        layout_a = layout_b = Layout.ROW
    try:
        algorithm = Algorithm(raw.get("algorithm", "BA"))
    except ValueError as exc:
        out.append(_err("param.algorithm", f"unknown algorithm: {exc}",
                        {"algorithm": repr(raw.get("algorithm"))}))
        algorithm = Algorithm.BA

    for name in ("mwg", "nwg", "kwg", "mdimc", "ndimc", "kwi"):
        if vals[name] < 1:
            out.append(_err("param.positive", f"{name} must be >= 1",
                            {name: vals[name]}))
    if any(vals[n] < 1 for n in ("mwg", "nwg", "kwg", "mdimc", "ndimc", "kwi")):
        return out  # divisibility rules are meaningless below 1

    mwg, nwg, kwg = vals["mwg"], vals["nwg"], vals["kwg"]
    mdimc, ndimc, kwi, vw = vals["mdimc"], vals["ndimc"], vals["kwi"], vals["vw"]

    if vw not in VALID_VECTOR_WIDTHS:
        out.append(_err("param.vector-width",
                        f"vector width {vw} not in {VALID_VECTOR_WIDTHS}",
                        {"vw": vw}))
        vw = 1  # keep deriving the remaining rules
    if mwg % mdimc:
        out.append(_err("param.mwg-mdimc", f"mwg={mwg} not divisible by mdimc={mdimc}",
                        {"mwg": mwg, "mdimc": mdimc, "remainder": mwg % mdimc}))
    if nwg % ndimc:
        out.append(_err("param.nwg-ndimc", f"nwg={nwg} not divisible by ndimc={ndimc}",
                        {"nwg": nwg, "ndimc": ndimc, "remainder": nwg % ndimc}))
    if kwg % kwi:
        out.append(_err("param.kwg-kwi", f"kwg={kwg} not divisible by kwi={kwi}",
                        {"kwg": kwg, "kwi": kwi, "remainder": kwg % kwi}))

    mwi = mwg // mdimc if mwg % mdimc == 0 else None
    nwi = nwg // ndimc if nwg % ndimc == 0 else None
    if vw > 1 and mwi is not None and mwi % vw:
        out.append(_err("param.mwi-vw", f"mwi={mwi} not divisible by vector width {vw}",
                        {"mwi": mwi, "vw": vw, "remainder": mwi % vw}))
    if vw > 1 and nwi is not None and nwi % vw:
        out.append(_err("param.nwi-vw", f"nwi={nwi} not divisible by vector width {vw}",
                        {"nwi": nwi, "vw": vw, "remainder": nwi % vw}))

    wg = mdimc * ndimc
    kdima = kdimb = None
    if flags["shared_a"]:
        mdima = vals["mdima"] or mdimc
        if wg % mdima:
            out.append(_err("param.wg-mdima",
                            f"work-group size {wg} not divisible by mdima={mdima}",
                            {"workgroup_size": wg, "mdima": mdima,
                             "remainder": wg % mdima}))
        else:
            kdima = wg // mdima
            if kwg % kdima:
                out.append(_err("param.kwg-kdima",
                                f"kwg={kwg} not divisible by kdima={kdima}",
                                {"kwg": kwg, "kdima": kdima,
                                 "remainder": kwg % kdima}))
        if mwg % mdima:
            out.append(_err("param.mwg-mdima",
                            f"mwg={mwg} not divisible by mdima={mdima}",
                            {"mwg": mwg, "mdima": mdima, "remainder": mwg % mdima}))
    if flags["shared_b"]:
        ndimb = vals["ndimb"] or ndimc
        if wg % ndimb:
            out.append(_err("param.wg-ndimb",
                            f"work-group size {wg} not divisible by ndimb={ndimb}",
                            {"workgroup_size": wg, "ndimb": ndimb,
                             "remainder": wg % ndimb}))
        else:
            kdimb = wg // ndimb
            if kwg % kdimb:
                out.append(_err("param.kwg-kdimb",
                                f"kwg={kwg} not divisible by kdimb={kdimb}",
                                {"kwg": kwg, "kdimb": kdimb,
                                 "remainder": kwg % kdimb}))
        if nwg % ndimb:
            out.append(_err("param.nwg-ndimb",
                            f"nwg={nwg} not divisible by ndimb={ndimb}",
                            {"nwg": nwg, "ndimb": ndimb, "remainder": nwg % ndimb}))

    if flags["use_images"] and not (layout_a is Layout.ROW and layout_b is Layout.ROW):
        out.append(_err("param.image-layout",
                        "image-object kernels address operands as 2-D textures; "
                        "layouts must be ROW",
                        {"layout_a": layout_a.value, "layout_b": layout_b.value}))
    if flags["guard_edges"] and not (layout_a is Layout.ROW and layout_b is Layout.ROW):
        out.append(_err("param.guard-layout",
                        "edge-guarded kernels read unpacked operands; "
                        "layouts must be ROW",
                        {"layout_a": layout_a.value, "layout_b": layout_b.value}))

    if algorithm is Algorithm.DB:
        if not (flags["shared_a"] or flags["shared_b"]):
            out.append(_err("param.db-shared",
                            "DB double-buffers local memory; at least one matrix "
                            "must be shared",
                            {"shared_a": flags["shared_a"],
                             "shared_b": flags["shared_b"]}))
        if kwg % 2:
            out.append(_err("param.db-even-kwg",
                            "DB requires an even kwg (two half-buffers)",
                            {"kwg": kwg}))
        else:
            half = kwg // 2
            if half % kwi:
                out.append(_err("param.db-half-kwi",
                                f"DB half-buffer kwg/2={half} not divisible by "
                                f"kwi={kwi}",
                                {"half": half, "kwi": kwi, "remainder": half % kwi}))
            if flags["shared_a"] and kdima is not None and half % kdima:
                out.append(_err("param.db-half-kdima",
                                f"DB half tile of A not loadable: kwg/2={half} "
                                f"not divisible by kdima={kdima}",
                                {"half": half, "kdima": kdima,
                                 "remainder": half % kdima}))
            if flags["shared_b"] and kdimb is not None and half % kdimb:
                out.append(_err("param.db-half-kdimb",
                                f"DB half tile of B not loadable: kwg/2={half} "
                                f"not divisible by kdimb={kdimb}",
                                {"half": half, "kdimb": kdimb,
                                 "remainder": half % kdimb}))
    return out


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


def prove_constraints(
    spec: Optional[DeviceSpec], subject: Union[KernelParams, Mapping]
) -> List[Diagnostic]:
    """Structural rules, then (if structurally valid) device rules."""
    out = structural_diagnostics(subject)
    if spec is None or any(d.severity is Severity.ERROR for d in out):
        return out
    if isinstance(subject, KernelParams):
        params = subject
    else:
        try:
            params = KernelParams.from_dict(dict(subject))
        except (ParameterError, TypeError, ValueError, KeyError) as exc:
            # The prover believed the vector valid but the dataclass
            # disagrees — a prover bug worth surfacing loudly.
            out.append(_err("param.fields",
                            f"vector rejected by KernelParams despite passing "
                            f"the structural rules: {exc}",
                            {"error": str(exc)}))
            return out
    out.extend(device_diagnostics(spec, params))
    return out


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
