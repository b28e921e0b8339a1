"""Kernel parameter vector (the code generator's input; paper Section III).

A :class:`KernelParams` instance fully determines one generated
``C <- alpha * A^T B + beta * C`` kernel:

====================  =====================================================
``mwg, nwg, kwg``     work-group blocking factors (Fig. 1)
``mdimc, ndimc``      work-group shape; the work-item blocking factors are
                      derived: ``mwi = mwg/mdimc``, ``nwi = nwg/ndimc``
``kwi``               unroll depth of the innermost loop (a blocking factor:
                      ``kwg % kwi == 0``)
``mdima, ndimb``      reshaped work-item assignment for staging A and B into
                      local memory (Section III-C); the companion dimensions
                      are derived: ``kdima = mdimc*ndimc/mdima``,
                      ``kdimb = mdimc*ndimc/ndimb``
``vw``                vector width of generated vector variables (III-B)
``stride_m/stride_n`` non-unit-stride C ownership per direction (III-B)
``shared_a/shared_b`` stage A / B tiles through local memory (III-C)
``layout_a/layout_b`` packed data layout per operand (III-D; Fig. 3)
``algorithm``         BA, PL or DB (III-E; Figs. 4-6)
``precision``         's' (SGEMM) or 'd' (DGEMM)
``use_images``        read operands through image objects / texture cache
                      (an extension; Section III-F notes the paper's
                      generator does not use images)
====================  =====================================================

Construction validates every rule of the Section-III table in
:mod:`repro.codegen.rules`; invalid combinations raise
:class:`~repro.errors.ParameterError`, which the auto-tuner counts as
"failed in code generation".
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Dict, Mapping, Tuple

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.codegen.rules import (
    CONSTRUCTION,
    DECODING,
    Derived,
    PRECISION_SIZES,
    VALID_VECTOR_WIDTHS,
    raise_first,
)
from repro.errors import ParameterError

__all__ = [
    "KernelParams", "StrideMode", "Draft", "VALID_VECTOR_WIDTHS", "PRECISION_SIZES",
    "FIT_SLOT",
]

#: Instance ``__dict__`` slot where :func:`repro.perfmodel.occupancy.device_fit`
#: keeps ``(spec, fit)`` for the last device the candidate was proved on.
#: It names a device spec object, so pickles leave it out.
FIT_SLOT = "_device_fit"


@dataclass(frozen=True)
class StrideMode:
    """Which C-ownership directions use non-unit (interleaved) stride.

    With unit stride a work-item owns an adjacent ``mwi x nwi`` sub-block
    of the C tile (paper Fig. 2a); with non-unit stride its elements are
    interleaved across the work-group with stride ``mdimc`` (``ndimc``)
    in the M (N) direction (Fig. 2b).  When vector variables are used the
    interleaving granularity is ``vw`` elements.
    """

    m: bool = False
    n: bool = False

    def label(self) -> str:
        parts = [d for d, on in (("M", self.m), ("N", self.n)) if on]
        return ",".join(parts) if parts else "-"

    @classmethod
    def from_label(cls, label: str) -> "StrideMode":
        label = label.strip().upper()
        if label in ("", "-", "NONE"):
            return cls()
        parts = {p.strip() for p in label.split(",")}
        bad = parts - {"M", "N"}
        if bad:
            raise ParameterError(f"unknown stride directions {sorted(bad)}")
        return cls(m="M" in parts, n="N" in parts)


def _once(method):
    """Compute a zero-argument method of a frozen instance on first call.

    The value is kept in the instance ``__dict__``, outside the dataclass
    fields, so equality, hashing and repr ignore it.  ``replace``,
    ``from_dict`` and ``from_json`` build fresh instances; a pickle
    carries the value along with the fields it derives from.
    """
    slot = "_once_" + method.__name__

    @functools.wraps(method)
    def once(self):
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
            return value

    return once


@dataclass(frozen=True)
class KernelParams(Derived):
    """A validated point in the code generator's parameter space.

    Construction walks the Section-III rule table
    (:data:`repro.codegen.rules.CONSTRUCTION`) and raises the first rule
    the vector breaks, formatting a message only for that rule; a
    constructed vector has passed every rule.  The fields are frozen, so
    the values the tuner reads many times per candidate --
    :meth:`cache_key`, :meth:`to_json`,
    :meth:`local_memory_bytes`, :meth:`private_elements` and
    :meth:`private_bytes` -- are each computed at most once per instance.
    """

    precision: str
    mwg: int
    nwg: int
    kwg: int
    mdimc: int
    ndimc: int
    kwi: int = 1
    vw: int = 1
    stride: StrideMode = field(default_factory=StrideMode)
    shared_a: bool = False
    shared_b: bool = False
    mdima: int = 0  # 0 means "same as mdimc" (no reshape)
    ndimb: int = 0  # 0 means "same as ndimc"
    layout_a: Layout = Layout.ROW
    layout_b: Layout = Layout.ROW
    algorithm: Algorithm = Algorithm.BA
    #: Read A and B through image objects (texture cache) instead of
    #: buffers.  An extension beyond the paper's generator ("image
    #: objects ... are not used currently", Section III-F), modelled on
    #: Nakasato's texture-based kernels [18].
    use_images: bool = False
    #: Emit bounds checks so the kernel handles problem sizes that are
    #: not blocking multiples (the alternative to the paper's zero
    #: padding, and what its proposed copy-free small-size kernel
    #: needs).  Guarded kernels read operands in their original row-major
    #: storage.
    guard_edges: bool = False

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        raise_first(CONSTRUCTION, self)
        # The staging reshape parameters only exist for matrices staged
        # through local memory.
        if not self.shared_a:
            object.__setattr__(self, "mdima", 0)
        if not self.shared_b:
            object.__setattr__(self, "ndimb", 0)

    def __getstate__(self) -> Dict[str, object]:
        # The device fit is reused only for the identical spec object,
        # which an unpickled copy never holds.
        state = dict(self.__dict__)
        state.pop(FIT_SLOT, None)
        return state

    # -- derived quantities (paper notation; Mwi, Nwi, KdimA, KdimB: Derived)
    @property
    def mwia(self) -> int:
        """Per-work-item A-staging tile width: ``MwiA = Mwg / MdimA``."""
        return self.mwg // self.effective_mdima

    @property
    def kwia(self) -> int:
        """Per-work-item A-staging tile height: ``KwiA = Kwg / KdimA``."""
        return self.kwg // self.kdima

    @property
    def kwib(self) -> int:
        """Per-work-item B-staging tile height: ``KwiB = Kwg / KdimB``."""
        return self.kwg // self.kdimb

    @property
    def nwib(self) -> int:
        """Per-work-item B-staging tile width: ``NwiB = Nwg / NdimB``."""
        return self.nwg // self.effective_ndimb

    @property
    def element_size(self) -> int:
        return PRECISION_SIZES[self.precision]

    @property
    def lcm(self) -> int:
        """Least common multiple of the work-group blocking factors.

        The tuner measures at problem sizes that are multiples of this
        (paper Section III-F); the GEMM routine zero-pads to it.
        """
        return math.lcm(self.mwg, self.nwg, self.kwg)

    # -- resource footprints --------------------------------------------
    @_once
    def local_memory_bytes(self) -> int:
        """Local-memory footprint of one work-group."""
        copies = self.algorithm.local_buffer_copies
        total = 0
        if self.shared_a:
            total += self.mwg * self.kwg
        if self.shared_b:
            total += self.nwg * self.kwg
        return total * self.element_size * copies

    @_once
    def private_elements(self) -> int:
        """Per-work-item private-memory footprint in matrix elements.

        Counts the C accumulators, the *live* A/B fragments of the inner
        loop (compilers recycle fragment registers across the unrolled
        ``Kwi`` steps, so at most ~2 k-slices are live at once), and —
        for PL — the prefetch staging registers, which must all stay
        live across the whole inner loop.
        """
        acc = self.mwi * self.nwi
        kwi_live = min(self.kwi, 2)
        frags = self.mwi * kwi_live + kwi_live * self.nwi
        staging = 0
        if self.algorithm.uses_private_staging:
            if self.shared_a:
                staging += self.mwia * self.kwia
            if self.shared_b:
                staging += self.kwib * self.nwib
        return acc + frags + staging

    @_once
    def private_bytes(self) -> int:
        """Per-work-item private footprint in bytes (plus address overhead)."""
        scalar_overhead = 16 * 4  # loop counters, base pointers, ids
        return self.private_elements() * self.element_size + scalar_overhead

    def flops_per_workgroup_iteration(self) -> int:
        """FP operations one work-group performs per ``Kwg`` step."""
        return 2 * self.mwg * self.nwg * self.kwg

    # -- (de)serialisation -----------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        d = {name: getattr(self, name) for name in _FIELD_NAMES}
        d["stride"] = self.stride.label()
        d["layout_a"] = self.layout_a.value
        d["layout_b"] = self.layout_b.value
        d["algorithm"] = self.algorithm.value
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "KernelParams":
        draft = Draft(d)
        raise_first(DECODING, draft)
        return cls(**{name: getattr(draft, name) for name in _FIELD_NAMES})

    @_once
    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "KernelParams":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes) -> "KernelParams":
        """Return a validated copy with fields replaced."""
        return replace(self, **changes)

    # -- presentation ------------------------------------------------------
    def shared_label(self) -> str:
        parts = [m for m, on in (("A", self.shared_a), ("B", self.shared_b)) if on]
        return ",".join(parts) if parts else "-"

    def summary(self) -> str:
        """One-line summary in the style of the paper's Table II rows."""
        return (
            f"{self.precision}gemm "
            f"wg={self.mwg},{self.nwg},{self.kwg} "
            f"wi={self.mwi},{self.nwi},{self.kwi} "
            f"dimC={self.mdimc},{self.ndimc} "
            f"dimA={self.effective_mdima},{self.kdima} "
            f"dimB={self.kdimb},{self.effective_ndimb} "
            f"vw={self.vw} stride={self.stride.label()} "
            f"shared={self.shared_label()} "
            f"layout={self.layout_a.value},{self.layout_b.value} "
            f"alg={self.algorithm.value}"
            + (" img" if self.use_images else "")
            + (" guarded" if self.guard_edges else "")
        )

    def table2_cells(self) -> Dict[str, str]:
        """Cells for a Table II style report column."""
        return {
            "Mwg,Nwg,Kwg": f"{self.mwg},{self.nwg},{self.kwg}",
            "Mwi,Nwi,Kwi": f"{self.mwi},{self.nwi},{self.kwi}",
            "MdimC,NdimC": f"{self.mdimc},{self.ndimc}",
            "MdimA,KdimA": f"{self.effective_mdima},{self.kdima}",
            "KdimB,NdimB": f"{self.kdimb},{self.effective_ndimb}",
            "Vector": str(self.vw),
            "Stride": self.stride.label(),
            "Shared": self.shared_label(),
            "Layout": f"{self.layout_a.value},{self.layout_b.value}",
            "Algorithm": self.algorithm.value,
        }

    @_once
    def cache_key(self) -> Tuple:
        """Hashable identity for result databases."""
        return (
            self.precision, self.mwg, self.nwg, self.kwg, self.mdimc,
            self.ndimc, self.kwi, self.vw, self.stride.m, self.stride.n,
            self.shared_a, self.shared_b, self.mdima, self.ndimb,
            self.layout_a.value, self.layout_b.value, self.algorithm.value,
            self.use_images, self.guard_edges,
        )


#: Field names in declaration order: the keys of :meth:`KernelParams.to_dict`
#: (a direct build; ``dataclasses.asdict`` deep-copies every field).
_FIELD_NAMES = tuple(f.name for f in fields(KernelParams))


#: Each field's default; ``None`` where the field has none.
_DEFAULTS: Dict[str, object] = {
    f.name: None if f.default is MISSING else f.default for f in fields(KernelParams)
}
#: Fields a mapping spells as labels: decoder and default label.
_LABELS = {
    "stride": (lambda label: StrideMode.from_label(str(label)), "-"),
    "layout_a": (Layout, "ROW"),
    "layout_b": (Layout, "ROW"),
    "algorithm": (Algorithm, "BA"),
}


class Draft(Derived):
    """A raw mapping read the way :meth:`KernelParams.from_dict` reads it.

    Every field is an attribute: the mapping's value, else the field's
    default (``None`` where there is none).  Labels are decoded; a label
    that does not decode is kept in ``undecoded`` as ``(label, message)``
    and its field reads the default, so the rules after it still apply.
    ``unknown`` lists the keys that name no field.
    """

    def __init__(self, raw: Mapping[str, object]) -> None:
        raw = dict(raw)
        self.__dict__.update(_DEFAULTS)
        self.__dict__.update((k, v) for k, v in raw.items() if k in _DEFAULTS)
        self.unknown = [k for k in raw if k not in _DEFAULTS]
        self.undecoded: Dict[str, Tuple[object, str]] = {}
        for name, (decode, default) in _LABELS.items():
            label = raw.get(name, default)
            try:
                value = decode(label)
            except ValueError as exc:
                self.undecoded[name] = (label, str(exc))
                value = decode(default)
            setattr(self, name, value)
