"""The Section-III rule table: each structural rule of the generator, once.

Each :class:`Rule` holds the rule id, the paper section, the one-line
description the analyzer's catalog shows, a predicate that holds when a
vector breaks the rule, and the text and witness of the violation, built
only when the predicate holds.  ``KernelParams`` construction raises the
first :data:`CONSTRUCTION` rule a vector breaks; ``KernelParams.from_dict``
raises the :data:`DECODING` rules first (keys that name no field, labels
that name no stride, layout or algorithm); and the constraint prover
reports every rule a raw mapping breaks (:func:`violations`), in the
order the other two raise them.  The table lists the rules in the order
of the analyzer's catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Tuple

from repro.codegen.algorithms import Algorithm
from repro.codegen.layouts import Layout
from repro.errors import ParameterError

__all__ = [
    "Rule", "Derived", "SECTION_III", "DECODING", "CONSTRUCTION",
    "BLOCKING_DIVISIBILITY", "VECTOR_ALIGNMENT", "STAGING_A", "STAGING_B",
    "VALID_VECTOR_WIDTHS", "PRECISION_SIZES", "raise_first", "violations",
]

VALID_VECTOR_WIDTHS = (1, 2, 4, 8)
PRECISION_SIZES: Dict[str, int] = {"s": 4, "d": 8}

#: Integer fields: an ``int`` that is not a ``bool`` (``64.0`` would
#: compare equal to ``64`` yet serialise, and so key caches, differently).
_INTEGERS = ("mwg", "nwg", "kwg", "mdimc", "ndimc", "kwi", "vw", "mdima", "ndimb")
_FLAGS = ("shared_a", "shared_b", "use_images", "guard_edges")
_BLOCKING = ("mwg", "nwg", "kwg", "mdimc", "ndimc", "kwi")


class Derived:
    """The derived factors of Section III, read from a vector's fields."""

    @property
    def mwi(self) -> int:
        """Work-item blocking factor in M: ``Mwi = Mwg / MdimC``."""
        return self.mwg // self.mdimc

    @property
    def nwi(self) -> int:
        """Work-item blocking factor in N: ``Nwi = Nwg / NdimC``."""
        return self.nwg // self.ndimc

    @property
    def workgroup_size(self) -> int:
        return self.mdimc * self.ndimc

    @property
    def effective_mdima(self) -> int:
        """Staging grid width for A (``MdimA``); defaults to ``MdimC``."""
        return self.mdima if self.mdima else self.mdimc

    @property
    def effective_ndimb(self) -> int:
        """Staging grid width for B (``NdimB``); defaults to ``NdimC``."""
        return self.ndimb if self.ndimb else self.ndimc

    @property
    def kdima(self) -> int:
        """``KdimA = (MdimC * NdimC) / MdimA`` (Section III-C)."""
        return self.workgroup_size // self.effective_mdima

    @property
    def kdimb(self) -> int:
        """``KdimB = (MdimC * NdimC) / NdimB`` (Section III-C)."""
        return self.workgroup_size // self.effective_ndimb


@dataclass(frozen=True)
class Rule:
    """One structural rule over a vector's fields and derived factors."""

    id: str
    section: str
    description: str
    #: Truthy when the vector breaks the rule.
    broken: Callable[[Any], object]
    text: Callable[[Any], str]
    witness: Callable[[Any], Dict[str, object]]
    #: Reads a raw mapping's keys and labels, before any field is checked.
    decoding: bool = False
    #: Later rules read these fields as numbers: a walk that reports every
    #: violation stops after this rule's entries once one of them fails.
    fatal: bool = False


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _row_layouts(v) -> bool:
    return v.layout_a is Layout.ROW and v.layout_b is Layout.ROW


def _db_halves(v) -> bool:
    return v.algorithm is Algorithm.DB and v.kwg % 2 == 0


def _remainder(**terms: int) -> Dict[str, int]:
    value, divisor = terms.values()
    return {**terms, "remainder": value % divisor}


_FIELDS = ("param.fields", "III", "every field is present with a usable type")


def _typed(name: str, kind: str, ok: Callable[[object], bool]) -> Rule:
    return Rule(*_FIELDS,
                lambda v: not ok(getattr(v, name)),
                lambda v: f"field {name!r} must be {kind}",
                lambda v: {"field": name, "value": repr(getattr(v, name))},
                fatal=True)


def _at_least_one(name: str) -> Rule:
    return Rule("param.positive", "III", "all blocking factors are >= 1",
                lambda v: getattr(v, name) < 1,
                lambda v: f"{name} must be >= 1",
                lambda v: {name: getattr(v, name)},
                fatal=True)


def _label(rule_id: str, section: str, description: str, name: str) -> Rule:
    """A label that decodes; the text is the decoder's own message."""
    return Rule(rule_id, section, description,
                lambda d: name in d.undecoded,
                lambda d: d.undecoded[name][1],
                lambda d: {name: repr(d.undecoded[name][0])},
                decoding=True)


SECTION_III: Tuple[Rule, ...] = (
    Rule(*_FIELDS,
         lambda d: d.unknown,
         lambda d: "unknown fields " + ", ".join(map(repr, d.unknown)),
         lambda d: {"fields": ", ".join(map(repr, d.unknown))},
         decoding=True),
    Rule("param.precision", "III", "precision is 's' or 'd'",
         lambda v: v.precision not in ("s", "d"),
         lambda v: f"precision must be 's' or 'd', got {v.precision!r}",
         lambda v: {"precision": repr(v.precision)}),
    *(_typed(name, "an integer", _is_int) for name in _INTEGERS),
    *(_typed(name, "a bool", lambda x: isinstance(x, bool)) for name in _FLAGS),
    *(_at_least_one(name) for name in _BLOCKING),
    Rule("param.vector-width", "III-B", f"vector width is one of {VALID_VECTOR_WIDTHS}",
         lambda v: v.vw not in VALID_VECTOR_WIDTHS,
         lambda v: f"vector width {v.vw} not in {VALID_VECTOR_WIDTHS}",
         lambda v: {"vw": v.vw}),
    _label("param.stride", "III-B", "stride label names only M/N directions", "stride"),
    _label("param.layout", "III-D", "operand layouts are ROW/CBL/RBL", "layout_a"),
    _label("param.layout", "III-D", "operand layouts are ROW/CBL/RBL", "layout_b"),
    _label("param.algorithm", "III-E", "algorithm is BA/PL/DB", "algorithm"),
    Rule("param.mwg-mdimc", "III-B", "Mwg divisible by MdimC (Mwi derivation)",
         lambda v: v.mwg % v.mdimc,
         lambda v: f"mwg={v.mwg} not divisible by mdimc={v.mdimc}",
         lambda v: _remainder(mwg=v.mwg, mdimc=v.mdimc)),
    Rule("param.nwg-ndimc", "III-B", "Nwg divisible by NdimC (Nwi derivation)",
         lambda v: v.nwg % v.ndimc,
         lambda v: f"nwg={v.nwg} not divisible by ndimc={v.ndimc}",
         lambda v: _remainder(nwg=v.nwg, ndimc=v.ndimc)),
    Rule("param.kwg-kwi", "III-E", "Kwg divisible by the unroll depth Kwi",
         lambda v: v.kwg % v.kwi,
         lambda v: f"kwg={v.kwg} not divisible by kwi={v.kwi}",
         lambda v: _remainder(kwg=v.kwg, kwi=v.kwi)),
    Rule("param.mwi-vw", "III-B", "Mwi divisible by the vector width",
         lambda v: v.vw > 1 and v.mwg % v.mdimc == 0 and v.mwi % v.vw,
         lambda v: f"mwi={v.mwi} not divisible by vector width {v.vw}",
         lambda v: _remainder(mwi=v.mwi, vw=v.vw)),
    Rule("param.nwi-vw", "III-B", "Nwi divisible by the vector width",
         lambda v: v.vw > 1 and v.nwg % v.ndimc == 0 and v.nwi % v.vw,
         lambda v: f"nwi={v.nwi} not divisible by vector width {v.vw}",
         lambda v: _remainder(nwi=v.nwi, vw=v.vw)),
    Rule("param.wg-mdima", "III-C", "work-group size divisible by MdimA (KdimA derivation)",
         lambda v: v.shared_a and v.workgroup_size % v.effective_mdima,
         lambda v: f"work-group size {v.workgroup_size} not divisible by "
                   f"mdima={v.effective_mdima}",
         lambda v: _remainder(workgroup_size=v.workgroup_size, mdima=v.effective_mdima)),
    Rule("param.mwg-mdima", "III-C", "Mwg divisible by MdimA (MwiA derivation)",
         lambda v: v.shared_a and v.mwg % v.effective_mdima,
         lambda v: f"mwg={v.mwg} not divisible by mdima={v.effective_mdima}",
         lambda v: _remainder(mwg=v.mwg, mdima=v.effective_mdima)),
    Rule("param.kwg-kdima", "III-C", "Kwg divisible by KdimA (KwiA derivation)",
         lambda v: (v.shared_a and v.workgroup_size % v.effective_mdima == 0
                    and v.kwg % v.kdima),
         lambda v: f"kwg={v.kwg} not divisible by kdima={v.kdima}",
         lambda v: _remainder(kwg=v.kwg, kdima=v.kdima)),
    Rule("param.wg-ndimb", "III-C", "work-group size divisible by NdimB (KdimB derivation)",
         lambda v: v.shared_b and v.workgroup_size % v.effective_ndimb,
         lambda v: f"work-group size {v.workgroup_size} not divisible by "
                   f"ndimb={v.effective_ndimb}",
         lambda v: _remainder(workgroup_size=v.workgroup_size, ndimb=v.effective_ndimb)),
    Rule("param.nwg-ndimb", "III-C", "Nwg divisible by NdimB (NwiB derivation)",
         lambda v: v.shared_b and v.nwg % v.effective_ndimb,
         lambda v: f"nwg={v.nwg} not divisible by ndimb={v.effective_ndimb}",
         lambda v: _remainder(nwg=v.nwg, ndimb=v.effective_ndimb)),
    Rule("param.kwg-kdimb", "III-C", "Kwg divisible by KdimB (KwiB derivation)",
         lambda v: (v.shared_b and v.workgroup_size % v.effective_ndimb == 0
                    and v.kwg % v.kdimb),
         lambda v: f"kwg={v.kwg} not divisible by kdimb={v.kdimb}",
         lambda v: _remainder(kwg=v.kwg, kdimb=v.kdimb)),
    # Image objects are addressed by 2-D texel coordinates, so block-major
    # host layouts are meaningless for them.
    Rule("param.image-layout", "III-F", "image kernels require ROW layouts (2-D texel addressing)",
         lambda v: v.use_images and not _row_layouts(v),
         lambda v: "image-object kernels address operands as 2-D textures; "
                   "layouts must be ROW",
         lambda v: {"layout_a": v.layout_a.value, "layout_b": v.layout_b.value}),
    # Partial tiles cannot be block-major packed: guarded kernels read the
    # operands as the user stored them.
    Rule("param.guard-layout", "", "edge-guarded kernels require ROW layouts (unpacked operands)",
         lambda v: v.guard_edges and not _row_layouts(v),
         lambda v: "edge-guarded kernels read unpacked operands; layouts must be ROW",
         lambda v: {"layout_a": v.layout_a.value, "layout_b": v.layout_b.value}),
    Rule("param.db-shared", "III-E", "DB double-buffers local memory: a matrix must be shared",
         lambda v: v.algorithm is Algorithm.DB and not (v.shared_a or v.shared_b),
         lambda v: "DB algorithm double-buffers local memory; "
                   "at least one matrix must be shared",
         lambda v: {"shared_a": v.shared_a, "shared_b": v.shared_b}),
    Rule("param.db-even-kwg", "III-E", "DB requires an even Kwg (two half-buffers)",
         lambda v: v.algorithm is Algorithm.DB and v.kwg % 2,
         lambda v: "DB requires an even kwg (two half-buffers)",
         lambda v: {"kwg": v.kwg}),
    Rule("param.db-half-kwi", "III-E", "DB half-buffer Kwg/2 divisible by Kwi",
         lambda v: _db_halves(v) and (v.kwg // 2) % v.kwi,
         lambda v: f"DB half-buffer kwg/2={v.kwg // 2} not divisible by kwi={v.kwi}",
         lambda v: _remainder(half=v.kwg // 2, kwi=v.kwi)),
    Rule("param.db-half-kdima", "III-E", "DB half tile of A loadable: Kwg/2 divisible by KdimA",
         lambda v: (_db_halves(v) and v.shared_a
                    and v.workgroup_size % v.effective_mdima == 0
                    and (v.kwg // 2) % v.kdima),
         lambda v: "DB requires each half tile of A to be loadable by the work-group "
                   f"(kwg/2={v.kwg // 2} not divisible by kdima={v.kdima})",
         lambda v: _remainder(half=v.kwg // 2, kdima=v.kdima)),
    Rule("param.db-half-kdimb", "III-E", "DB half tile of B loadable: Kwg/2 divisible by KdimB",
         lambda v: (_db_halves(v) and v.shared_b
                    and v.workgroup_size % v.effective_ndimb == 0
                    and (v.kwg // 2) % v.kdimb),
         lambda v: "DB requires each half tile of B to be loadable by the work-group "
                   f"(kwg/2={v.kwg // 2} not divisible by kdimb={v.kdimb})",
         lambda v: _remainder(half=v.kwg // 2, kdimb=v.kdimb)),
)

DECODING: Tuple[Rule, ...] = tuple(r for r in SECTION_III if r.decoding)
CONSTRUCTION: Tuple[Rule, ...] = tuple(r for r in SECTION_III if not r.decoding)


def _named(*ids: str) -> Tuple[Rule, ...]:
    return tuple(r for r in SECTION_III if r.id in ids)


# Subsets the enumeration tests on the integers before it constructs.
#: The blocking factors divide: ``Mwg/MdimC``, ``Nwg/NdimC``, ``Kwg/Kwi``.
BLOCKING_DIVISIBILITY = _named("param.mwg-mdimc", "param.nwg-ndimc", "param.kwg-kwi")
#: ``Mwi`` and ``Nwi`` divisible by the vector width: the rules most
#: enumerated picks break.
VECTOR_ALIGNMENT = _named("param.mwi-vw", "param.nwi-vw")
#: The staging grid of A (``MdimA``) and of B (``NdimB``) fits the tile.
STAGING_A = _named("param.wg-mdima", "param.mwg-mdima", "param.kwg-kdima")
STAGING_B = _named("param.wg-ndimb", "param.nwg-ndimb", "param.kwg-kdimb")


def raise_first(rules: Tuple[Rule, ...], v) -> None:
    """Raise :class:`ParameterError` with the text of the first rule broken."""
    for rule in rules:
        if rule.broken(v):
            raise ParameterError(rule.text(v))


def violations(draft) -> Iterator[Rule]:
    """Every rule a raw mapping's draft breaks, in the order they raise."""
    halt = None
    for rule in DECODING + CONSTRUCTION:
        if halt is not None and rule.id != halt:
            return
        if rule.broken(draft):
            yield rule
            if rule.fatal:
                halt = rule.id
