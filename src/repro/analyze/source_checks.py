"""Cross-checks of the emitted OpenCL C text against the kernel model.

The model-level analyses (:mod:`~repro.analyze.bounds`,
:mod:`~repro.analyze.races`) prove properties of what the emitter is
*supposed* to generate.  This module closes the loop on what it
*actually* generated: it parses the emitted source with the executable
spec's front end (:mod:`repro.spec.cparse`) and verifies

* the metadata header round-trips (``source.meta-mismatch``) and the
  ``#define`` table matches the parameter vector
  (``source.define-mismatch``),
* every ``__local`` declaration has the extent the model expects
  (``source.local-decl``),
* every local/private array subscript stays inside its *declared*
  extent, by bounded evaluation of the actual index expression over the
  access's enclosing loop nest — corner assignments (every variable at
  a range end) plus seeded random samples (``source.local-index``),
* barriers are work-group-uniform — no ``barrier()`` under control flow
  that depends on ``get_local_id``/derived values
  (``barrier.divergent``) — and at least as many barriers exist as the
  schedule requires (``source.barrier-count``),
* the text parses, and every checked subscript is an integer expression
  over loop counters, ``const int`` bindings, the problem size and the
  ``get_local_id``/``get_group_id`` intrinsics (``source.parse``);
  ``/`` and ``%`` truncate toward zero, as in C.

Corner sampling is what makes the check effective: index extremes of
non-negative linear forms are attained at range ends, so a reintroduced
off-by-a-tile bug (e.g. dropping the DB half-buffer rebase) is caught
deterministically, with the offending counter values as the witness.
"""

from __future__ import annotations

import itertools
import operator
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analyze.diagnostics import Diagnostic, Severity
from repro.analyze.sites import KernelModel, build_model
from repro.codegen.emitter import parse_any_meta
from repro.codegen.params import KernelParams
from repro.errors import BuildError

__all__ = ["SOURCE_RULES", "check_source"]

SOURCE_RULES: Dict[str, Tuple[str, str]] = {
    "source.meta-mismatch": (
        "", "the GEMMGEN metadata header matches the parameter vector"),
    "source.define-mismatch": (
        "III", "the emitted #define table matches the derived blocking"),
    "source.local-decl": (
        "III-C", "__local declarations have the model's tile extents"),
    "source.local-index": (
        "III-C", "sampled evaluation keeps every local/private subscript "
                 "inside its declared extent"),
    "source.barrier-count": (
        "III-E", "the body contains the barriers its schedule requires"),
    "barrier.divergent": (
        "III-E", "no barrier is reachable by only a subset of work-items"),
    "source.parse": (
        "", "the text parses and every checked subscript is an integer "
            "expression"),
}

_RANDOM_SEED = 0xA11A
_MAX_CORNER_VARS = 8  # 2^8 corner assignments, then random samples

#: calls whose value differs between work-items of one group
_TAINT_CALLS = ("get_local_id", "get_global_id")
#: work-item intrinsics -> the evaluator's variable prefix (glid0, ggid1, ..)
_INTRINSICS = {"get_local_id": "glid", "get_group_id": "ggid"}
_INT_TYPES = ("int", "uint", "size_t", "long", "ulong")


class _Unevaluable(ValueError):
    """An expression outside the integer subset the evaluator handles."""


def _c_div(a: int, b: int) -> int:
    """C integer division: the quotient truncates toward zero."""
    if b == 0:
        raise _Unevaluable("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _c_div, "%": lambda a, b: a - b * _c_div(a, b),
    "<": operator.lt, ">": operator.gt, "<=": operator.le,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
    "&&": lambda a, b: bool(a and b), "||": lambda a, b: bool(a or b),
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}
_UNARY = {"-": operator.neg, "~": operator.invert, "!": operator.not_}


def _kind(node) -> str:
    return type(node).__name__


def _nodes(node):
    """Pre-order walk over an AST node and everything under it."""
    yield node
    for value in vars(node).values():
        for child in value if isinstance(value, tuple) else (value,):
            if hasattr(child, "__dataclass_fields__"):
                yield from _nodes(child)


def _closure(node) -> Callable[[Dict[str, int]], int]:
    """An integer expression -> a closure evaluating it with C semantics.

    Anything outside the subset (floats, unknown calls, unbound names)
    becomes a lookup that raises when evaluated.
    """
    kind = _kind(node)
    if kind == "Num" and not node.is_float:
        return lambda env, value=node.value: value
    if kind == "Bin" and node.op in _BINARY:
        fn, left, right = _BINARY[node.op], _closure(node.left), _closure(node.right)
        return lambda env: fn(left(env), right(env))
    if kind == "Un" and node.op in _UNARY:
        fn, operand = _UNARY[node.op], _closure(node.operand)
        return lambda env: fn(operand(env))
    if kind == "Cond":
        cond, then, other = map(_closure, (node.cond, node.then, node.other))
        return lambda env: then(env) if cond(env) else other(env)
    if kind == "Construct" and node.ctype in _INT_TYPES and len(node.args) == 1:
        return _closure(node.args[0])
    name = node.name if kind == "Var" else None
    if (kind == "Call" and node.name in _INTRINSICS
            and [_kind(a) for a in node.args] == ["Num"]):
        name = f"{_INTRINSICS[node.name]}{node.args[0].value}"
    what = getattr(node, "name", kind)

    def lookup(env: Dict[str, int]) -> int:
        if name in env:
            return env[name]
        raise _Unevaluable(f"no integer value for {what}")
    return lookup


def _expected_defines(p: KernelParams) -> Dict[str, int]:
    return {
        "MWG": p.mwg, "NWG": p.nwg, "KWG": p.kwg,
        "MDIMC": p.mdimc, "NDIMC": p.ndimc,
        "MWI": p.mwi, "NWI": p.nwi, "KWI": p.kwi,
        "MDIMA": p.effective_mdima, "KDIMA": p.kdima,
        "KDIMB": p.kdimb, "NDIMB": p.effective_ndimb,
        "MWIA": p.mwia, "KWIA": p.kwia, "KWIB": p.kwib, "NWIB": p.nwib,
        "VW": p.vw, "NWIV": p.nwi // p.vw,
    }


def _parse_error(line: Optional[int], message: str, **witness) -> Diagnostic:
    return Diagnostic(
        "source.parse", Severity.ERROR, message,
        witness={"line": line, "error": message, **witness},
        paper=SOURCE_RULES["source.parse"][0])


@dataclass
class _Frame:
    """One scope of the walk: its loop, divergence and ``const int``s."""

    loop: Optional[tuple] = None  # (var, start, stop, step closures)
    divergent: bool = False
    bindings: List[tuple] = field(default_factory=list)  # (name, closure)


def check_source(params: KernelParams, source: str,
                 model: Optional[KernelModel] = None,
                 samples: int = 64) -> List[Diagnostic]:
    """All source-level findings for one emitted kernel."""
    # Imported here: the spec package is not needed by the search gate
    # or Program.build, which import this module through the verifier.
    from repro.spec.cparse import SpecParseError, parse_kernel_source

    p = params
    model = model or build_model(p)
    diags: List[Diagnostic] = []

    # -- metadata header round-trip ------------------------------------
    try:
        meta = parse_any_meta(source)
        if meta.get("params") != p.to_dict():
            diags.append(Diagnostic(
                "source.meta-mismatch", Severity.ERROR,
                "metadata header params differ from the analyzed vector",
                witness={"meta": meta.get("params"), "params": p.to_dict()},
                paper=SOURCE_RULES["source.meta-mismatch"][0]))
    except BuildError as exc:
        diags.append(Diagnostic(
            "source.meta-mismatch", Severity.ERROR, str(exc),
            witness={"error": str(exc)}))

    try:
        unit = parse_kernel_source(source)
    except SpecParseError as exc:
        return diags + [_parse_error(exc.line, str(exc))]

    # -- #define table: object-like macros with an integer body ----------
    defines: Dict[str, int] = {}
    for name, macro in unit.macros.items():
        text = "".join(t.text for t in macro.body)
        if macro.params is None and text.removeprefix("-").isdigit():
            defines[name] = int(text)
    for name, want in _expected_defines(p).items():
        got = defines.get(name)
        if got != want:
            diags.append(Diagnostic(
                "source.define-mismatch", Severity.ERROR,
                f"#define {name} is {got}, parameters derive {want}",
                witness={"define": name, "found": got, "expected": want},
                paper=SOURCE_RULES["source.define-mismatch"][0]))

    # A concrete admissible problem for bounded evaluation (the defines
    # need no binding: the parser has already expanded them).
    sizes = {
        "kSizeM": 2 * p.mwg,
        "kSizeN": 2 * p.nwg,
        "kSizeK": (p.algorithm.min_k_iterations + 1) * p.kwg,
    }
    nodes = [n for k in unit.kernels.values() for n in _nodes(k.body)]
    source_lines = source.splitlines()

    # -- declarations ----------------------------------------------------
    declared: Dict[str, int] = {}
    expected_extents = {**model.local_extents, **model.private_extents}
    decls = [n for n in nodes
             if _kind(n) == "DeclArray" and n.name in expected_extents]
    for decl in decls:
        name = decl.name
        try:
            declared[name] = int(_closure(decl.size)(sizes))
        except _Unevaluable as exc:
            diags.append(_parse_error(
                decl.line, f"line {decl.line}: cannot evaluate the extent "
                f"of {name}: {exc}", buffer=name))
            continue
        if declared[name] != expected_extents[name]:
            diags.append(Diagnostic(
                "source.local-decl", Severity.ERROR,
                f"{source_lines[decl.line - 1].strip()} has extent "
                f"{declared[name]}, model expects {expected_extents[name]}",
                witness={"buffer": name, "declared": declared[name],
                         "expected": expected_extents[name]},
                paper=SOURCE_RULES["source.local-decl"][0]))
    for name in expected_extents:
        if all(d.name != name for d in decls):
            diags.append(Diagnostic(
                "source.local-decl", Severity.ERROR,
                f"expected declaration of {name} not found in source",
                witness={"buffer": name},
                paper=SOURCE_RULES["source.local-decl"][0]))

    # -- barrier count ---------------------------------------------------
    nbar = sum(_kind(n) == "Barrier" for n in nodes)
    if nbar < model.barrier_count:
        diags.append(Diagnostic(
            "source.barrier-count", Severity.ERROR,
            f"source contains {nbar} barrier(s); the "
            f"{p.algorithm.value} schedule requires {model.barrier_count}",
            witness={"found": nbar, "required": model.barrier_count},
            paper=SOURCE_RULES["source.barrier-count"][0]))

    # -- scoped walk: divergent barriers + index sampling ----------------
    rng = random.Random(_RANDOM_SEED)
    extents = {**expected_extents, **declared}
    base_ranges = {
        "glid0": p.mdimc - 1, "glid1": p.ndimc - 1,
        "ggid0": sizes["kSizeM"] // p.mwg - 1,
        "ggid1": sizes["kSizeN"] // p.nwg - 1,
    }
    stack: List[_Frame] = []
    tainted: Set[str] = set()
    flagged: Set[Tuple[str, int]] = set()

    def is_tainted(*exprs) -> bool:
        return any((_kind(n) == "Var" and n.name in tainted)
                   or (_kind(n) == "Call" and n.name in _TAINT_CALLS)
                   for e in exprs for n in _nodes(e))

    def sample_once(corner_bits: Optional[int],
                    var_order: List[str]) -> Optional[Dict[str, int]]:
        """One assignment over the current scope; None if a loop is empty."""

        def pick(var: str, lo: int, hi: int) -> int:
            if hi <= lo:
                return lo
            if corner_bits is None:
                return rng.randint(lo, hi)
            return hi if (corner_bits >> var_order.index(var)) & 1 else lo

        env = dict(sizes)
        for var, hi in base_ranges.items():
            env[var] = pick(var, 0, hi)
        for frame in stack:
            if frame.loop is not None:
                var, start, stop, step = frame.loop
                lo, hi, inc = start(env), stop(env), step(env)
                if lo >= hi or inc <= 0:
                    return None
                values = range(lo, hi, inc)
                if corner_bits is None:
                    env[var] = values[rng.randrange(len(values))]
                else:
                    env[var] = pick(var, values[0], values[-1])
            for name, init in frame.bindings:
                env[name] = init(env)
        return env

    def check_site(site, line: int, pad: int) -> bool:
        """Bounded evaluation of one subscript; True if it is a finding."""
        name, index, index_of = site.base, site.text, _closure(site.index)
        extent = extents[name]
        var_order = list(base_ranges) + [
            f.loop[0] for f in stack if f.loop is not None]
        ncorner = 2 ** min(len(var_order), _MAX_CORNER_VARS)
        trials = itertools.chain(range(ncorner), itertools.repeat(None, samples))
        for corner in trials:
            try:
                env = sample_once(corner, var_order)
                if env is None:
                    continue
                value = int(index_of(env))
            except _Unevaluable as exc:
                diags.append(_parse_error(
                    line, f"line {line}: cannot evaluate {name}[{index}]: "
                    f"{exc}", buffer=name, index=index))
                return True
            if 0 <= value and value + pad < extent:
                continue
            witness = {
                "buffer": name, "line": line, "index": index,
                "value": value, "extent": extent,
                **{v: env[v] for v in var_order if v in env},
            }
            if pad:
                witness["vector_pad"] = pad
            diags.append(Diagnostic(
                "source.local-index", Severity.ERROR,
                f"line {line}: {name}[{index}] evaluates to "
                f"{value}{f' (+{pad} lanes)' if pad else ''}, "
                f"declared extent {extent}",
                witness=witness,
                paper=SOURCE_RULES["source.local-index"][0]))
            return True
        return False

    def check_subscripts(stmt) -> None:
        stmt_nodes = list(_nodes(stmt))
        pads: Dict[int, int] = {}  # id(Index) -> extra vloadN/vstoreN lanes
        for n in stmt_nodes:
            m = _kind(n) == "Call" and re.fullmatch(r"v(?:load|store)(\d+)",
                                                    n.name)
            for arg in n.args if m else ():
                if _kind(arg) == "AddrOf":
                    pads[id(arg.target)] = int(m.group(1)) - 1
        for n in stmt_nodes:
            if (_kind(n) == "Index" and n.base in extents
                    and (n.base, stmt.line) not in flagged
                    and check_site(n, stmt.line, pads.get(id(n), 0))):
                flagged.add((n.base, stmt.line))

    def walk(block, frame: _Frame) -> None:
        stack.append(frame)
        for s in block.stmts:
            kind = _kind(s)
            if kind == "Block":
                walk(s, _Frame())
            elif kind == "For":
                c = s.cond
                bounded = (_kind(c) == "Bin" and c.op == "<"
                           and _kind(c.left) == "Var" and c.left.name == s.var)
                loop = (s.var, *map(_closure, (s.init, c.right, s.step))
                        ) if bounded else None
                walk(s.body, _Frame(loop, is_tainted(s.init, c, s.step)))
            elif kind == "If":
                divergent = is_tainted(s.cond)
                for branch in (s.then, s.other):
                    if branch is not None:
                        walk(branch, _Frame(divergent=divergent))
            elif kind == "Barrier" and any(f.divergent for f in stack):
                diags.append(Diagnostic(
                    "barrier.divergent", Severity.ERROR,
                    f"line {s.line}: barrier under work-item-dependent "
                    "control flow",
                    witness={"line": s.line,
                             "statement": source_lines[s.line - 1].strip()},
                    paper=SOURCE_RULES["barrier.divergent"][0]))
            elif kind in ("Assign", "ExprStmt", "DeclVar"):
                check_subscripts(s)
                if kind == "DeclVar" and is_tainted(s.init):
                    tainted.add(s.name)
                if kind == "DeclVar" and s.const and s.ctype == "int":
                    frame.bindings.append((s.name, _closure(s.init)))
        stack.pop()

    for kernel in unit.kernels.values():
        walk(kernel.body, _Frame())
    return diags
