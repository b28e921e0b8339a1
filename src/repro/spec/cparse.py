"""OpenCL C front end for the executable mini-spec.

This module turns the *text* of a generated kernel into an AST — it is
the independent half of the differential-testing loop.  The simulator
(:mod:`repro.clsim`) never reads the kernel body: its "compiler" parses
the metadata header and rebuilds an execution plan from the parameter
vector.  The spec interpreter instead parses and executes the emitted
OpenCL C itself, so an emitter bug (wrong index expression, misplaced
barrier, wrong loop base) produces observably different behaviour even
when the plan-driven simulator is right.

The supported language is the subset the emitter produces plus what the
hand-written conformance kernels in ``tests/spec`` need:

* preprocessor: object- and function-like ``#define`` (token-based
  expansion with rescanning), ``#pragma unroll`` (ignored) and
  ``#pragma OPENCL EXTENSION cl_khr_fp64 : enable`` (recorded);
* declarations: ``__local``/private arrays, ``const``/plain scalar
  variables, ``__constant sampler_t``, kernel signatures with
  ``__global``/``__read_only image2d_t`` arguments and an optional
  ``reqd_work_group_size`` attribute;
* statements: ``for`` (``++i`` / ``i += s`` forms), ``if``/``else``,
  ``continue``, ``barrier(...)``, assignment and expression statements;
* expressions: integer/float arithmetic, comparisons, ``&&``/``||``,
  the ternary operator, array subscripts, vector constructor casts
  (``(float4)(a, b, c, d)``), scalar casts, component access
  (``.x``/``.xy``/``.s0``..), address-of for ``vload``/``vstore``
  operands, and calls to the built-ins the machine implements.

Anything outside the subset raises :class:`SpecParseError` with the
offending line — the spec refuses rather than guesses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "SpecParseError",
    "Token",
    "preprocess",
    "tokenize",
    "parse_kernel_source",
    "TranslationUnit",
    "KernelDef",
    "KernelArg",
    "SamplerDecl",
    # expression nodes
    "Num",
    "Var",
    "Bin",
    "Un",
    "Cond",
    "Call",
    "Index",
    "Member",
    "Construct",
    "AddrOf",
    "Deref",
    # statement nodes
    "DeclArray",
    "DeclVar",
    "Assign",
    "ExprStmt",
    "For",
    "If",
    "Continue",
    "Barrier",
    "Block",
]


class SpecParseError(ReproError):
    """The source is outside the executable-spec language subset."""

    @property
    def line(self) -> Optional[int]:
        """The offending source line, when the message names one."""
        m = re.match(r"line (\d+):", str(self))
        return int(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_PUNCTS = (
    "||", "&&", "==", "!=", "<=", ">=", "++", "+=", "-=", "*=",
    "(", ")", "[", "]", "{", "}", ",", ";", ".", "?", ":", "|", "&",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "^",
)
_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fF]?)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<punct>%s)
  | (?P<ws>\s+)
  | (?P<bad>.)
    """ % "|".join(re.escape(p) for p in _PUNCTS),
    re.VERBOSE,
)

#: token kinds: "num", "id", "punct"
@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int

    def __repr__(self) -> str:  # compact for error messages
        return f"{self.text!r}@{self.line}"


def _strip_comments(source: str) -> str:
    """Remove ``/* */`` and ``//`` comments, preserving line numbers."""
    source = re.sub(
        r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group()), source, flags=re.S
    )
    return re.sub(r"//[^\n]*", "", source)


@dataclass
class _Macro:
    name: str
    params: Optional[Tuple[str, ...]]  # None => object-like
    body: Tuple[Token, ...]


@dataclass
class Preprocessed:
    tokens: List[Token]
    extensions: Tuple[str, ...]
    macros: Dict[str, _Macro]


def tokenize(text: str, first_line: int = 1) -> List[Token]:
    out: List[Token] = []
    line = first_line
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            continue
        if m.lastgroup == "bad":
            raise SpecParseError(f"line {line}: unexpected character {m.group()!r}")
        out.append(Token(m.lastgroup, m.group(), line))
    return out


def preprocess(source: str) -> Preprocessed:
    """Comment stripping, directive handling and macro expansion."""
    text = _strip_comments(source)
    macros: Dict[str, _Macro] = {}
    extensions: List[str] = []
    body_lines: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("#"):
            body_lines.append(line)
            continue
        body_lines.append("")  # keep line numbers stable
        directive = stripped[1:].strip()
        if directive.startswith("define"):
            rest = directive[len("define"):].lstrip()
            m = re.match(r"([A-Za-z_]\w*)(\()?", rest)
            if not m:
                raise SpecParseError(f"line {lineno}: malformed #define: {stripped}")
            name = m.group(1)
            if m.group(2):  # function-like: '(' adjacent to the name
                after = rest[m.end(1):]
                close = after.index(")")
                params = tuple(
                    p.strip() for p in after[1:close].split(",") if p.strip()
                )
                body = after[close + 1:]
            else:
                params = None
                body = rest[m.end(1):]
            macros[name] = _Macro(name, params, tuple(tokenize(body, lineno)))
        elif directive.startswith("pragma"):
            pm = re.match(
                r"pragma\s+OPENCL\s+EXTENSION\s+(\w+)\s*:\s*enable", directive
            )
            if pm:
                extensions.append(pm.group(1))
            # all other pragmas (e.g. "#pragma unroll") are hints; ignored
        else:
            raise SpecParseError(
                f"line {lineno}: unsupported preprocessor directive: {stripped}"
            )
    tokens = tokenize("\n".join(body_lines))
    tokens = _expand(tokens, macros, frozenset())
    return Preprocessed(tokens=tokens, extensions=tuple(extensions), macros=macros)


def _expand(tokens: Sequence[Token], macros: Dict[str, _Macro],
            active: frozenset) -> List[Token]:
    """Token-level macro expansion with rescanning."""
    out: List[Token] = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        macro = macros.get(tok.text) if tok.kind == "id" else None
        if macro is None or tok.text in active:
            out.append(tok)
            i += 1
            continue
        if macro.params is None:
            out.extend(
                _expand(
                    [Token(t.kind, t.text, tok.line) for t in macro.body],
                    macros, active | {macro.name},
                )
            )
            i += 1
            continue
        # function-like: require '(' — otherwise it is a plain identifier
        if i + 1 >= n or tokens[i + 1].text != "(":
            out.append(tok)
            i += 1
            continue
        args, nxt = _collect_args(tokens, i + 1, tok)
        if len(args) != len(macro.params):
            raise SpecParseError(
                f"line {tok.line}: macro {macro.name} expects "
                f"{len(macro.params)} argument(s), got {len(args)}"
            )
        # Arguments expand with the *outer* active set (C11 6.10.3.1):
        # TWICE(TWICE(1)) fully expands; only the replacement-list rescan
        # below paints the macro's own name blue.
        expanded_args = [_expand(a, macros, active) for a in args]
        substituted: List[Token] = []
        param_index = {p: j for j, p in enumerate(macro.params)}
        for t in macro.body:
            j = param_index.get(t.text) if t.kind == "id" else None
            if j is None:
                substituted.append(Token(t.kind, t.text, tok.line))
            else:
                substituted.extend(expanded_args[j])
        out.extend(_expand(substituted, macros, active | {macro.name}))
        i = nxt
    return out


def _collect_args(tokens: Sequence[Token], open_idx: int,
                  where: Token) -> Tuple[List[List[Token]], int]:
    """Arguments of a macro call; returns (args, index after ')')."""
    assert tokens[open_idx].text == "("
    depth = 0
    args: List[List[Token]] = [[]]
    i = open_idx
    while i < len(tokens):
        t = tokens[i]
        if t.text == "(":
            depth += 1
            if depth > 1:
                args[-1].append(t)
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                return args, i + 1
            args[-1].append(t)
        elif t.text == "," and depth == 1:
            args.append([])
        elif depth >= 1:
            args[-1].append(t)
        i += 1
    raise SpecParseError(f"line {where.line}: unterminated macro call {where.text}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: object  # int or float
    is_float: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Un:
    op: str
    operand: object


@dataclass(frozen=True)
class Cond:
    cond: object
    then: object
    other: object


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple[object, ...]
    line: int = 0


@dataclass(frozen=True)
class Index:
    base: str
    index: object
    text: str = field(default="", compare=False)  # the subscript's tokens


@dataclass(frozen=True)
class Member:
    base: object
    name: str


@dataclass(frozen=True)
class Construct:
    """Cast / constructor: ``(double2)(a, b)``, ``(size_t)x``, ``(void)x``."""

    ctype: str
    args: Tuple[object, ...]


@dataclass(frozen=True)
class AddrOf:
    target: Index


@dataclass(frozen=True)
class Deref:
    pointer: object


@dataclass(frozen=True)
class DeclArray:
    space: str  # "local" | "private"
    ctype: str
    name: str
    size: object
    line: int = 0


@dataclass(frozen=True)
class DeclVar:
    ctype: str
    name: str
    init: object
    const: bool
    line: int = 0


@dataclass(frozen=True)
class Assign:
    target: object  # Var | Index | Deref
    value: object
    line: int = 0


@dataclass(frozen=True)
class ExprStmt:
    expr: object
    line: int = 0


@dataclass(frozen=True)
class For:
    var: str
    init: object
    cond: object
    step: object  # expression for the increment amount
    body: "Block"
    line: int = 0


@dataclass(frozen=True)
class If:
    cond: object
    then: "Block"
    other: Optional["Block"]
    line: int = 0


@dataclass(frozen=True)
class Continue:
    line: int = 0


@dataclass(frozen=True)
class Barrier:
    flags: object
    site: int
    line: int = 0


@dataclass(frozen=True)
class Block:
    stmts: Tuple[object, ...]


@dataclass(frozen=True)
class KernelArg:
    name: str
    kind: str  # "int" | "float" | "double" | "global" | "image"
    elem: str = ""  # element type for "global" pointers
    readonly: bool = False


@dataclass(frozen=True)
class SamplerDecl:
    name: str
    expr: object


@dataclass(frozen=True)
class KernelDef:
    name: str
    args: Tuple[KernelArg, ...]
    body: Block
    reqd_size: Optional[Tuple[int, int, int]]
    barrier_sites: int
    line: int = 0


@dataclass
class TranslationUnit:
    kernels: Dict[str, KernelDef]
    samplers: Tuple[SamplerDecl, ...]
    extensions: Tuple[str, ...]
    macros: Dict[str, _Macro] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SCALAR_TYPES = {"int", "uint", "size_t", "float", "double", "void", "char",
                 "long", "ulong", "short", "ushort"}
_VEC_RE = re.compile(r"^(float|double|int|uint)(2|4|8|16)$")


def _is_type_name(text: str) -> bool:
    return text in _SCALAR_TYPES or bool(_VEC_RE.match(text))


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.toks = tokens
        self.pos = 0
        self.barrier_sites = 0

    # -- token helpers --------------------------------------------------
    def peek(self, offset: int = 0) -> Optional[Token]:
        i = self.pos + offset
        return self.toks[i] if i < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise SpecParseError("unexpected end of source")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise SpecParseError(
                f"line {tok.line}: expected {text!r}, found {tok.text!r}"
            )
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    # -- top level ------------------------------------------------------
    def parse_unit(self, extensions: Tuple[str, ...]) -> TranslationUnit:
        kernels: Dict[str, KernelDef] = {}
        samplers: List[SamplerDecl] = []
        while self.peek() is not None:
            tok = self.peek()
            if tok.text == "__constant":
                samplers.append(self.parse_sampler())
            elif tok.text == "__kernel":
                k = self.parse_kernel()
                kernels[k.name] = k
            else:
                raise SpecParseError(
                    f"line {tok.line}: unexpected top-level token {tok.text!r}"
                )
        if not kernels:
            raise SpecParseError("source contains no __kernel function")
        return TranslationUnit(
            kernels=kernels, samplers=tuple(samplers), extensions=extensions
        )

    def parse_sampler(self) -> SamplerDecl:
        self.expect("__constant")
        self.expect("sampler_t")
        name = self.next()
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return SamplerDecl(name=name.text, expr=expr)

    def _skip_attribute(self) -> Optional[Tuple[int, int, int]]:
        """``__attribute__((reqd_work_group_size(a, b, c)))`` (optional)."""
        if not self.accept("__attribute__"):
            return None
        self.expect("(")
        self.expect("(")
        reqd: Optional[Tuple[int, int, int]] = None
        if self.peek().text == "reqd_work_group_size":
            self.next()
            self.expect("(")
            dims = []
            for i in range(3):
                tok = self.next()
                if tok.kind != "num":
                    raise SpecParseError(
                        f"line {tok.line}: reqd_work_group_size wants integer "
                        f"literals, found {tok.text!r}"
                    )
                dims.append(int(tok.text))
                if i < 2:
                    self.expect(",")
            self.expect(")")
            reqd = tuple(dims)  # type: ignore[assignment]
        else:  # skip any other attribute body
            depth = 0
            while True:
                tok = self.next()
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    if depth == 0:
                        self.pos -= 1
                        break
                    depth -= 1
        self.expect(")")
        self.expect(")")
        return reqd

    def parse_kernel(self) -> KernelDef:
        start = self.expect("__kernel")
        reqd = self._skip_attribute()
        self.expect("void")
        name = self.next()
        self.expect("(")
        args: List[KernelArg] = []
        if not self.accept(")"):
            while True:
                args.append(self.parse_kernel_arg())
                if self.accept(")"):
                    break
                self.expect(",")
        body = self.parse_block()
        return KernelDef(
            name=name.text,
            args=tuple(args),
            body=body,
            reqd_size=reqd,
            barrier_sites=self.barrier_sites,
            line=start.line,
        )

    def parse_kernel_arg(self) -> KernelArg:
        quals: List[str] = []
        while self.peek().text in (
            "const", "__global", "__local", "__read_only", "__write_only",
            "restrict", "volatile",
        ):
            quals.append(self.next().text)
        type_tok = self.next()
        tname = type_tok.text
        if tname == "image2d_t":
            arg = self.next()
            return KernelArg(
                name=arg.text, kind="image",
                readonly="__write_only" not in quals,
            )
        if not (_is_type_name(tname)):
            raise SpecParseError(
                f"line {type_tok.line}: unsupported argument type {tname!r}"
            )
        is_ptr = False
        while self.peek().text in ("*", "restrict", "const"):
            if self.next().text == "*":
                is_ptr = True
        arg = self.next()
        if is_ptr:
            if "__global" not in quals:
                raise SpecParseError(
                    f"line {arg.line}: only __global pointer arguments are "
                    f"supported, got {' '.join(quals)}"
                )
            return KernelArg(
                name=arg.text, kind="global", elem=tname,
                readonly="const" in quals,
            )
        return KernelArg(name=arg.text, kind=tname)

    # -- statements -----------------------------------------------------
    def parse_block(self) -> Block:
        self.expect("{")
        stmts: List[object] = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return Block(stmts=tuple(stmts))

    def parse_stmt(self) -> object:
        tok = self.peek()
        if tok is None:
            raise SpecParseError("unexpected end of source in a block")
        if tok.text == "{":
            return self.parse_block()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "continue":
            self.next()
            self.expect(";")
            return Continue(line=tok.line)
        if tok.text == "barrier":
            self.next()
            self.expect("(")
            flags = self.parse_expr()
            self.expect(")")
            self.expect(";")
            site = self.barrier_sites
            self.barrier_sites += 1
            return Barrier(flags=flags, site=site, line=tok.line)
        if tok.text in ("__local", "__private"):
            return self.parse_decl(space="local" if tok.text == "__local" else "private",
                                   skip_first=True)
        if tok.text == "const" or _is_type_name(tok.text):
            nxt = self.peek(1)
            # "(void)expr;" and "(double)(0)" start with '(' — handled in
            # expressions; a leading type name here means a declaration.
            if tok.text == "const" or (nxt is not None and nxt.kind == "id"):
                return self.parse_decl(space="private", skip_first=False)
        # assignment or expression statement
        expr = self.parse_expr()
        if self.accept("="):
            if not isinstance(expr, (Var, Index, Deref)):
                raise SpecParseError(
                    f"line {tok.line}: cannot assign to this expression"
                )
            value = self.parse_expr()
            self.expect(";")
            return Assign(target=expr, value=value, line=tok.line)
        self.expect(";")
        return ExprStmt(expr=expr, line=tok.line)

    def parse_decl(self, space: str, skip_first: bool) -> object:
        start = self.peek()
        if skip_first:
            self.next()  # __local / __private
        const = False
        while self.peek().text in ("const", "volatile"):
            const = const or self.next().text == "const"
        type_tok = self.next()
        if not _is_type_name(type_tok.text) and type_tok.text != "sampler_t":
            raise SpecParseError(
                f"line {type_tok.line}: expected a type name, found "
                f"{type_tok.text!r}"
            )
        name = self.next()
        if self.accept("["):
            size = self.parse_expr()
            self.expect("]")
            self.expect(";")
            return DeclArray(
                space=space, ctype=type_tok.text, name=name.text, size=size,
                line=start.line,
            )
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        if init is None:
            init = Num(0, is_float=type_tok.text in ("float", "double"))
        return DeclVar(ctype=type_tok.text, name=name.text, init=init,
                       const=const, line=start.line)

    def parse_for(self) -> For:
        start = self.expect("for")
        self.expect("(")
        self.expect("int")
        var = self.next()
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        tok = self.next()
        if tok.text == "++":
            stepped = self.next()
            step: object = Num(1, is_float=False)
        else:
            stepped = tok
            op = self.next()
            if op.text == "++":
                step = Num(1, is_float=False)
            elif op.text == "+=":
                step = self.parse_expr()
            else:
                raise SpecParseError(
                    f"line {op.line}: unsupported for-step operator {op.text!r}"
                )
        if stepped.text != var.text:
            raise SpecParseError(
                f"line {stepped.line}: for-step must update the loop variable "
                f"{var.text!r}, found {stepped.text!r}"
            )
        self.expect(")")
        body = self._stmt_as_block()
        return For(var=var.text, init=init, cond=cond, step=step, body=body,
                   line=start.line)

    def parse_if(self) -> If:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._stmt_as_block()
        other = None
        if self.accept("else"):
            other = self._stmt_as_block()
        return If(cond=cond, then=then, other=other, line=start.line)

    def _stmt_as_block(self) -> Block:
        if self.peek() is not None and self.peek().text == "{":
            return self.parse_block()
        return Block(stmts=(self.parse_stmt(),))

    # -- expressions (precedence climbing) ------------------------------
    def parse_expr(self) -> object:
        return self.parse_ternary()

    def parse_ternary(self) -> object:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            other = self.parse_ternary()
            return Cond(cond=cond, then=then, other=other)
        return cond

    _LEVELS: Tuple[Tuple[str, ...], ...] = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def parse_binary(self, level: int) -> object:
        if level >= len(self._LEVELS):
            return self.parse_unary()
        ops = self._LEVELS[level]
        left = self.parse_binary(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ops:
                return left
            # '=' must not be eaten as a binary operator ('==' already is)
            self.next()
            right = self.parse_binary(level + 1)
            left = Bin(op=tok.text, left=left, right=right)

    def parse_unary(self) -> object:
        tok = self.peek()
        if tok.text in ("-", "!", "~"):
            self.next()
            return Un(op=tok.text, operand=self.parse_unary())
        if tok.text == "+":
            self.next()
            return self.parse_unary()
        if tok.text == "*":
            self.next()
            return Deref(pointer=self.parse_unary())
        if tok.text == "&":
            self.next()
            inner = self.parse_unary()
            if not isinstance(inner, Index):
                raise SpecParseError(
                    f"line {tok.line}: '&' is only supported on array "
                    f"subscripts (vload/vstore operands)"
                )
            return AddrOf(target=inner)
        return self.parse_postfix()

    def parse_postfix(self) -> object:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok is None:
                return expr
            if tok.text == "[":
                self.next()
                start = self.pos
                idx = self.parse_expr()
                text = " ".join(t.text for t in self.toks[start:self.pos])
                self.expect("]")
                if isinstance(expr, Var):
                    expr = Index(base=expr.name, index=idx, text=text)
                else:
                    raise SpecParseError(
                        f"line {tok.line}: subscripts are only supported on "
                        f"named arrays"
                    )
            elif tok.text == ".":
                self.next()
                member = self.next()
                expr = Member(base=expr, name=member.text)
            else:
                return expr

    def parse_primary(self) -> object:
        tok = self.next()
        if tok.kind == "num":
            text = tok.text
            is_float = (
                "." in text or "e" in text or "E" in text
                or text.endswith(("f", "F"))
            )
            clean = text.rstrip("fF")
            return Num(float(clean) if is_float else int(clean), is_float=is_float)
        if tok.kind == "id":
            if self.peek() is not None and self.peek().text == "(":
                self.next()
                args: List[object] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.accept(")"):
                            break
                        self.expect(",")
                return Call(name=tok.text, args=tuple(args), line=tok.line)
            return Var(name=tok.text)
        if tok.text == "(":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "id" and _is_type_name(nxt.text) \
                    and self.peek(1) is not None and self.peek(1).text == ")":
                ctype = self.next().text
                self.expect(")")
                # "(T)(a, b, ...)" constructor or "(T)expr" cast
                if self.peek() is not None and self.peek().text == "(":
                    self.next()
                    args = []
                    if not self.accept(")"):
                        while True:
                            args.append(self.parse_expr())
                            if self.accept(")"):
                                break
                            self.expect(",")
                    return Construct(ctype=ctype, args=tuple(args))
                return Construct(ctype=ctype, args=(self.parse_unary(),))
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise SpecParseError(
            f"line {tok.line}: unexpected token {tok.text!r} in expression"
        )


def parse_kernel_source(source: str) -> TranslationUnit:
    """Full front end: preprocess, tokenize, expand macros, parse."""
    pp = preprocess(source)
    unit = _Parser(pp.tokens).parse_unit(pp.extensions)
    unit.macros = pp.macros
    return unit
