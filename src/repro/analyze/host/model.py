"""Source model for the host-layer lint.

A :class:`LintSource` is one parsed Python file: its AST, raw lines, the
import alias table (so ``from time import perf_counter as pc`` still
resolves to ``time.perf_counter``), and the ``# repro: allow(rule-id)``
pragma index.  Rules operate on this model only — they never re-read the
file — which is what lets the test-suite lint in-memory fixtures through
the exact production code path.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = [
    "LintSource",
    "parse_source",
    "dotted_parts",
    "canonical_name",
    "attribute_tail",
]

#: Inline suppression: ``# repro: allow(rule-id)`` or
#: ``# repro: allow(rule-a, rule-b) - justification``, honoured on the
#: finding's own line or the line immediately above it.
_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_.\-]+(?:\s*,\s*[A-Za-z0-9_.\-]+)*)\s*\)"
)

#: Line ends as the parser (and ``ast.get_source_segment``) splits them.
_LINE_END_RE = re.compile(rb"\r\n?|\n")


def _pragma_index(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    index: Dict[int, FrozenSet[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = _PRAGMA_RE.search(line)
        if m:
            index[i] = frozenset(p.strip() for p in m.group(1).split(","))
    return index


def _import_table(tree: ast.AST) -> Dict[str, str]:
    """Alias -> canonical dotted name, from every import in the module.

    ``import numpy as np`` maps ``np -> numpy``; ``from concurrent.futures
    import ThreadPoolExecutor`` maps the bare name to
    ``concurrent.futures.ThreadPoolExecutor``.  Relative imports keep
    their module path as written (host rules only match absolute stdlib /
    third-party names, so precision there does not matter).
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


@dataclass
class LintSource:
    """One parsed file under analysis."""

    #: Path as reported in diagnostics — package-relative and
    #: ``/``-separated (e.g. ``repro/tuner/parallel.py``).
    relpath: str
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: ``text`` as UTF-8 (AST column offsets count its bytes) and the
    #: byte offset of each line start, lines split as the parser splits
    #: them.  :meth:`segment` slices these in O(node) instead of
    #: re-splitting the whole file per call like
    #: ``ast.get_source_segment``.
    data: bytes = b""
    line_starts: List[int] = field(default_factory=list)

    def segment(self, node: ast.AST) -> str:
        """Source text of a node ("" when unavailable); the same text
        ``ast.get_source_segment`` returns."""
        try:
            if node.end_lineno is None or node.end_col_offset is None:
                return ""
            start = self.line_starts[node.lineno - 1] + node.col_offset
            end = self.line_starts[node.end_lineno - 1] + node.end_col_offset
            return self.data[start:end].decode()
        except Exception:
            return ""  # cosmetic only: a finding without source text

    def allowed_rules_at(self, line: int) -> FrozenSet[str]:
        """Pragma-allowed rule ids covering ``line`` (own or previous)."""
        allowed = self.pragmas.get(line, frozenset())
        if line > 1:
            allowed = allowed | self.pragmas.get(line - 1, frozenset())
        return allowed

    def line_digest_input(self, line: int) -> str:
        """The stripped physical line a baseline entry fingerprints."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def parse_source(text: str, relpath: str) -> LintSource:
    """Parse one file's text into the lint model (raises SyntaxError)."""
    tree = ast.parse(text)
    lines = text.splitlines()
    data = text.encode()
    return LintSource(
        relpath=relpath.replace("\\", "/"),
        text=text,
        tree=tree,
        lines=lines,
        imports=_import_table(tree),
        pragmas=_pragma_index(lines),
        data=data,
        line_starts=[0] + [m.end() for m in _LINE_END_RE.finditer(data)],
    )


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def canonical_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the import table.

    ``np.random.rand`` with ``import numpy as np`` resolves to
    ``numpy.random.rand``; a bare builtin like ``open`` resolves to
    itself; ``self.anything`` resolves to None (not a module-level name).
    """
    parts = dotted_parts(node)
    if parts is None:
        return None
    root = parts[0]
    if root in imports:
        return ".".join((imports[root],) + parts[1:])
    if len(parts) == 1:
        return root
    return None


def attribute_tail(node: ast.AST) -> Optional[str]:
    """The final attribute name of a call target (``x.y.span`` -> ``span``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
