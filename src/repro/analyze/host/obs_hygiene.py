"""Observability hygiene rules: spans cannot leak, counters never go down.

``host.obs.span-leak``
    A span opened without a ``with`` block has no guaranteed close on
    error paths — the trace tree then records it as abandoned and every
    descendant span re-parents wrongly.  ``.span(...)`` / ``.trace(...)``
    calls on an observability object must therefore be the context
    expression of a ``with`` statement.  Delegating wrappers (a method
    itself named ``span``/``trace`` returning the inner call, as the
    :class:`repro.obs.Observability` facade does) are allowed.

``host.obs.counter-dec``
    Prometheus-model counters are monotone by contract (``Counter.inc``
    rejects a negative amount at run time); statically we flag the
    obvious violations: ``.dec(...)`` on a receiver that is visibly a
    counter, and ``.inc(...)`` with a negative literal.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Set

from repro.analyze.host.engine import Finding, HostRule
from repro.analyze.host.model import LintSource

__all__ = ["SpanLeakRule", "CounterDecrementRule"]

#: Receivers that look like observability handles: `obs`, `self.obs`,
#: `tracer`, `self.tracer`, ... — keeps `.trace(...)` on unrelated
#: objects (e.g. a matrix) out of scope.
_OBS_RECEIVER_RE = re.compile(r"(^|\.)(obs|tracer|tracing|observability)$")

_COUNTER_RECEIVER_RE = re.compile(r"counter", re.IGNORECASE)


class SpanLeakRule(HostRule):
    rule_id = "host.obs.span-leak"
    description = (
        "spans must be opened via `with obs.span(...)` so error paths "
        "cannot leak them"
    )

    def check(self, src: LintSource) -> Iterable[Finding]:
        allowed: Set[int] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        allowed.add(id(item.context_expr))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("span", "trace"):
                    # A delegating wrapper: `def span(...): return
                    # self.tracer.span(...)` hands the context manager on.
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Return) and isinstance(
                            sub.value, ast.Call
                        ):
                            allowed.add(id(sub.value))
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("span", "trace"):
                continue
            receiver = src.segment(func.value)
            if not _OBS_RECEIVER_RE.search(receiver):
                continue
            if id(node) in allowed:
                continue
            yield Finding(
                rule=self.rule_id,
                relpath=src.relpath,
                line=node.lineno,
                message=(
                    f"span opened outside a `with` block "
                    f"({receiver}.{func.attr}(...)); an exception on this "
                    "path leaks the span and corrupts the trace tree"
                ),
                witness={"receiver": receiver, "method": func.attr},
            )


class CounterDecrementRule(HostRule):
    rule_id = "host.obs.counter-dec"
    description = "counters are monotone: no .dec() and no negative .inc()"

    def check(self, src: LintSource) -> Iterable[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in (
                    "dec", "inc"):
                continue
            receiver = src.segment(func.value)
            if func.attr == "dec" and _COUNTER_RECEIVER_RE.search(receiver):
                yield Finding(
                    rule=self.rule_id,
                    relpath=src.relpath,
                    line=node.lineno,
                    message=(
                        f"decrement of counter-like receiver {receiver!r}; "
                        "counters are monotone — model ups-and-downs with a "
                        "gauge"
                    ),
                    witness={"receiver": receiver, "method": "dec"},
                )
            elif func.attr == "inc" and node.args:
                amount = node.args[0]
                if self._negative_literal(amount):
                    yield Finding(
                        rule=self.rule_id,
                        relpath=src.relpath,
                        line=node.lineno,
                        message=(
                            f".{func.attr}() with a negative literal moves "
                            "a monotone series backwards"
                        ),
                        witness={"receiver": receiver, "method": func.attr},
                    )

    @staticmethod
    def _negative_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return isinstance(node.operand, ast.Constant) and isinstance(
                node.operand.value, (int, float)
            )
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        ) and node.value < 0
