"""Anti-drift rule (AD301): one implementation of the transition rules.

PR 5's collapse-provenance bug happened because a second, slightly
different copy of a state transition lived in the batch path and the parity
fuzz only caught it late.  Today each heuristic has one kernel class, which
the schedulers and the batched lanes both run through one event loop; this
rule keeps it that way statically: inside the policed modules
(:data:`repro.analysis.contracts.DRIFT_MODULE_SUFFIXES`), a subscript store
into a protected state plane (``activated[j] = True``,
``self._state[node] = CAND``, ``booked[lane] += need`` …) is only legal
inside a def registered ``@hot_kernel`` or ``@plane_mutator`` — anywhere
else it is a reimplementation and a finding.

``schedulers/reference.py`` is not policed: it is the frozen pre-array
oracle and *supposed* to carry its own naive implementation.

The waiver token is ``# kernel-ok: plane-mutation``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .contracts import DRIFT_MODULE_SUFFIXES, STATE_PLANE_NAMES
from .rules import Finding, SourceFile, subscript_base_name

__all__ = ["check_anti_drift"]

_CATEGORY = "anti-drift"


def _allowed_spans(module: SourceFile) -> list[tuple[int, int]]:
    """Line spans of registered defs (mutations inside them are legal)."""
    spans: list[tuple[int, int]] = []
    for registered in module.registered:
        node = registered.node
        end = getattr(node, "end_lineno", node.lineno)
        spans.append((node.lineno, end or node.lineno))
    return spans


def _in_spans(line: int, spans: list[tuple[int, int]]) -> bool:
    return any(start <= line <= end for start, end in spans)


def _store_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def check_anti_drift(module: SourceFile) -> Iterable[Finding]:
    if not any(module.matches(suffix) for suffix in DRIFT_MODULE_SUFFIXES):
        return []
    spans = _allowed_spans(module)
    parents = module.parent_map()
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        for target in _store_targets(node):
            if not isinstance(target, ast.Subscript):
                continue
            base = subscript_base_name(target)
            if base is None or base not in STATE_PLANE_NAMES:
                continue
            if _in_spans(target.lineno, spans):
                continue
            findings.append(
                module.finding(
                    "AD301",
                    _CATEGORY,
                    target,
                    module.scope_of(node, parents),
                    f"state plane {base!r} mutated outside a registered "
                    "kernel/plane-mutator (reimplemented transition rule?)",
                )
            )
    return findings
