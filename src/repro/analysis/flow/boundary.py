"""Session-state picklability (CONC303).

Checkpoints pickle the live simulation session, so every object
reachable from it must survive pickling.  CONC303 flags an unpicklable
value (lambda, local function, open handle, thread lock) stored on a
``self`` attribute of a class reachable from :data:`SESSION_ROOTS` via
attribute-type edges.  Classes that define ``__getstate__`` are trusted
to canonicalise themselves and are exempt.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import attr_chain

from repro.analysis.flow.catalog import FLOW_RULE_INFO
from repro.analysis.flow.project import ClassInfo, Project

#: Classes whose instances are checkpoint payload.
SESSION_ROOTS: Tuple[str, ...] = ("repro.checkpoint.session.SimulationSession",)

#: Constructor origins whose instances cannot be pickled.
_UNPICKLABLE_ORIGINS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "multiprocessing.Lock",
    "multiprocessing.RLock",
})


def check_session_state(
    project: Project, session_roots: Sequence[str] = SESSION_ROOTS
) -> List[Finding]:
    """CONC303: unpicklable values on session-reachable objects."""
    rule = FLOW_RULE_INFO["CONC303"]
    reachable = _reachable_classes(project, session_roots)
    findings: List[Finding] = []
    for class_qname in sorted(reachable):
        info = project.classes[class_qname]
        if info.has_getstate:
            continue
        module = project.modules[info.module]
        for method_name in sorted(info.methods):
            fn = project.functions[info.methods[method_name]]
            local_defs = {
                inner.name
                for inner in ast.walk(fn.node)
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                and inner is not fn.node
            }
            for stmt in ast.walk(fn.node):
                pairs: List[Tuple[ast.expr, ast.expr]] = []
                if isinstance(stmt, ast.Assign):
                    pairs = [(t, stmt.value) for t in stmt.targets]
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    pairs = [(stmt.target, stmt.value)]
                for target, value in pairs:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    reason = _unpicklable_reason(value, local_defs, module.imports)
                    if reason is None:
                        continue
                    findings.append(Finding(
                        path=module.posix,
                        line=target.lineno,
                        column=target.col_offset,
                        rule="CONC303",
                        severity=rule.severity,
                        message=(
                            f"{class_qname}.{target.attr} holds {reason} but "
                            "the class is reachable from session state "
                            f"({', '.join(session_roots)}) and defines no "
                            "__getstate__"
                        ),
                        hint=rule.hint,
                    ))
    return findings


def _unpicklable_reason(
    value: ast.expr,
    local_defs: Set[str],
    imports: Dict[str, Tuple[str, ...]],
) -> Optional[str]:
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Name) and value.id in local_defs:
        return f"the local function {value.id}()"
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        if not chain:
            return None
        if tuple(chain) == ("open",):
            return "an open file handle"
        origin = ".".join(imports.get(chain[0], (chain[0],)) + tuple(chain[1:]))
        if origin in _UNPICKLABLE_ORIGINS:
            return f"a {origin}()"
        if origin in ("io.open", "pathlib.Path.open"):
            return "an open file handle"
    return None


def _reachable_classes(
    project: Project, roots: Sequence[str]
) -> Set[str]:
    """Classes reachable from *roots* via attribute-type edges."""
    seen: Set[str] = set()
    stack: List[str] = [root for root in roots if root in project.classes]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for cls in project.mro(current):
            seen.add(cls)
            info: ClassInfo = project.classes[cls]
            for attr in sorted(info.attr_type_names):
                for candidate in project.attr_types(cls, attr):
                    if candidate not in seen:
                        stack.append(candidate)
    return seen
