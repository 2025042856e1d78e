"""Flow-sensitive taint tracking for nondeterminism sources.

The syntactic DET1xx rules flag nondeterminism *at the call site*:
``time.time()`` in a sort key, iterating a ``set``.  This engine
instead tracks where those values actually *go* — through assignments,
containers, returns, and project-internal calls — and only reports
when a tainted value reaches a sink that affects observable output:

========  =============================================================
DET201    taint (wallclock / RNG / ``id()``) reaches a sort key
DET202    taint reaches a persisted artifact (``json.dump``,
          ``pickle``, ``handle.write``)
DET203    taint stored into object state (``self.attr = ...``) in a
          sim-path module — it will persist into checkpoint envelopes
DET204    taint reaches an event time or priority
          (``schedule_at`` / ``schedule_after``)
DET205    a set-iteration-ordered sequence escapes (returned/yielded)
          without being sorted — the flow-sensitive DET105
========  =============================================================

Taint kinds are ``wallclock``, ``rng``, ``ident`` (``id()``/``hash()``)
and ``order`` (sequences whose order came from set iteration).  Each
function is summarised by which taints it returns and which parameters
flow into sinks; summaries are iterated to a fixpoint so taint crosses
function boundaries, and sanitizers (``sorted``, ``.sort()``,
``min``/``max``/``len``/``sum``, set constructors) kill ``order`` taint
exactly where the syntactic rule could not see it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules.base import attr_chain
from repro.analysis.rules.randomness import ENTROPY_ORIGINS, GLOBAL_RANDOM_FNS
from repro.analysis.rules.wallclock import MONOTONIC_ORIGINS, WALLCLOCK_ORIGINS

from repro.analysis.flow.catalog import FLOW_RULE_INFO
from repro.analysis.flow.project import FunctionInfo, ModuleInfo, Project

#: Consumers whose result does not depend on input ordering.
_ORDER_KILLERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
})
#: Set methods whose result is again a set.
_SET_COMBINATORS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})
#: Serialisation entry points whose first argument gets persisted.
_PERSIST_CALLS = frozenset({
    "json.dump", "json.dumps", "pickle.dump", "pickle.dumps",
    "marshal.dump", "marshal.dumps",
})
#: Concrete (non-parameter) taint kinds.
_CONCRETE = frozenset({"wallclock", "monotonic", "rng", "ident", "order"})
#: Kinds that make a *value* nondeterministic (order only affects
#: sequences, which sorting neutralises — so sort keys ignore it).
_VALUE_KINDS = frozenset({"wallclock", "monotonic", "rng", "ident"})

_KIND_LABEL = {
    "wallclock": "wall-clock time",
    "monotonic": "monotonic-clock time",
    "rng": "unseeded RNG output",
    "ident": "id()/hash() value",
    "order": "set-iteration order",
}

_CLOCK_DOTTED = frozenset(".".join(t) for t in WALLCLOCK_ORIGINS)
_MONO_DOTTED = frozenset(".".join(t) for t in MONOTONIC_ORIGINS)
_ENTROPY_DOTTED = frozenset(".".join(t) for t in ENTROPY_ORIGINS)


def classify_source(origin: str, has_args: bool) -> Optional[str]:
    """Nondeterminism kind of a resolved call origin, if any.

    Returns ``"wallclock"``, ``"monotonic"``, ``"rng"`` or ``None``.
    Matches the syntactic rules' origin tables: ``random.*`` global
    draws, unseeded ``random.Random()``, ``numpy.random``, entropy
    sources, and the clock families.
    """
    if origin in _CLOCK_DOTTED:
        return "wallclock"
    if origin in _MONO_DOTTED:
        return "monotonic"
    parts = origin.split(".")
    if len(parts) >= 2 and parts[0] == "random" and parts[-1] in GLOBAL_RANDOM_FNS:
        return "rng"
    if origin == "random.Random" and not has_args:
        return "rng"
    if parts[:2] == ["numpy", "random"]:
        return "rng"
    if origin in _ENTROPY_DOTTED or parts[0] == "secrets":
        return "rng"
    return None


@dataclass(frozen=True, order=True)
class Taint:
    """One taint mark: a concrete kind, or a parameter pseudo-taint."""

    kind: str  # one of _CONCRETE, or "param"
    detail: str  # source line for concrete kinds, parameter name for "param"

    @property
    def concrete(self) -> bool:
        return self.kind in _CONCRETE


@dataclass(frozen=True, order=True)
class ParamSink:
    """A summary fact: values passed via *param* reach a sink."""

    param: str
    rule: str
    kinds: FrozenSet[str]
    label: str


@dataclass(frozen=True)
class TaintSummary:
    """What a function does with taint, as seen by its callers."""

    returns: FrozenSet[Taint] = frozenset()
    sinks: FrozenSet[ParamSink] = frozenset()


def _kinds(taints: Set[Taint]) -> Set[str]:
    return {t.kind for t in taints if t.concrete}


def _describe(taints: Set[Taint], kinds: FrozenSet[str]) -> str:
    parts = sorted(
        f"{_KIND_LABEL[t.kind]} (line {t.detail})"
        for t in taints
        if t.concrete and t.kind in kinds
    )
    return ", ".join(parts)


class _TaintWalker:
    """Single-function taint interpretation in statement order."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        fn: FunctionInfo,
        summaries: Dict[str, TaintSummary],
        record: bool,
    ) -> None:
        self.project = project
        self.module = module
        self.fn = fn
        self.summaries = summaries
        self.record = record
        self.state: Dict[str, Set[Taint]] = {
            p: {Taint("param", p)} for p in fn.params
        }
        self.setlike: Set[str] = set()
        self.returns: Set[Taint] = set()
        self.sinks: Set[ParamSink] = set()
        self.findings: List[Finding] = []
        self.local_types: Dict[str, str] = {}
        for param, names in fn.param_annotations.items():
            for type_name in names:
                resolved = project.resolve_class_name(module, type_name)
                if resolved is not None:
                    self.local_types[param] = resolved
                    break
            if any(n in ("Set", "set", "FrozenSet", "frozenset", "AbstractSet")
                   for n in names):
                self.setlike.add(param)
        #: nesting depth of ``for`` loops iterating set-ordered data
        self._order_loops = 0

    def _is_setlike(self, node: ast.expr) -> bool:
        """Whether an expression yields a set (iteration order undefined)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.setlike
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_COMBINATORS
            ):
                return self._is_setlike(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_setlike(node.left) or self._is_setlike(node.right)
        return False

    # ------------------------------------------------------------------
    def run(self) -> TaintSummary:
        # two passes so loop-carried taint stabilises; sinks fire once
        saved_record = self.record
        self.record = False
        self._exec_block(self.fn.node.body)
        self.record = saved_record
        self.returns.clear()
        self.sinks.clear()
        self._exec_block(self.fn.node.body)
        return TaintSummary(
            returns=frozenset(self.returns), sinks=frozenset(self.sinks)
        )

    # -- statement interpretation --------------------------------------
    def _exec_block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taints, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            extra = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                bucket = self.state.setdefault(stmt.target.id, set())
                bucket |= extra
                if self._order_loops and isinstance(stmt.value, (ast.List, ast.Tuple)):
                    bucket.add(Taint("order", str(stmt.lineno)))
            elif isinstance(stmt.target, ast.Attribute):
                self._check_state_store(stmt.target, extra, stmt.lineno)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._note_escape(stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)):
                inner = stmt.value.value
                if inner is not None:
                    self._note_escape(inner, stmt.lineno)
            else:
                self._eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_for(stmt)
        elif isinstance(stmt, (ast.While,)):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taints, item.context_expr)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analysed as their own units
        # remaining statement kinds carry no taint

    def _exec_for(self, stmt: "ast.For | ast.AsyncFor") -> None:
        iter_taints = self._eval(stmt.iter)
        ordered = self._is_setlike(stmt.iter)
        element = {t for t in iter_taints if t.kind != "order"}
        for name_node in ast.walk(stmt.target):
            if isinstance(name_node, ast.Name):
                self.state[name_node.id] = set(element)
        if ordered:
            self._order_loops += 1
        self._exec_block(stmt.body)
        if ordered:
            self._order_loops -= 1
        self._exec_block(stmt.orelse)

    def _assign(
        self, target: ast.expr, taints: Set[Taint], value: ast.expr
    ) -> None:
        if isinstance(target, ast.Name):
            self.state[target.id] = set(taints)
            if self._is_setlike(value):
                self.setlike.add(target.id)
            else:
                self.setlike.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taints, value)
        elif isinstance(target, ast.Attribute):
            self._check_state_store(target, taints, target.lineno)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taints, value)
        elif isinstance(target, ast.Subscript):
            # weak update: the container keeps its taint and gains the
            # stored value's (``payload["k"] = stamp()`` taints payload)
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                self.state.setdefault(base.id, set()).update(taints)
            elif isinstance(base, ast.Attribute):
                self._check_state_store(base, taints, target.lineno)

    # -- expression evaluation -----------------------------------------
    def _eval(self, node: ast.expr) -> Set[Taint]:
        if isinstance(node, ast.Name):
            return set(self.state.get(node.id, set()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval(node.slice)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: Set[Taint] = set()
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, ast.Compare):
            out = self._eval(node.left)
            for comparator in node.comparators:
                out |= self._eval(comparator)
            return out
        if isinstance(node, ast.IfExp):
            return self._eval(node.body) | self._eval(node.orelse) | self._eval(node.test)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = set()
            for element in node.elts:
                if isinstance(element, ast.Starred):
                    element = element.value
                out |= self._eval(element)
            if isinstance(node, ast.Set):
                out = {t for t in out if t.kind != "order"}
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for key in node.keys:
                if key is not None:
                    out |= self._eval(key)
            for value in node.values:
                out |= self._eval(value)
            return out
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp,
                             ast.DictComp)):
            return self._eval_comp(node)
        if isinstance(node, (ast.Await, ast.YieldFrom, ast.Yield)):
            if node.value is not None:
                return self._eval(node.value)
            return set()
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            out = set()
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    out |= self._eval(part.value)
            return out
        if isinstance(node, ast.Lambda):
            return set()  # evaluated lazily where it is used as a sort key
        if isinstance(node, ast.NamedExpr):
            taints = self._eval(node.value)
            self._assign(node.target, taints, node.value)
            return taints
        return set()

    def _eval_comp(
        self,
        node: "ast.ListComp | ast.GeneratorExp | ast.SetComp | ast.DictComp",
    ) -> Set[Taint]:
        out: Set[Taint] = set()
        saved: Dict[str, Optional[Set[Taint]]] = {}
        ordered = False
        for comp in node.generators:
            element = {t for t in self._eval(comp.iter) if t.kind != "order"}
            if self._is_setlike(comp.iter):
                ordered = True
            # bind comprehension targets to the iterable's element taint
            # so the element expression evaluates in the right state
            for name_node in ast.walk(comp.target):
                if isinstance(name_node, ast.Name):
                    if name_node.id not in saved:
                        saved[name_node.id] = self.state.get(name_node.id)
                    self.state[name_node.id] = set(element)
            for condition in comp.ifs:
                self._eval(condition)
        if isinstance(node, ast.DictComp):
            out |= self._eval(node.key) | self._eval(node.value)
        else:
            out |= self._eval(node.elt)
        for name in sorted(saved):
            previous = saved[name]
            if previous is None:
                self.state.pop(name, None)
            else:
                self.state[name] = previous
        if ordered and not isinstance(node, ast.SetComp):
            out.add(Taint("order", str(node.lineno)))
        if isinstance(node, ast.SetComp):
            out = {t for t in out if t.kind != "order"}
        return out

    # -- calls ---------------------------------------------------------
    def _origin_of(self, chain: Sequence[str]) -> str:
        if not chain:
            return ""
        if chain[0] in self.module.imports:
            return ".".join(self.module.imports[chain[0]] + tuple(chain[1:]))
        return ".".join(chain)

    def _eval_call(self, node: ast.Call) -> Set[Taint]:
        chain = attr_chain(node.func)
        origin = self._origin_of(chain)
        name = chain[-1] if chain else ""
        arg_taints = [self._eval(arg) for arg in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg
        }

        self._check_sort_sink(node, chain)
        self._check_persist_sink(node, origin, chain, arg_taints)
        self._check_schedule_sink(node, name, arg_taints, kw_taints)

        # sources
        source = classify_source(origin, has_args=bool(node.args or node.keywords))
        if source in ("wallclock", "monotonic"):
            return {Taint(source, str(node.lineno))}
        if source == "rng":
            return {Taint("rng", str(node.lineno))}
        if origin in ("id", "hash") and isinstance(node.func, ast.Name):
            return {Taint("ident", str(node.lineno))}

        everything: Set[Taint] = set()
        for taints in arg_taints:
            everything |= taints
        for taints in kw_taints.values():
            everything |= taints

        # sanitizers and order plumbing
        if isinstance(node.func, ast.Name) and name in _ORDER_KILLERS:
            return {t for t in everything if t.kind != "order"}
        if isinstance(node.func, ast.Name) and name in (
            "list", "tuple", "iter", "enumerate", "reversed",
        ):
            if any(self._is_setlike(arg) for arg in node.args):
                everything.add(Taint("order", str(node.lineno)))
            return everything
        if name == "sort" and isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name) and base.id in self.state:
                self.state[base.id] = {
                    t for t in self.state[base.id] if t.kind != "order"
                }
            return set()
        if (
            name in MUTATOR_LIKE
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
        ):
            bucket = self.state.setdefault(node.func.value.id, set())
            bucket |= everything
            if self._order_loops:
                bucket.add(Taint("order", str(node.lineno)))
            return set()

        # project-internal calls: apply callee summaries
        callees = self.project.resolve_call(self.fn, node, self.local_types)
        if callees:
            receiver_taints: Set[Taint] = set()
            if isinstance(node.func, ast.Attribute):
                receiver_taints = self._eval(node.func.value)
            out: Set[Taint] = set()
            for callee in callees:
                out |= self._apply_summary(
                    callee, node, arg_taints, kw_taints, receiver_taints
                )
            return out

        # unknown call: conservative pass-through of argument taint
        if isinstance(node.func, ast.Attribute):
            everything |= self._eval(node.func.value)
        return everything

    def _apply_summary(
        self,
        callee_qname: str,
        node: ast.Call,
        arg_taints: List[Set[Taint]],
        kw_taints: Dict[str, Set[Taint]],
        receiver_taints: Set[Taint],
    ) -> Set[Taint]:
        summary = self.summaries.get(callee_qname)
        callee = self.project.functions.get(callee_qname)
        if summary is None or callee is None:
            out = set(receiver_taints)
            for taints in arg_taints:
                out |= taints
            return out

        def taint_of_param(param: str) -> Set[Taint]:
            if callee.is_method and param == "self":
                return receiver_taints
            try:
                position = callee.params.index(param)
            except ValueError:
                return set()
            if callee.is_method:
                position -= 1
            if 0 <= position < len(arg_taints):
                return arg_taints[position]
            if param in kw_taints:
                return kw_taints[param]
            return set()

        # param sinks: concrete taint flowing into a sink inside callee
        for sink in sorted(summary.sinks):
            incoming = taint_of_param(sink.param)
            hits = {t for t in incoming if t.concrete and t.kind in sink.kinds}
            if hits:
                self._report(
                    sink.rule,
                    node.lineno,
                    node.col_offset,
                    f"{_describe(hits, sink.kinds)} flows into {sink.label}",
                )
            for t in sorted(incoming):
                if t.kind == "param":
                    self.sinks.add(
                        ParamSink(
                            param=t.detail,
                            rule=sink.rule,
                            kinds=sink.kinds,
                            label=sink.label,
                        )
                    )
        # return taint: concrete kinds pass through, params substitute
        out: Set[Taint] = set()
        for t in summary.returns:
            if t.concrete:
                out.add(t)
            else:
                out |= taint_of_param(t.detail)
        return out

    # -- sinks ---------------------------------------------------------
    def _sort_key_expr(self, node: ast.Call, chain: Sequence[str]) -> Optional[ast.expr]:
        is_sorter = False
        if isinstance(node.func, ast.Name) and node.func.id in ("sorted", "min", "max"):
            is_sorter = True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "sort":
            is_sorter = True
        if not is_sorter:
            return None
        for keyword in node.keywords:
            if keyword.arg == "key":
                return keyword.value
        return None

    def _check_sort_sink(self, node: ast.Call, chain: Sequence[str]) -> None:
        key = self._sort_key_expr(node, chain)
        if key is None:
            return
        if isinstance(key, ast.Lambda):
            shadowed = {a.arg for a in key.args.args}
            taints: Set[Taint] = set()
            for name_node in ast.walk(key.body):
                if isinstance(name_node, ast.Name) and name_node.id not in shadowed:
                    taints |= self.state.get(name_node.id, set())
        else:
            taints = self._eval(key)
        hits = {t for t in taints if t.concrete and t.kind in _VALUE_KINDS}
        if hits:
            self._report(
                "DET201",
                node.lineno,
                node.col_offset,
                f"sort key depends on {_describe(hits, _VALUE_KINDS)}",
            )
        for t in sorted(taints):
            if t.kind == "param":
                self.sinks.add(
                    ParamSink(
                        param=t.detail,
                        rule="DET201",
                        kinds=_VALUE_KINDS,
                        label=f"a sort key in {self.fn.qname} (line {node.lineno})",
                    )
                )

    def _check_persist_sink(
        self,
        node: ast.Call,
        origin: str,
        chain: Sequence[str],
        arg_taints: List[Set[Taint]],
    ) -> None:
        payload: Optional[Set[Taint]] = None
        label = ""
        if origin in _PERSIST_CALLS and arg_taints:
            payload = arg_taints[0]
            label = f"{origin}()"
        elif (
            chain
            and chain[-1] in ("write", "writelines")
            and isinstance(node.func, ast.Attribute)
            and arg_taints
        ):
            payload = arg_taints[0]
            label = f".{chain[-1]}()"
        if payload is None:
            return
        hits = {t for t in payload if t.concrete}
        if hits:
            self._report(
                "DET202",
                node.lineno,
                node.col_offset,
                f"{_describe(hits, _CONCRETE)} persisted via {label}",
            )
        for t in sorted(payload):
            if t.kind == "param":
                self.sinks.add(
                    ParamSink(
                        param=t.detail,
                        rule="DET202",
                        kinds=_CONCRETE,
                        label=f"persisted output ({label}) in {self.fn.qname} "
                        f"(line {node.lineno})",
                    )
                )

    def _check_schedule_sink(
        self,
        node: ast.Call,
        name: str,
        arg_taints: List[Set[Taint]],
        kw_taints: Dict[str, Set[Taint]],
    ) -> None:
        if name not in ("schedule_at", "schedule_after"):
            return
        checked: List[Tuple[str, Set[Taint]]] = []
        if arg_taints:
            checked.append(("event time", arg_taints[0]))
        if "priority" in kw_taints:
            checked.append(("event priority", kw_taints["priority"]))
        for what, taints in checked:
            hits = {t for t in taints if t.concrete}
            if hits:
                self._report(
                    "DET204",
                    node.lineno,
                    node.col_offset,
                    f"{what} of {name}() depends on {_describe(hits, _CONCRETE)}",
                )
            for t in sorted(taints):
                if t.kind == "param":
                    self.sinks.add(
                        ParamSink(
                            param=t.detail,
                            rule="DET204",
                            kinds=_CONCRETE,
                            label=f"the {what} of {name}() in {self.fn.qname} "
                            f"(line {node.lineno})",
                        )
                    )

    def _check_state_store(
        self, target: ast.Attribute, taints: Set[Taint], line: int
    ) -> None:
        if not (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.fn.is_method
        ):
            return
        if not self.module.is_sim:
            return
        hits = {t for t in taints if t.concrete}
        if hits:
            self._report(
                "DET203",
                line,
                target.col_offset,
                f"self.{target.attr} stores {_describe(hits, _CONCRETE)}; "
                "it will persist into checkpoint envelopes",
            )
        for t in sorted(taints):
            if t.kind == "param":
                self.sinks.add(
                    ParamSink(
                        param=t.detail,
                        rule="DET203",
                        kinds=_CONCRETE,
                        label=f"object state (self.{target.attr}) in "
                        f"{self.fn.qname} (line {line})",
                    )
                )

    def _note_escape(self, value: ast.expr, line: int) -> None:
        taints = self._eval(value)
        self.returns |= {t for t in taints if t.concrete or t.kind == "param"}
        hits = {t for t in taints if t.kind == "order"}
        if hits:
            self._report(
                "DET205",
                line,
                value.col_offset,
                f"returned sequence carries {_describe(hits, _CONCRETE)}; "
                "sort it (or return a set) before it escapes",
            )

    def _report(self, rule: str, line: int, col: int, message: str) -> None:
        if not self.record:
            return
        info = FLOW_RULE_INFO[rule]
        self.findings.append(
            Finding(
                path=self.module.posix,
                line=line,
                column=col,
                rule=rule,
                severity=info.severity,
                message=message,
                hint=info.hint,
            )
        )


#: Mutator methods that merge argument taint into their receiver.
MUTATOR_LIKE = frozenset({
    "add", "append", "appendleft", "extend", "insert", "update",
})


@dataclass
class TaintAnalysis:
    """Project-wide taint results."""

    summaries: Dict[str, TaintSummary]
    findings: List[Finding] = field(default_factory=list)


def analyze_taint(project: Project) -> TaintAnalysis:
    """Fixpoint the summaries, then one recording pass for findings."""
    summaries: Dict[str, TaintSummary] = {}
    for _ in range(10):
        changed = False
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            module = project.modules[fn.module]
            walker = _TaintWalker(project, module, fn, summaries, record=False)
            summary = walker.run()
            if summaries.get(qname) != summary:
                summaries[qname] = summary
                changed = True
        if not changed:
            break
    findings: List[Finding] = []
    for qname in sorted(project.functions):
        fn = project.functions[qname]
        module = project.modules[fn.module]
        walker = _TaintWalker(project, module, fn, summaries, record=True)
        walker.run()
        findings.extend(walker.findings)
    return TaintAnalysis(summaries=summaries, findings=findings)
