"""Project model for the interprocedural flow analyzer.

The syntactic linter judges one file at a time; the flow layer needs
the *whole* project: which modules exist, which functions and classes
they define, and — the hard part — which project function a call
expression lands in.  This module builds that model from source text
alone (nothing is imported, same contract as the linter) and resolves
calls through four mechanisms, tried in order:

1. **Imports** — ``from repro.sim.engine import Simulator`` makes
   ``Simulator(...)`` resolve to ``repro.sim.engine.Simulator.__init__``.
2. **Annotations** — a parameter ``sim: Simulator`` types the local
   ``sim``, so ``sim.schedule_at(...)`` resolves into that class.
3. **Attribute types** — ``self.sim = sim`` in ``__init__`` (with
   ``sim`` annotated) types the attribute, so ``self.sim.run()``
   resolves from any method.
4. **Unique method names** — a method name defined by exactly one
   project class resolves there, unless it collides with a common
   builtin-container method (``append``, ``update``, …), which would
   make ``some_list.append`` a false edge.

Everything is deterministic: modules, classes and functions are held
in sorted dictionaries and every list the model hands out is sorted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.config import AnalysisConfig
from repro.analysis.rules.base import attr_chain, build_import_map

#: Method names that belong to builtin containers/streams: a call like
#: ``items.append(x)`` must never resolve to a project class that
#: happens to define a method of the same name.
AMBIENT_METHODS = frozenset({
    "add", "append", "clear", "close", "copy", "count", "discard",
    "extend", "get", "index", "insert", "items", "join", "keys", "pop",
    "popitem", "read", "readline", "readlines", "remove", "reverse",
    "setdefault", "sort", "split", "strip", "update", "values",
    "write", "writelines",
})


def _annotation_names(node: Optional[ast.AST]) -> Tuple[str, ...]:
    """Bare identifiers mentioned anywhere in an annotation.

    ``Dict[int, NthLibRuntime]`` yields ``("Dict", "int",
    "NthLibRuntime")`` — the project-class filter happens later, at
    resolution time.
    """
    if node is None:
        return ()
    names: List[str] = []
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            names.append(inner.id)
        elif isinstance(inner, ast.Attribute):
            names.append(inner.attr)
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            # string annotation: re-parse it ("Simulator" forward refs)
            try:
                names.extend(_annotation_names(ast.parse(inner.value, mode="eval").body))
            except SyntaxError:
                pass
    return tuple(names)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str
    module: str
    #: enclosing class qname, or None for module-level functions
    cls: Optional[str]
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    #: parameter names in order, including ``self`` for methods
    params: Tuple[str, ...]
    #: parameter name -> annotation identifiers (for local typing)
    param_annotations: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    """One class definition and what the analyzer knows about it."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    #: base-class identifiers as written (resolved lazily via project)
    base_names: Tuple[str, ...]
    #: method name -> function qname
    methods: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> candidate class-name identifiers (unresolved)
    attr_type_names: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    has_getstate: bool = False


@dataclass
class ModuleInfo:
    """One parsed module plus its top-level inventory."""

    name: str
    path: Path
    posix: str
    text: str
    tree: ast.Module
    imports: Dict[str, Tuple[str, ...]]
    is_sim: bool
    functions: Dict[str, str] = field(default_factory=dict)  # name -> qname
    classes: Dict[str, str] = field(default_factory=dict)  # name -> qname


def module_name_for(path: Path) -> str:
    """Dotted module name for *path*, walking up through packages.

    ``src/repro/qs/queuing.py`` (with ``__init__.py`` all the way up to
    ``src/repro``) becomes ``repro.qs.queuing``; a file outside any
    package is just its stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # a bare __init__.py outside any package
        parts = [path.parent.name]
    return ".".join(parts)


class Project:
    """The parsed project: modules, definitions, and call resolution."""

    def __init__(self, config: AnalysisConfig) -> None:
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> sorted list of defining class qnames
        self.methods_by_name: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        paths: Sequence[Union[str, Path]],
        config: Optional[AnalysisConfig] = None,
    ) -> "Project":
        """Parse every Python file under *paths* into one project.

        Directories are walked recursively in sorted order; files are
        taken as-is.  Files that fail to parse are skipped here — the
        syntactic pass reports them as DET000.
        """
        config = config or AnalysisConfig()
        project = cls(config)
        files: List[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        for file_path in files:
            if config.is_excluded(file_path.as_posix()):
                continue
            project._add_file(file_path)
        project._index()
        return project

    def _add_file(self, path: Path) -> None:
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError:
            return
        name = module_name_for(path)
        posix = path.as_posix()
        module = ModuleInfo(
            name=name,
            path=path,
            posix=posix,
            text=text,
            tree=tree,
            imports=build_import_map(tree),
            is_sim=self.config.is_sim_path(posix),
        )
        self.modules[name] = module
        self._harvest(module)

    def _harvest(self, module: ModuleInfo) -> None:
        """Collect top-level functions and classes."""
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(module, node, cls=None)
                module.functions[node.name] = info.qname
                self.functions[info.qname] = info
            elif isinstance(node, ast.ClassDef):
                self._harvest_class(module, node)

    def _harvest_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{module.name}.{node.name}"
        info = ClassInfo(
            qname=qname,
            module=module.name,
            name=node.name,
            node=node,
            base_names=tuple(
                ".".join(attr_chain(base)) for base in node.bases
                if attr_chain(base)
            ),
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._function_info(module, item, cls=qname)
                info.methods[item.name] = fn.qname
                self.functions[fn.qname] = fn
                if item.name == "__getstate__":
                    info.has_getstate = True
        info.attr_type_names = _infer_attr_types(node)
        self.classes[qname] = info
        module.classes[node.name] = qname

    def _function_info(
        self,
        module: ModuleInfo,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        cls: Optional[str],
    ) -> FunctionInfo:
        prefix = cls if cls is not None else module.name
        args = node.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params = tuple(a.arg for a in ordered)
        annotations = {
            a.arg: _annotation_names(a.annotation)
            for a in ordered if a.annotation is not None
        }
        return FunctionInfo(
            qname=f"{prefix}.{node.name}",
            module=module.name,
            cls=cls,
            name=node.name,
            node=node,
            params=params,
            param_annotations=annotations,
        )

    def _index(self) -> None:
        by_name: Dict[str, List[str]] = {}
        for qname in sorted(self.classes):
            info = self.classes[qname]
            for method in info.methods:
                by_name.setdefault(method, []).append(qname)
        self.methods_by_name = {k: sorted(v) for k, v in sorted(by_name.items())}

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def module_of_origin(self, origin: Tuple[str, ...]) -> Tuple[Optional[str], Tuple[str, ...]]:
        """Split a dotted origin into (project module, object path).

        The longest prefix naming a loaded module wins:
        ``("repro", "sim", "engine", "Simulator")`` splits into
        ``("repro.sim.engine", ("Simulator",))``.
        """
        for cut in range(len(origin), 0, -1):
            name = ".".join(origin[:cut])
            if name in self.modules:
                return name, origin[cut:]
        return None, origin

    def resolve_class_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        """Class qname for a bare identifier as seen from *module*."""
        if name in module.classes:
            return module.classes[name]
        if name in module.imports:
            target, rest = self.module_of_origin(module.imports[name])
            if target is not None:
                candidate = ".".join([target, *rest])
                if candidate in self.classes:
                    return candidate
        return None

    def mro(self, class_qname: str) -> List[str]:
        """Project-internal linearisation: the class then its bases."""
        seen: List[str] = []
        stack = [class_qname]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.append(current)
            info = self.classes[current]
            module = self.modules.get(info.module)
            if module is None:
                continue
            for base_name in info.base_names:
                resolved = self.resolve_class_name(module, base_name.split(".")[-1])
                if resolved is None and base_name in self.classes:
                    resolved = base_name
                if resolved is not None:
                    stack.append(resolved)
        return seen

    def lookup_method(self, class_qname: str, method: str) -> Optional[str]:
        """Function qname of *method* along the project MRO."""
        for cls in self.mro(class_qname):
            info = self.classes[cls]
            if method in info.methods:
                return info.methods[method]
        return None

    def attr_types(self, class_qname: str, attr: str) -> List[str]:
        """Candidate class qnames for ``self.<attr>`` in *class_qname*."""
        out: List[str] = []
        for cls in self.mro(class_qname):
            info = self.classes[cls]
            module = self.modules.get(info.module)
            if module is None:
                continue
            for type_name in info.attr_type_names.get(attr, ()):
                resolved = self.resolve_class_name(module, type_name)
                if resolved is not None and resolved not in out:
                    out.append(resolved)
        return sorted(out)

    def constructor_of(self, class_qname: str) -> Optional[str]:
        """``__init__`` qname reachable from *class_qname*, if any."""
        return self.lookup_method(class_qname, "__init__")

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self,
        caller: FunctionInfo,
        call: ast.Call,
        local_types: Mapping[str, str],
    ) -> List[str]:
        """Candidate project-function qnames for a call expression.

        *local_types* maps local variable names to class qnames (from
        annotations and constructor assignments, built by the caller's
        analysis walk).  Returns a sorted list; empty means the call
        leaves the project (stdlib, builtins, dynamic dispatch).
        """
        module = self.modules[caller.module]
        func = call.func
        candidates = self._resolve_candidates(caller, module, func, local_types)
        return sorted(set(candidates))

    def _resolve_candidates(
        self,
        caller: FunctionInfo,
        module: ModuleInfo,
        func: ast.AST,
        local_types: Mapping[str, str],
    ) -> List[str]:
        chain = attr_chain(func)
        if not chain:
            return []
        head = chain[0]

        # self.method() / self.attr.method()
        if head == "self" and caller.cls is not None:
            if len(chain) == 2:
                found = self.lookup_method(caller.cls, chain[1])
                return [found] if found else self._by_unique_name(chain[1])
            if len(chain) == 3:
                out: List[str] = []
                for cls in self.attr_types(caller.cls, chain[1]):
                    found = self.lookup_method(cls, chain[2])
                    if found is not None:
                        out.append(found)
                return out or self._by_unique_name(chain[-1])
            return self._by_unique_name(chain[-1])

        # typed local: sim.schedule_at() with sim: Simulator
        if head in local_types and len(chain) == 2:
            found = self.lookup_method(local_types[head], chain[1])
            return [found] if found else self._by_unique_name(chain[1])

        # imported or module-local names
        origin = module.imports.get(head, (head,)) + chain[1:]
        target_module, rest = self.module_of_origin(origin)
        if target_module is not None:
            target = self.modules[target_module]
            if len(rest) == 1:
                if rest[0] in target.functions:
                    return [target.functions[rest[0]]]
                if rest[0] in target.classes:
                    ctor = self.constructor_of(target.classes[rest[0]])
                    return [ctor] if ctor else []
            elif len(rest) == 2 and rest[0] in target.classes:
                found = self.lookup_method(target.classes[rest[0]], rest[1])
                return [found] if found else []
            return []

        # bare name defined in this module (not shadowed by a param)
        if len(chain) == 1 and head not in caller.params:
            if head in module.functions:
                return [module.functions[head]]
            if head in module.classes:
                ctor = self.constructor_of(module.classes[head])
                return [ctor] if ctor else []
            return []

        # attribute call on an untyped receiver: unique-name fallback
        if len(chain) >= 2:
            return self._by_unique_name(chain[-1])
        return []

    def _by_unique_name(self, method: str) -> List[str]:
        """Resolve by method name when exactly one project class defines it."""
        if method in AMBIENT_METHODS or method.startswith("__"):
            return []
        owners = self.methods_by_name.get(method, [])
        if len(owners) != 1:
            return []
        found = self.lookup_method(owners[0], method)
        return [found] if found else []


def _infer_attr_types(node: ast.ClassDef) -> Dict[str, Tuple[str, ...]]:
    """``self.<attr>`` type-name candidates from a class body.

    Sources, in every method: ``self.x: T = ...`` annotations,
    ``self.x = SomeClass(...)`` constructor calls, and ``self.x = p``
    where ``p`` is an annotated parameter of the enclosing method.
    """
    out: Dict[str, List[str]] = {}

    def note(attr: str, names: Tuple[str, ...]) -> None:
        bucket = out.setdefault(attr, [])
        for name in names:
            if name not in bucket:
                bucket.append(name)

    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            note(item.target.id, _annotation_names(item.annotation))
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        annotations = {
            a.arg: a.annotation
            for a in [*item.args.posonlyargs, *item.args.args, *item.args.kwonlyargs]
            if a.annotation is not None
        }
        for stmt in ast.walk(item):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    note(target.attr, _annotation_names(stmt.annotation))
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            if isinstance(value, ast.Call):
                chain = attr_chain(value.func)
                if chain:
                    note(target.attr, (chain[-1],))
            elif isinstance(value, ast.Name) and value.id in annotations:
                note(target.attr, _annotation_names(annotations[value.id]))
            elif isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
                # self.x = param or Default() — both arms contribute
                for arm in value.values:
                    if isinstance(arm, ast.Call):
                        chain = attr_chain(arm.func)
                        if chain:
                            note(target.attr, (chain[-1],))
                    elif isinstance(arm, ast.Name) and arm.id in annotations:
                        note(target.attr, _annotation_names(annotations[arm.id]))
    return {attr: tuple(names) for attr, names in sorted(out.items())}
