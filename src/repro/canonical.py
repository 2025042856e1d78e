"""Canonical JSON encoding and the source-code version digest.

The sweep cache key and record encoding (:mod:`repro.parallel`) and a
snapshot's ``code_version`` and ``config_digest``
(:mod:`repro.checkpoint.session`) rest on these helpers; the serve
stats digest (:mod:`repro.metrics.streaming`) dumps its JSON-exact
payload with the same settings.  The module imports nothing from
``repro``, so the run path can use it without loading the sweep
harness.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union


class UnserialisableValue(ValueError):
    """Strict canonicalisation met a value only ``repr`` could encode."""

    def __init__(self, path: str, value: Any) -> None:
        super().__init__(
            f"value at {path} is not canonically serialisable: "
            f"{type(value).__name__} ({value!r})"
        )
        self.path = path
        self.value = value


#: types returned as they are, tested by exact type before anything else
_LEAVES = frozenset({str, int, float, bool, type(None)})

#: a dataclass's field names and ``__type__`` tag; ``()`` for other types
_Layout = Union[Tuple[Tuple[str, ...], str], Tuple[()]]

#: the layout of every type met: ``dataclasses.fields()`` and the tag's
#: string formatting run once per type, not once per instance
_LAYOUTS: Dict[type, _Layout] = {}


class _Unencodable(Exception):
    """A strict walk met *value*; *steps* collects its path, innermost first."""

    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value
        self.steps: List[str] = []


def _layout(cls: type) -> _Layout:
    layout: _Layout = ()
    if dataclasses.is_dataclass(cls):
        layout = (
            tuple(f.name for f in dataclasses.fields(cls)),
            f"{cls.__module__}.{cls.__qualname__}",
        )
    _LAYOUTS[cls] = layout
    return layout


def _walk(value: Any, strict: bool) -> Any:
    cls = type(value)
    if cls in _LEAVES:
        return value
    layout = _LAYOUTS.get(cls)
    if layout is None:
        layout = _layout(cls)
    if layout:
        names, tag = layout
        body: Dict[str, Any] = {}
        try:
            for name in names:
                body[name] = _walk(getattr(value, name), strict)
        except _Unencodable as exc:
            exc.steps.append(f".{name}")
            raise
        body["__type__"] = tag
        return body
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{cls.__name__}.{value.name}"}
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        try:
            for k, v in value.items():
                out[str(k)] = _walk(v, strict)
        except _Unencodable as exc:
            exc.steps.append(f".{k}")
            raise
        return out
    if isinstance(value, (list, tuple)):
        items: List[Any] = []
        append = items.append
        try:
            for v in value:
                append(_walk(v, strict))
        except _Unencodable as exc:
            exc.steps.append(f"[{len(items)}]")
            raise
        return items
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if strict:
        raise _Unencodable(value)
    return {"__repr__": repr(value)}


def canonical(value: Any, strict: bool = False) -> Any:
    """Reduce *value* to a deterministic JSON-encodable structure.

    Dataclasses carry their qualified type name so two config classes
    with identical fields still key differently; unknown objects fall
    back to ``repr`` (stable for this codebase's value types).  The
    fallback is fine for *hashing* cache keys but lossy for *payloads*
    — ``strict=True`` raises :class:`UnserialisableValue` instead, so
    an undecodable record is never silently cached.  The error's
    ``$.path`` is assembled only then, as the walk unwinds.
    """
    try:
        return _walk(value, strict)
    except _Unencodable as exc:
        path = "$" + "".join(reversed(exc.steps))
        raise UnserialisableValue(path, exc.value) from None


def canonical_dumps(value: Any, strict: bool = False) -> str:
    """Canonical JSON: sorted keys, minimal separators, repr floats."""
    return json.dumps(
        canonical(value, strict=strict), sort_keys=True, separators=(",", ":")
    )


_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file (cached per process).

    Hashing the sources rather than a version string means a cache can
    never serve results computed by different simulator code.
    """
    global _code_version
    if _code_version is None:
        package_root = Path(__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()
    return _code_version
