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
from typing import Any, Optional


class UnserialisableValue(ValueError):
    """Strict canonicalisation met a value only ``repr`` could encode."""

    def __init__(self, path: str, value: Any) -> None:
        super().__init__(
            f"value at {path} is not canonically serialisable: "
            f"{type(value).__name__} ({value!r})"
        )
        self.path = path
        self.value = value


def canonical(value: Any, strict: bool = False, _path: str = "$") -> Any:
    """Reduce *value* to a deterministic JSON-encodable structure.

    Dataclasses carry their qualified type name so two config classes
    with identical fields still key differently; unknown objects fall
    back to ``repr`` (stable for this codebase's value types).  The
    fallback is fine for *hashing* cache keys but lossy for *payloads*
    — ``strict=True`` raises :class:`UnserialisableValue` instead, so
    an undecodable record is never silently cached.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: canonical(getattr(value, f.name), strict, f"{_path}.{f.name}")
            for f in dataclasses.fields(value)
        }
        cls = type(value)
        body["__type__"] = f"{cls.__module__}.{cls.__qualname__}"
        return body
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, dict):
        return {
            str(k): canonical(v, strict, f"{_path}.{k}") for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [
            canonical(v, strict, f"{_path}[{i}]") for i, v in enumerate(value)
        ]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if strict:
        raise UnserialisableValue(_path, value)
    return {"__repr__": repr(value)}


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
