"""Content-addressed on-disk result cache for sweep cells.

A cell's cache key is the SHA-256 of a canonical encoding of

* the **code version** — a digest over every ``repro`` source file, so
  any change to the simulator invalidates the whole cache;
* the cell's **function** (dotted ``module:attr`` path);
* the cell's **parameters**, canonicalised recursively (dataclasses by
  type + fields, enums by value, mappings with sorted keys).

Records are stored as canonical JSON (sorted keys, no whitespace), so a
cache hit returns byte-for-byte the same payload that a fresh run of
the same cell would produce — warm re-runs are both instant and
provably identical.

Integrity
---------
Disk is not trusted.  Every record is stored with a header naming its
length and SHA-256; :meth:`ResultCache.get` verifies both before
serving a single byte.  An entry that fails the check — truncated,
bit-flipped, or hand-edited — is **quarantined** (renamed to
``*.corrupt``) and reported as a miss, so the cell is transparently
recomputed rather than poisoning downstream artefacts or crashing the
sweep.  Real I/O errors (``EACCES`` and friends) are logged once and
likewise degrade to misses instead of aborting.  The *write* path is
symmetric: a store that fails (``ENOSPC``, quota, permissions) is
logged once, counted in :meth:`ResultCache.stats`, and skipped — a
full disk costs cache hits, never the sweep cell.
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.canonical import canonical_dumps, code_version
from repro.storage.layer import StorageLayer, default_storage

logger = logging.getLogger(__name__)

#: header magic for integrity-checked cache records
_MAGIC = "repro-cache-v2"


def cell_key(fn: str, params: Any, code: Optional[str] = None) -> str:
    """Content-addressed cache key for one sweep cell."""
    payload = canonical_dumps({
        "code": code if code is not None else code_version(),
        "fn": fn,
        "params": params,
    })
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Filesystem cache mapping cell keys to canonical-JSON records.

    Layout: ``<root>/<key[:2]>/<key>.rec``.  A record is one header
    line (magic, payload SHA-256, payload length) followed by the raw
    payload.  Writes go through a temporary file and
    :func:`os.replace`, so concurrent workers and interrupted runs can
    never leave a torn record behind — and if anything *else* tears
    one (disk corruption, manual edits), :meth:`get` catches it.
    """

    def __init__(self, root: os.PathLike,
                 storage: Optional[StorageLayer] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.storage = storage if storage is not None else default_storage()
        #: corrupt entries detected (and quarantined) by this instance
        self.corrupt_detected = 0
        #: non-ENOENT I/O errors swallowed as misses by this instance
        self.io_errors = 0
        #: failed stores (ENOSPC and friends) skipped by this instance
        self.store_errors = 0
        self._io_error_logged = False
        self._store_error_logged = False

    def path_for(self, key: str) -> Path:
        """Where *key*'s record lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.rec"

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        """The cached payload, integrity-verified, or ``None`` on a miss.

        Corrupt entries are quarantined (renamed ``*.corrupt``) and
        treated as misses; unreadable entries (permissions, transient
        I/O) are logged once and treated as misses.
        """
        path = self.path_for(key)
        try:
            blob = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.io_errors += 1
            if not self._io_error_logged:
                self._io_error_logged = True
                logger.warning(
                    "result cache read failed (%s: %s) — treating as a miss; "
                    "further I/O errors on this cache will be counted silently",
                    type(exc).__name__, exc,
                )
            return None
        payload = self._verify(key, blob)
        if payload is None:
            self._quarantine(path)
        return payload

    def _verify(self, key: str, blob: str) -> Optional[str]:
        """Check header magic, key, length and digest; payload or ``None``.

        The header names the key the record was written under, so an
        entry spliced in from another cell — internally consistent,
        wrong content — is caught too, not just bit rot.
        """
        header, sep, payload = blob.partition("\n")
        fields = header.split(" ")
        if not sep or len(fields) != 4 or fields[0] != _MAGIC:
            return None
        try:
            owner = fields[1].split("=", 1)[1]
            digest = fields[2].split("=", 1)[1]
            length = int(fields[3].split("=", 1)[1])
        except (IndexError, ValueError):
            return None
        if owner != key or len(payload) != length:
            return None
        if hashlib.sha256(payload.encode("utf-8")).hexdigest() != digest:
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        self.corrupt_detected += 1
        logger.warning(
            "corrupt cache entry %s quarantined; the cell will be recomputed",
            path.name,
        )
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            # Even the rename failing must not break the sweep; the
            # entry stays in place and keeps reading as a miss.
            pass

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: str, payload: str) -> bool:
        """Atomically store *payload* (with integrity header) under *key*.

        Returns whether the record was stored.  A failing store —
        ``ENOSPC``, quota, permissions — is handled exactly like a
        failing read: logged once, counted (:attr:`store_errors`),
        and degraded to "not cached".  The caller's cell result is
        never at risk; only future cache hits are.

        Deliberately *not* fsynced: a torn record after a crash is
        caught by the integrity header and quarantined on read, so
        the cache trades durability for write latency safely.
        """
        path = self.path_for(key)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        header = f"{_MAGIC} key={key} sha256={digest} bytes={len(payload)}\n"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self.storage.write_atomic(
                path, header.encode("utf-8"), payload.encode("utf-8"),
                sync_file=False, sync_dir=False,
            )
        except OSError as exc:
            self.store_errors += 1
            if not self._store_error_logged:
                self._store_error_logged = True
                logger.warning(
                    "result cache store failed (%s: %s) — entry skipped; "
                    "further store errors on this cache will be counted "
                    "silently",
                    type(exc).__name__, exc,
                )
            return False
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Entry/byte counts plus corruption and I/O error counters."""
        entries = 0
        total_bytes = 0
        quarantined = 0
        for path in sorted(self.root.glob("*/*")):
            if path.suffix == ".rec" and not path.name.startswith(".tmp-"):
                entries += 1
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    pass
            elif path.suffix == ".corrupt":
                quarantined += 1
        return {
            "entries": entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "corrupt_detected": self.corrupt_detected,
            "io_errors": self.io_errors,
            "store_errors": self.store_errors,
        }

    def prune(self) -> int:
        """Remove quarantined, temporary and legacy files; returns count.

        Legacy here means pre-integrity ``*.json`` records: they carry
        no checksum, and their keys can never match again anyway (the
        code version moved), so they are dead weight.
        """
        removed = 0
        for path in sorted(self.root.glob("*/*")):
            stale = (
                path.suffix in (".corrupt", ".json")
                or path.name.startswith(".tmp-")
            )
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return sum(
            1 for p in self.root.glob("*/*.rec") if not p.name.startswith(".tmp-")
        )
