"""Process-pool sweep executor with supervised, restartable execution.

Every paper artefact is a sweep over independent (policy, workload,
load, seed) cells; :class:`SweepRunner` fans those cells out over
``multiprocessing`` workers while preserving the sequential semantics:

* **Determinism** — a cell is a pure function of its parameters (each
  carries its own :class:`~repro.experiments.common.ExperimentConfig`
  with an explicit master seed), so where it executes cannot change
  its result.  Every record is normalised through canonical JSON, and
  the serial reference (``jobs=1``) produces byte-identical records.
* **Ordered collection** — results come back in submission order no
  matter which worker finishes first.
* **Caching** — with a :class:`~repro.parallel.cache.ResultCache`,
  finished cells are stored content-addressed (config + code version),
  so re-runs of unchanged cells are served from disk.
* **Supervision** — under every runner's
  :class:`~repro.parallel.supervisor.SupervisionPolicy`, crashed or
  hung cells are retried with backoff, broken pools are rebuilt, and
  cells that keep failing are quarantined as *poison cells* and
  reported in :class:`SweepStats` instead of aborting the sweep.
* **Journalling** — with a
  :class:`~repro.parallel.journal.SweepJournal`, every completion is
  durably recorded, so an interrupted sweep can ``resume`` and replay
  finished cells byte-identically instead of recomputing them.
"""

from __future__ import annotations

import importlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.parallel.cache import (
    ResultCache,
    UnserialisableValue,
    canonical_dumps,
    cell_key,
)
from repro.parallel.errors import UnserialisableRecord
from repro.parallel.journal import JournalWriteError, SweepJournal
from repro.parallel.supervisor import (
    CellFailure,
    PoolSupervisor,
    SupervisionPolicy,
    run_serial_supervised,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    Attributes
    ----------
    key:
        Human-readable label, unique within one sweep (used in progress
        and error messages; the cache key is content-derived, not this).
    fn:
        Dotted path ``"package.module:function"`` to a module-level
        function.  A string — not a callable — so cells pickle cleanly
        under any multiprocessing start method and hash stably.
    params:
        Keyword arguments for ``fn``.  Must be picklable; for caching
        they must also canonicalise (plain values and dataclasses).
    """

    key: str
    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class SweepStats:
    """Bookkeeping for one :meth:`SweepRunner.run` call.

    ``executed`` counts cells that actually *completed* execution (not
    merely started); ``retried`` counts re-attempts after failures;
    ``quarantined`` counts poison cells abandoned after exhausting
    their retry budget; ``resumed`` counts cells replayed from the
    sweep journal; ``degraded`` counts cells that fell back to serial
    execution because no worker pool could be built;
    ``storage_degraded`` counts completions that could not be
    journalled because the journal lost durability (their results are
    correct but a later ``--resume`` will recompute them).
    """

    cells: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    quarantined: int = 0
    resumed: int = 0
    degraded: int = 0
    storage_degraded: int = 0
    #: one :class:`~repro.parallel.supervisor.CellFailure` per poison cell
    failures: List[CellFailure] = field(default_factory=list)

    def accumulate(self, other: "SweepStats") -> None:
        """Fold *other* into this (for multi-sweep totals)."""
        self.cells += other.cells
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.retried += other.retried
        self.quarantined += other.quarantined
        self.resumed += other.resumed
        self.degraded += other.degraded
        self.storage_degraded += other.storage_degraded
        self.failures.extend(other.failures)

    def summary_line(self) -> str:
        """One-line human-readable account of the sweep."""
        parts = [f"{self.cells} cells", f"{self.executed} executed"]
        if self.cache_hits:
            parts.append(f"{self.cache_hits} cache hits")
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.retried:
            parts.append(f"{self.retried} retries")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.degraded:
            parts.append(f"{self.degraded} degraded to serial")
        if self.storage_degraded:
            parts.append(f"{self.storage_degraded} unjournaled (storage)")
        return ", ".join(parts)


def resolve_cell_fn(fn: str) -> Callable[..., Any]:
    """Import the module-level function a cell names."""
    module_name, sep, attr = fn.partition(":")
    if not sep or not attr:
        raise ValueError(
            f"cell fn must be 'module.path:function', got {fn!r}"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise ValueError(f"module {module_name!r} has no attribute {attr!r}") from exc


def execute_cell(fn: str, params: Mapping[str, Any]) -> str:
    """Run one cell and return its record as canonical JSON.

    Serialising inside the worker keeps the parent's collection loop
    cheap and guarantees the serial and parallel paths emit the same
    bytes (both go through :func:`canonical_dumps`).  A record that
    cannot be canonicalised losslessly (it would hit the ``repr``
    fallback and could never be decoded back) raises
    :class:`~repro.parallel.errors.UnserialisableRecord` instead of
    being silently cached as garbage.
    """
    record = resolve_cell_fn(fn)(**params)
    try:
        return canonical_dumps(record, strict=True)
    except UnserialisableValue as exc:
        raise UnserialisableRecord(fn, [exc.path]) from exc


def _worker(index: int, fn: str, params: Mapping[str, Any]) -> Tuple[int, str]:
    return index, execute_cell(fn, params)


class SweepRunner:
    """Executes sweep cells under supervision, optionally in parallel and/or cached.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every cell in the
        calling process — the serial reference, byte-identical to the
        worker pool that any larger value supervises.
    cache:
        Optional :class:`ResultCache`; ``None`` disables caching.
    mp_context:
        Optional multiprocessing context (e.g. from
        ``multiprocessing.get_context("spawn")``); defaults to the
        platform default.
    supervision:
        The :class:`SupervisionPolicy` every cell runs under (default
        ``SupervisionPolicy()``: two retries with backoff, no
        timeout).  A cell that exhausts its retries is quarantined
        (its slot in :meth:`run` is ``None``; see ``strict``).
    journal:
        Optional :class:`SweepJournal`.  Completions are durably
        appended; a journal opened with ``resume=True`` replays
        journalled cells (verified against the cache) without
        re-executing them.
    strict:
        Raise :class:`~repro.parallel.errors.PoisonCellError` as soon
        as any cell exhausts its retry budget instead of quarantining
        it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        mp_context: Optional[Any] = None,
        supervision: SupervisionPolicy = SupervisionPolicy(),
        journal: Optional[SweepJournal] = None,
        strict: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if journal is not None and cache is None and journal.resume:
            raise ValueError(
                "journal resume requires a ResultCache (the journal stores "
                "digests; the payload bytes live in the cache)"
            )
        self.jobs = jobs
        self.cache = cache
        self.mp_context = mp_context
        self.supervision = supervision
        self.journal = journal
        self.strict = strict
        #: stats of the most recent run() call
        self.last_stats = SweepStats()
        #: stats accumulated over every run() of this runner's lifetime
        self.total_stats = SweepStats()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, cells: Sequence[SweepCell]) -> List[Any]:
        """Execute *cells*; returns their records in submission order.

        Records are the cells' return values after a canonical-JSON
        round trip, so a record is the same object tree whether it was
        computed serially, in a worker, served from the cache, or
        replayed from the journal.  Quarantined poison cells yield
        ``None`` (consult :attr:`last_stats` for their failure log).
        """
        payloads = self.run_serialized(cells)
        return [None if p is None else json.loads(p) for p in payloads]

    def run_serialized(self, cells: Sequence[SweepCell]) -> List[Optional[str]]:
        """Like :meth:`run` but returns the canonical-JSON payloads.

        Refuses, before anything runs, cells that share a label:
        failures and journal entries name cells by label.
        """
        labels = Counter(cell.key for cell in cells)
        repeated = sorted(key for key, count in labels.items() if count > 1)
        if repeated:
            raise ValueError(f"sweep labels must be unique; repeated: {repeated}")
        stats = SweepStats(cells=len(cells))
        self.last_stats = stats
        payloads: List[Optional[str]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)
        pending: List[int] = []

        for i, cell in enumerate(cells):
            if self.cache is not None:
                keys[i] = cell_key(cell.fn, cell.params)
                if self._replay(i, cell, keys[i], payloads, stats):
                    continue
                hit = self.cache.get(keys[i])
                if hit is not None:
                    payloads[i] = hit
                    stats.cache_hits += 1
                    self._journal_entry(keys[i], hit, cell.key)
                    continue
            pending.append(i)

        quarantined: List[int] = []
        if pending:
            def complete(index: int, payload: str) -> None:
                payloads[index] = payload
                stats.executed += 1
                self._store(keys[index], payload)
                if keys[index] is not None:
                    self._journal_entry(keys[index], payload, cells[index].key)

            if self.jobs == 1:
                quarantined = run_serial_supervised(
                    cells, pending, self.supervision, execute_cell,
                    complete, stats=stats, strict=self.strict,
                )
            else:
                quarantined = PoolSupervisor(
                    cells, self.supervision, _worker, complete, stats,
                    jobs=self.jobs, mp_context=self.mp_context,
                    strict=self.strict,
                ).run(pending)

        missing = [
            i for i, p in enumerate(payloads)
            if p is None and i not in quarantined
        ]
        assert not missing, f"lost cells (no payload, not quarantined): {missing}"
        self.total_stats.accumulate(stats)
        return payloads

    # ------------------------------------------------------------------
    # journal replay
    # ------------------------------------------------------------------
    def _replay(
        self,
        index: int,
        cell: SweepCell,
        key: str,
        payloads: List[Optional[str]],
        stats: SweepStats,
    ) -> bool:
        """Serve cell *index* from the journal + cache, if possible."""
        if self.journal is None or not self.journal.resume:
            return False
        entry = self.journal.get(key)
        if entry is None:
            return False
        assert self.cache is not None  # enforced in __init__
        payload = self.cache.get(key)
        if payload is None or not entry.matches(payload):
            # The journal promises bytes the cache no longer holds
            # (rotted or pruned since the journal was written): the
            # promise is void, recompute the cell.
            return False
        payloads[index] = payload
        stats.resumed += 1
        return True

    def _journal_entry(self, key: str, payload: str, label: str) -> None:
        """Journal one completion; degrade honestly if the journal broke.

        A journal that lost durability (fsyncgate, ENOSPC) raises
        :class:`JournalWriteError` on every append.  The completion
        itself is safe — the payload is already in the caller's hands
        — so the sweep continues *unjournaled*: correct results now,
        honest recomputation on a later ``--resume``.  Counted per
        completion in ``storage_degraded`` so validation and summary
        lines can tell a full journal from a broken one.
        """
        if self.journal is None or self.journal.get(key) is not None:
            return
        try:
            self.journal.append(key, payload, label=label)
        except JournalWriteError as exc:
            stats = self.last_stats
            if stats.storage_degraded == 0:
                logger.warning(
                    "sweep journal lost durability (%s) — continuing "
                    "unjournaled; a later --resume will recompute these "
                    "cells", exc,
                )
            stats.storage_degraded += 1

    def _store(self, key: Optional[str], payload: Optional[str]) -> None:
        if self.cache is not None and key is not None and payload is not None:
            self.cache.put(key, payload)
