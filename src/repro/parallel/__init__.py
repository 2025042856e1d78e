"""Parallel sweep execution with supervision, caching and journalling.

Public surface:

* :class:`~repro.parallel.runner.SweepRunner` — supervised process-pool
  executor with a byte-identical serial reference, results in order;
* :class:`~repro.parallel.runner.SweepCell` — one unit of sweep work;
* :class:`~repro.parallel.supervisor.SupervisionPolicy` — per-cell
  timeouts, bounded retries with backoff, poison-cell quarantine;
* :class:`~repro.parallel.journal.SweepJournal` — fsync'd write-ahead
  journal of completed cells, enabling ``--resume``;
* :class:`~repro.parallel.cache.ResultCache` — content-addressed
  on-disk cache keyed by config + code version, integrity-checked;
* :mod:`~repro.parallel.errors` — the :class:`CellError` taxonomy for
  harness faults (crash / timeout / worker-lost / corrupt / poison).

Cell functions themselves live in :mod:`repro.parallel.cells` and are
resolved lazily by dotted path, keeping this package import-cycle-free
with :mod:`repro.experiments`.
"""

from repro.parallel.cache import (
    ResultCache,
    UnserialisableValue,
    canonical_dumps,
    cell_key,
    code_version,
)
from repro.parallel.errors import (
    CellCrash,
    CellError,
    CellTimeout,
    CorruptResult,
    PoisonCellError,
    UnserialisableRecord,
    WorkerLost,
)
from repro.parallel.journal import SweepJournal, payload_digest
from repro.parallel.runner import (
    SweepCell,
    SweepRunner,
    SweepStats,
    execute_cell,
    resolve_cell_fn,
)
from repro.parallel.supervisor import CellFailure, SupervisionPolicy

__all__ = [
    "CellCrash",
    "CellError",
    "CellFailure",
    "CellTimeout",
    "CorruptResult",
    "PoisonCellError",
    "ResultCache",
    "SupervisionPolicy",
    "SweepCell",
    "SweepJournal",
    "SweepRunner",
    "SweepStats",
    "UnserialisableRecord",
    "UnserialisableValue",
    "WorkerLost",
    "canonical_dumps",
    "cell_key",
    "code_version",
    "execute_cell",
    "payload_digest",
    "resolve_cell_fn",
]
