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

Import every name from its defining module.  The three names below
are re-exported only because ``perfbench/workloads.py`` imports them
from here, and the benchmark harness changes only with its baselines.
"""

from repro.parallel.cache import ResultCache  # perfbench imports it from here
from repro.parallel.journal import SweepJournal  # perfbench imports it from here
from repro.parallel.runner import SweepRunner  # perfbench imports it from here
