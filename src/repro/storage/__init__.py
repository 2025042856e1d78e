"""Fault-injectable storage layer + crash-consistency torture harness.

Modules
-------
* :mod:`repro.storage.plan` — deterministic, seeded fault schedules
  (:class:`FailPlan` / :class:`FailRule`).
* :mod:`repro.storage.layer` — the IO primitives every durability
  protocol writes through (:class:`StorageLayer`), op tracing, and
  honest fsync-failure semantics.
* :mod:`repro.storage.journal` — :class:`RecordJournal`, the
  write-ahead journal machinery behind the arrival and sweep journals.
* :mod:`repro.storage.torture` — the crash-state enumerator: every
  distinct filesystem a traced run could leave behind.
* :mod:`repro.storage.protocols` — the protocol harnesses (journal,
  checkpoint, cache, status, and the whole serve service) and their
  recovery invariants, driven by ``repro torture``.
"""
