"""Deterministic checkpoint/restore for long-running simulations.

Public surface:

* :class:`~repro.checkpoint.session.SimulationSession` — one workload
  execution as a saveable/restorable object graph;
* :class:`~repro.checkpoint.session.CheckpointPlan` — autosnapshot
  cadence (every N logical events) and target path;
* :func:`~repro.checkpoint.format.write_snapshot` /
  :func:`~repro.checkpoint.format.read_snapshot` /
  :func:`~repro.checkpoint.format.read_meta` — the versioned,
  sha256-checksummed, atomically-written envelope;
* :mod:`~repro.checkpoint.errors` — the typed failure taxonomy
  (corrupt / version / mismatch / write);
* :func:`~repro.checkpoint.session.config_digest` — the config
  fingerprint restore matches against.

See ``docs/robustness.md`` for the recovery matrix and
``docs/static-analysis.md`` for replay-driven race bisection.

Import every name from its defining module.  ``CheckpointPlan`` is
re-exported only because ``perfbench/workloads.py`` imports it from
here, and the benchmark harness changes only with its baselines.
"""

from repro.checkpoint.session import CheckpointPlan  # perfbench imports it from here
