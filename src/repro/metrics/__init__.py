"""Measurement, tracing and reporting.

This package plays the role of the paper's measurement tooling:

* :mod:`repro.metrics.trace` — the per-CPU activity trace produced by
  the ``scpus`` tracing tool in the paper,
* :mod:`repro.metrics.paraver` — the analyses the authors ran with the
  Paraver tool (migration counts, burst statistics, execution views),
* :mod:`repro.metrics.stats` — response-time / execution-time
  aggregation per application class.
"""
