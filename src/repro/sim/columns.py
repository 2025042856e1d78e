"""The SelfAnalyzer's running mean, and the backend name benchmarks stamp.

:class:`RunningMean` folds a sample stream into a running sum, count
and largest processor count instead of retaining the samples.
``BACKEND`` names the one implementation there is; perfbench stamps it
into every result row.
"""
from __future__ import annotations

#: The implementation in use; stamped into benchmark rows.
BACKEND = "python"


class RunningMean:
    """Running-sum fold of a sample stream (sum / count / max-procs).

    Replaces the SelfAnalyzer's per-sample list append + whole-list
    ``sum()`` at baseline close.  Accumulating ``total += x`` per
    sample is bit-identical to an explicit left fold over the retained
    list (``acc = 0.0; acc = acc + x`` per element) — the parity suite
    checks this with NaN/inf/-0.0 payloads.  It is *not* guaranteed to
    match the ``sum()`` builtin on every interpreter: CPython 3.12+
    uses Neumaier compensated summation for floats, and NaN-payload
    propagation differs between the two foldings even earlier.  Every
    consumer that needs fold-equality (``repro.metrics``) therefore
    folds through :func:`repro.metrics.stats.fold_sum`, never the
    builtin.
    """

    __slots__ = ("total", "count", "max_procs")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.max_procs = 0

    def add(self, value: float, procs: int) -> None:
        self.total += value
        self.count += 1
        if procs > self.max_procs:
            self.max_procs = procs

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of zero samples")
        return self.total / self.count

    def clear(self) -> None:
        self.total = 0.0
        self.count = 0
        self.max_procs = 0
