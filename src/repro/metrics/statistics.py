"""Small statistics toolbox for experiment results.

Scheduling evaluations report more than means: the paper itself uses
averages per class, but a credible reproduction should expose the
spread across seeds and jobs.  This module provides pure-Python
summary statistics (no third-party dependencies in the core library):

* :func:`percentile` — linear-interpolation percentiles,
* :func:`summary` — mean / std / min / median / p95 / max,
* :func:`confidence_interval` — a normal-approximation 95% CI of the
  mean (adequate for the sample sizes the harnesses produce),
* :func:`bounded_slowdown` — the standard job-scheduling metric
  ``max(1, (wait + exec) / max(exec, tau))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.metrics.stats import fold_sum

#: Threshold (seconds) below which execution times are clamped in the
#: bounded-slowdown metric, so tiny jobs do not dominate it.
DEFAULT_SLOWDOWN_TAU = 10.0


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) with linear interpolation.

    Raises
    ------
    ValueError
        If *values* is empty or *q* is outside [0, 100].
    """
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    a, b = ordered[low], ordered[high]
    # a + (b - a) * f cannot underflow below a the way a*(1-f) + b*f
    # can on denormals; clamping to the bracketing pair keeps the
    # result monotone in q.
    value = a + (b - a) * fraction
    return min(max(value, a), b)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (ValueError on empty input).

    Sums via :func:`repro.metrics.stats.fold_sum` so the result is
    reproducible by a one-sample-at-a-time streaming fold on every
    interpreter (the ``sum`` builtin is compensated on CPython 3.12+).
    """
    if not values:
        raise ValueError("cannot take the mean of no values")
    return fold_sum(values) / len(values)


def std(values: Sequence[float]) -> float:
    """Sample standard deviation (0.0 for fewer than two values)."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    return math.sqrt(fold_sum((v - m) ** 2 for v in values) / (n - 1))


@dataclass(frozen=True)
class Summary:
    """Distribution summary of one metric."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p95: float
    maximum: float

    def as_row(self, label: str) -> List[object]:
        """Row for :func:`repro.metrics.stats.format_table`."""
        return [
            label, self.count, round(self.mean, 1), round(self.std, 1),
            round(self.minimum, 1), round(self.median, 1),
            round(self.p95, 1), round(self.maximum, 1),
        ]


def summary(values: Sequence[float]) -> Summary:
    """Summarise a sample (ValueError on empty input)."""
    if not values:
        raise ValueError("cannot summarise no values")
    return Summary(
        count=len(values),
        mean=mean(values),
        std=std(values),
        minimum=min(values),
        median=percentile(values, 50),
        p95=percentile(values, 95),
        maximum=max(values),
    )


def confidence_interval(values: Sequence[float], z: float = 1.96) -> Tuple[float, float]:
    """Normal-approximation confidence interval of the mean.

    With fewer than two samples the interval collapses to the single
    value.
    """
    m = mean(values)
    if len(values) < 2:
        return (m, m)
    half = z * std(values) / math.sqrt(len(values))
    return (m - half, m + half)


def bounded_slowdown(
    wait_time: float, execution_time: float, tau: float = DEFAULT_SLOWDOWN_TAU
) -> float:
    """Bounded slowdown of one job (Feitelson's standard metric)."""
    if wait_time < 0 or execution_time < 0:
        raise ValueError("times must be >= 0")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    response = wait_time + execution_time
    return max(1.0, response / max(execution_time, tau))


def mean_bounded_slowdown(
    records, tau: float = DEFAULT_SLOWDOWN_TAU
) -> float:
    """Mean bounded slowdown over :class:`JobRecord`-like objects."""
    values = [
        bounded_slowdown(r.wait_time, r.execution_time, tau) for r in records
    ]
    if not values:
        raise ValueError("no records")
    return mean(values)
