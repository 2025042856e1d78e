"""Speedup-curve models.

A speedup curve maps a processor count ``p`` (possibly fractional, for
time-shared execution under the IRIX model) to the speedup ``S(p)``
relative to sequential execution.  Efficiency is ``S(p) / p``.

Three families are provided:

* :class:`AmdahlSpeedup` — the classic analytic model, used for
  synthetic experiments and property tests.
* :class:`TabulatedSpeedup` — monotone piecewise-cubic interpolation
  through measured control points.  This is what the application
  catalog uses to reproduce the measured curves of the paper's Fig. 3,
  including swim's superlinear region.
* :class:`DegradingSpeedup` — a wrapper that makes speedup *decrease*
  past a saturation point (contention), used for apsi-like codes.

The interpolation is a pure-Python implementation of the
Fritsch-Carlson monotone cubic (PCHIP) scheme so that the core library
has no third-party dependencies.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.sim.slots import set_slot_state, slot_state


#: Cap on memoized (procs -> speedup) entries per curve instance.  The
#: space-shared policies only ever evaluate integer allocations, but the
#: IRIX time-sharing model produces fractional processor counts, so the
#: cache is bounded defensively (cleared wholesale when full).
_SPEEDUP_CACHE_LIMIT = 4096


class SpeedupCurve:
    """Abstract base class for speedup models.

    Subclasses implement :meth:`_compute`; the public :meth:`speedup`
    memoizes it per (curve instance, procs).  Curve instances are
    shared per application by the catalog, so this is effectively a
    per-(app, procs) cache — the same allocations are re-evaluated on
    every iteration, report and policy decision, which made repeated
    curve evaluation one of the simulator's hottest paths.

    Subclasses set ``name``, the human-readable name used in reports.
    """

    __slots__ = ("name", "_speedup_cache")

    def speedup(self, procs: float) -> float:
        """Return the speedup with ``procs`` processors (procs >= 0)."""
        try:
            cache = self._speedup_cache
        except AttributeError:
            cache = self._speedup_cache = {}
        value = cache.get(procs)
        if value is None:
            if len(cache) >= _SPEEDUP_CACHE_LIMIT:
                cache.clear()
            value = cache[procs] = self._compute(procs)
        return value

    def _compute(self, procs: float) -> float:
        """Uncached speedup evaluation; implemented by subclasses."""
        raise NotImplementedError

    def __getstate__(self) -> Dict[str, Any]:
        # The memo cache is derived state: dropping it keeps checkpoint
        # envelopes small and canonical (its insertion order depends on
        # evaluation history).  speedup() lazily rebuilds it.
        state = slot_state(self)
        state.pop("_speedup_cache", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        set_slot_state(self, state)

    def efficiency(self, procs: float) -> float:
        """Return ``S(p)/p``; defined as 1.0 at ``p == 0`` by convention."""
        if procs <= 0:
            return 1.0
        return self.speedup(procs) / procs

    def iteration_time(self, seq_time: float, procs: float) -> float:
        """Time of a parallel region that takes ``seq_time`` sequentially."""
        if seq_time < 0:
            raise ValueError(f"sequential time must be >= 0, got {seq_time}")
        speedup = self.speedup(procs)
        if speedup <= 0:
            raise ValueError(f"speedup model returned non-positive value at p={procs}")
        return seq_time / speedup

    def is_superlinear_at(self, procs: float) -> bool:
        """True when the curve exceeds the ideal linear speedup at ``procs``."""
        return self.speedup(procs) > procs + 1e-9

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class AmdahlSpeedup(SpeedupCurve):
    """Amdahl's-law speedup: ``S(p) = 1 / (f + (1 - f) / p)``.

    Parameters
    ----------
    serial_fraction:
        The fraction ``f`` of the work that cannot be parallelised.
        ``f = 0`` gives ideal linear speedup.
    """

    __slots__ = ("serial_fraction",)

    def __init__(self, serial_fraction: float, name: str = "amdahl") -> None:
        if not 0.0 <= serial_fraction <= 1.0:
            raise ValueError(f"serial fraction must be in [0, 1], got {serial_fraction}")
        self.serial_fraction = serial_fraction
        self.name = name

    def _compute(self, procs: float) -> float:
        if procs <= 0:
            return 0.0
        if procs < 1.0:
            # Fewer than one processor means time-shared execution
            # slower than sequential: scale linearly.
            return procs
        f = self.serial_fraction
        return 1.0 / (f + (1.0 - f) / procs)


def _pchip_slopes(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
    """Fritsch-Carlson monotone slopes for control points (xs, ys)."""
    n = len(xs)
    deltas = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1)]
    slopes = [0.0] * n
    slopes[0] = deltas[0]
    slopes[-1] = deltas[-1]
    for i in range(1, n - 1):
        if deltas[i - 1] * deltas[i] <= 0:
            slopes[i] = 0.0
        else:
            # Weighted harmonic mean preserves monotonicity.
            w1 = 2 * (xs[i + 1] - xs[i]) + (xs[i] - xs[i - 1])
            w2 = (xs[i + 1] - xs[i]) + 2 * (xs[i] - xs[i - 1])
            slopes[i] = (w1 + w2) / (w1 / deltas[i - 1] + w2 / deltas[i])
    return slopes


class TabulatedSpeedup(SpeedupCurve):
    """Monotone cubic interpolation through measured (procs, speedup) points.

    Beyond the last control point, the curve is extrapolated flat
    (saturated) — a conservative choice that matches how measured
    speedup curves behave past the largest measured machine size.

    Parameters
    ----------
    points:
        Control points as ``(procs, speedup)`` pairs.  Must include
        ``(1, 1.0)`` or start at procs >= 1; procs values must be
        strictly increasing.
    """

    __slots__ = ("_xs", "_ys", "_slopes")

    def __init__(self, points: Sequence[Tuple[float, float]], name: str = "tabulated") -> None:
        if len(points) < 2:
            raise ValueError("need at least two control points")
        xs = [float(p) for p, _ in points]
        ys = [float(s) for _, s in points]
        for i in range(1, len(xs)):
            if xs[i] <= xs[i - 1]:
                raise ValueError(f"processor counts must be strictly increasing: {xs}")
        for x, y in zip(xs, ys):
            if x < 1.0:
                raise ValueError(f"control points must have procs >= 1, got {x}")
            if y <= 0.0:
                raise ValueError(f"speedups must be positive, got {y} at p={x}")
        if abs(xs[0] - 1.0) > 1e-9 or abs(ys[0] - 1.0) > 1e-9:
            raise ValueError("the first control point must be (1, 1.0)")
        self._xs = xs
        self._ys = ys
        self._slopes = _pchip_slopes(xs, ys)
        self.name = name

    @property
    def control_points(self) -> List[Tuple[float, float]]:
        """The (procs, speedup) control points this curve interpolates."""
        return list(zip(self._xs, self._ys))

    def _compute(self, procs: float) -> float:
        if procs <= 0:
            return 0.0
        xs, ys = self._xs, self._ys
        if procs < xs[0]:
            # Sub-sequential allocation (time-shared fraction of a CPU).
            return procs * ys[0] / xs[0]
        if procs >= xs[-1]:
            return ys[-1]
        # Binary search for the containing interval.
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid] <= procs:
                lo = mid
            else:
                hi = mid
        h = xs[hi] - xs[lo]
        t = (procs - xs[lo]) / h
        # Cubic Hermite basis.
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return (
            h00 * ys[lo]
            + h10 * h * self._slopes[lo]
            + h01 * ys[hi]
            + h11 * h * self._slopes[hi]
        )


class DegradingSpeedup(SpeedupCurve):
    """A curve that decays past a saturation point.

    Models codes like apsi where adding processors beyond a small count
    actively *hurts* (synchronisation and memory contention).  The base
    curve applies up to ``peak_procs``; beyond it, speedup decays
    geometrically with each extra processor.

    Parameters
    ----------
    base:
        Underlying curve used up to the peak.
    peak_procs:
        Processor count after which degradation starts.
    decay_per_proc:
        Fractional loss of speedup per processor past the peak
        (e.g. 0.005 means 0.5% loss per extra processor).
    """

    __slots__ = ("base", "peak_procs", "decay_per_proc")

    def __init__(
        self,
        base: SpeedupCurve,
        peak_procs: float,
        decay_per_proc: float,
        name: str = "degrading",
    ) -> None:
        if peak_procs < 1:
            raise ValueError(f"peak_procs must be >= 1, got {peak_procs}")
        if not 0.0 <= decay_per_proc < 1.0:
            raise ValueError(f"decay_per_proc must be in [0, 1), got {decay_per_proc}")
        self.base = base
        self.peak_procs = peak_procs
        self.decay_per_proc = decay_per_proc
        self.name = name

    def _compute(self, procs: float) -> float:
        if procs <= self.peak_procs:
            return self.base.speedup(procs)
        peak = self.base.speedup(self.peak_procs)
        excess = procs - self.peak_procs
        return max(peak * (1.0 - self.decay_per_proc) ** excess, 1e-6)
