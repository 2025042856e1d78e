"""The one sanctioned wall-clock site of the repository.

Everything a simulation computes must be a pure function of
(config, seed); the single legitimate use of a host clock is telling
the human how long report generation took.  That read is concentrated
here — ``repro/experiments/clock.py`` is the only file on the
linter's ``wallclock-allow`` list (see ``[tool.repro.analysis]`` in
``pyproject.toml``), so DET101/DET102 flag every *direct* clock read
anywhere else.  They do not follow a value: a ``ReportClock()``
reading carried into other code draws no finding.  What catches a
host-clock value that reaches output is the cross-process
differential, ``tests/test_determinism.py``.

:class:`ReportClock` is *injected* (``generate_report(clock=...)``),
which buys two properties:

* **monotonic elapsed times** — ``perf_counter`` never jumps with NTP
  or DST, so "Generated in N s" can never be negative;
* **byte-reproducible tests** — a fake clock makes two report runs
  byte-identical, which is how the sanitizer's observe-don't-perturb
  guarantee is asserted.
"""

from __future__ import annotations

import time
from typing import Callable


class ReportClock:
    """Elapsed wall-clock time for human-facing report footers.

    Parameters
    ----------
    now:
        Zero-argument callable returning seconds on a monotonic scale.
        Defaults to :func:`time.perf_counter`; tests inject a fake.
    """

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self._now = now
        self._started = self._now()

    def restart(self) -> None:
        """Reset the elapsed-time origin to now."""
        self._started = self._now()

    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return self._now() - self._started


class FakeClock:
    """Deterministic stand-in: advances a fixed step per reading.

    Used by tests that need two runs to report identical elapsed
    times (the byte-identity guard), and handy for demos.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.step = step
        self._reading = 0.0

    def __call__(self) -> float:
        self._reading += self.step
        return self._reading
