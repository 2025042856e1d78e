"""The runtime layer of the determinism sanitizer: event-race detection.

The DES engine orders events by ``(time, priority, seq)``.  ``seq`` —
the insertion sequence — always breaks the tie, so every run is
deterministic; but when two events at the same timestamp share the
same priority, their relative order is decided *only* by which was
scheduled first.  That is the discrete-event analogue of a data race:
the code never declared an order, and any refactor that reorders the
scheduling calls silently reorders the simulation.

:class:`RaceDetector` attaches to a
:class:`~repro.sim.engine.Simulator` as an observer.  It groups events
— fired ones, and the absorbed iteration ends the engine hands its
``on_absorbed`` — into same-timestamp cohorts, verifies that the declared
tie-break key ``(priority, seq)`` totally orders each cohort (it must,
by construction — a violation indicates engine corruption), and
classifies every priority tie:

* **ambiguous** — events with *different callbacks* collide on
  ``(time, priority)``: heterogeneous actions whose relative order is
  an accident of insertion.  Reported as an error finding.
* **tie** — events running the *same callback* (e.g. two jobs ending
  an iteration in the same instant) collide: still sequence-ordered,
  usually benign, reported as a warning so refactors know the hazard
  exists.

The detector only observes: it never reorders, delays or perturbs
events, so a sanitized run is byte-identical to an unsanitized one.
The report format mirrors :class:`~repro.parallel.runner.SweepStats`
(counters + ``summary_line()`` + ``accumulate()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


def callback_identity(callback: Any) -> str:
    """A stable, human-readable identity for an event callback."""
    func = getattr(callback, "__func__", callback)
    name = getattr(func, "__qualname__", None)
    if name is None:
        name = type(callback).__qualname__
    return name


@dataclass(frozen=True)
class RaceFinding:
    """One same-(time, priority) collision observed during a run."""

    run: str
    time: float
    priority: int
    severity: str  # "error" (ambiguous) or "warning" (homogeneous tie)
    #: ``(callback identity, label)`` of each colliding event, in
    #: fired (sequence) order.
    events: Tuple[Tuple[str, str], ...]

    def describe(self) -> str:
        """One-line human-readable account of the collision."""
        kind = "ambiguous cohort" if self.severity == "error" else "sequence tie"
        members = ", ".join(
            f"{identity}({label!r})" if label else identity
            for identity, label in self.events
        )
        run = f" run={self.run}" if self.run else ""
        return (
            f"{kind} at t={self.time:.6f} priority={self.priority}"
            f"{run}: order decided by insertion only — [{members}]"
        )


@dataclass
class RaceStats:
    """Bookkeeping for one (or several accumulated) sanitized runs.

    ``events`` counts observed events, fired or absorbed (the
    simulator's logical events); ``cohorts`` counts
    same-timestamp groups of two or more events; ``ties`` counts
    priority groups ordered only by insertion sequence; ``ambiguous``
    counts the subset whose members run different callbacks.
    """

    runs: int = 0
    events: int = 0
    cohorts: int = 0
    ties: int = 0
    ambiguous: int = 0
    #: recorded collisions, capped at the detector's ``max_findings``
    findings: List[RaceFinding] = field(default_factory=list)

    def accumulate(self, other: "RaceStats") -> None:
        """Fold *other* into this (for multi-run totals)."""
        self.runs += other.runs
        self.events += other.events
        self.cohorts += other.cohorts
        self.ties += other.ties
        self.ambiguous += other.ambiguous
        self.findings.extend(other.findings)

    def summary_line(self) -> str:
        """One-line human-readable account, mirroring ``SweepStats``."""
        parts = [
            f"{self.runs} run(s)",
            f"{self.events} events",
            f"{self.cohorts} same-time cohorts",
        ]
        if self.ties:
            parts.append(f"{self.ties} sequence ties")
        if self.ambiguous:
            parts.append(f"{self.ambiguous} ambiguous cohorts")
        if not self.ties and not self.ambiguous:
            parts.append("no order hazards")
        return ", ".join(parts)

    @property
    def error_findings(self) -> List[RaceFinding]:
        """The ambiguous (error-severity) collisions only."""
        return [f for f in self.findings if f.severity == "error"]


class RaceDetector:
    """Observes a :class:`~repro.sim.engine.Simulator` for event races.

    Attach with ``sim.attach_observer(detector)`` (done by the
    experiment harness under ``--sanitize``).  One detector may watch
    several runs in sequence; call :meth:`begin_run` at each run start
    so cohorts never straddle two simulations that happen to share
    timestamps.

    Parameters
    ----------
    max_findings:
        Cap on recorded :class:`RaceFinding` objects (counters keep
        counting past it); the first *N* in firing order are kept, so
        the record set is deterministic.
    """

    def __init__(self, max_findings: int = 100) -> None:
        self.max_findings = max_findings
        self.stats = RaceStats()
        self._run_label = ""
        self._cohort: List[Tuple[int, int, str, str]] = []
        self._cohort_time: Optional[float] = None

    # ------------------------------------------------------------------
    # observer protocol (called by the engine)
    # ------------------------------------------------------------------
    def begin_run(self, label: str = "") -> None:
        """Start a new simulation: close any pending cohort."""
        self._flush()
        self._run_label = label
        self.stats.runs += 1

    def on_event(self, event: Any) -> None:
        """Record one fired event (engine observer hook)."""
        self.stats.events += 1
        time = event.time
        # Exact float match is the point here: the engine fires events
        # grouped by identical timestamps and never mutates Event.time,
        # so cohort membership is exact equality by construction.
        same = self._cohort_time is not None and time == self._cohort_time  # repro: allow(DET106): cohort grouping mirrors the engine's exact (time, priority, seq) key; an epsilon would merge distinct cohorts
        if not same:
            self._flush()
            self._cohort_time = time
        self._cohort.append(
            (event.priority, event.seq, callback_identity(event.callback), event.label)
        )

    #: an iteration end absorbed without firing (engine observer hook)
    #: joins its cohort exactly as the event it stands for would have
    on_absorbed = on_event

    def finish(self) -> RaceStats:
        """Close the pending cohort and return the stats."""
        self._flush()
        return self.stats

    # ------------------------------------------------------------------
    # cohort analysis
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        cohort, self._cohort = self._cohort, []
        time, self._cohort_time = self._cohort_time, None
        if len(cohort) < 2 or time is None:
            return
        self.stats.cohorts += 1
        # The tie-break key must totally order the cohort: events are
        # fired in heap order, so (priority, seq) must be strictly
        # increasing.  A violation means the engine's invariant broke.
        for before, after in zip(cohort, cohort[1:]):
            if before[:2] >= after[:2]:
                raise AssertionError(
                    f"engine ordering invariant broken at t={time}: "
                    f"{before} fired before {after}"
                )
        groups: dict = {}
        for priority, seq, identity, label in cohort:
            groups.setdefault(priority, []).append((seq, identity, label))
        for priority in sorted(groups):
            members = groups[priority]
            if len(members) < 2:
                continue
            identities = {identity for _, identity, _ in members}
            severity = "error" if len(identities) > 1 else "warning"
            if severity == "error":
                self.stats.ambiguous += 1
            else:
                self.stats.ties += 1
            if len(self.stats.findings) < self.max_findings:
                self.stats.findings.append(RaceFinding(
                    run=self._run_label,
                    time=time,
                    priority=priority,
                    severity=severity,
                    events=tuple(
                        (identity, label) for _, identity, label in members
                    ),
                ))
