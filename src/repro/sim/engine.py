"""Deterministic discrete-event engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Events
are callbacks scheduled at absolute simulation times.  Two events at
the same time are ordered first by an explicit integer *priority*
(lower runs first) and then by insertion order, which makes every run
fully deterministic for a given seed and schedule.

Every pending event is one list in one heap,
``[time, priority, seq, target, args, label]``, so :mod:`heapq`
compares the ``(time, priority, seq)`` key in C.  ``target`` is the
callback, or for an *absorbable* event (``args`` None) its owner; it
becomes None once the entry is cancelled or popped.  Cancelling only
clears it (lazy deletion); the heap drops dead entries when they reach
the top or when :meth:`Simulator.compact` sweeps them.  ``label`` is
the event's text, or for an absorbable event an int index its owner
renders as text (``owner.event_label(index)``) only when a label is
read: by :meth:`Simulator.live_labels` or in an observer's
:class:`Event`.

An absorbable event (:meth:`Simulator.schedule_absorbable`) is an
iteration end of :mod:`repro.runtime.nthlib`.  When its turn comes the
engine first asks its owner to ``absorb()`` it; if that finishes the
work, nothing fires: ``events_fired`` does not count it, and an
observer sees it only through its optional ``on_absorbed``.  Otherwise
the owner's ``fire()`` runs as an ordinary event under the key it
already had.  A run of absorbed iteration ends closed by one that
fires is an *iteration span* (docs/performance.md).

Example
-------
>>> sim = Simulator()
>>> seen = []
>>> _ = sim.schedule_at(1.0, lambda: seen.append("a"))
>>> _ = sim.schedule_at(0.5, lambda: seen.append("b"))
>>> sim.run()
1.0
>>> seen
['b', 'a']
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Union

from repro.sim.slots import set_slot_state, slot_state

#: compaction threshold: the heap physically drops cancelled entries
#: once it holds at least this many and live events make up less than
#: half of them.  Keeps long-running simulations (and their snapshots)
#: from accumulating unbounded cancelled-event garbage while leaving
#: short runs alone.
_COMPACT_MIN_HEAP = 64


def _label(target: Any, label: Union[str, int]) -> str:
    """An entry's label as a reader sees it (see the module docstring)."""
    return label if isinstance(label, str) else target.event_label(label)


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Typical causes are scheduling an event in the past or running a
    simulator that has been explicitly stopped with an error.
    """


class Event(NamedTuple):
    """A fired event as an attached observer sees it.

    Built only for an observer; the heap holds plain lists.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[..., Any]
    args: tuple
    label: str


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock.

    The simulator is deliberately small: it owns the clock and the
    event heap, and nothing else.  All domain state lives in the
    components that schedule callbacks on it.

    Parameters
    ----------
    start_time:
        Initial clock value (defaults to 0).
    """

    #: Default priority for ordinary events.
    PRIORITY_NORMAL = 100
    #: Priority for bookkeeping that must run before normal events.
    PRIORITY_EARLY = 10
    #: Priority for events that must observe everything else first.
    PRIORITY_LATE = 1000

    __slots__ = (
        "_now", "_heap", "_live", "_seq", "_running", "_stopped", "_events_fired",
        "_absorbed", "_observer", "_on_absorbed", "_ckpt_hook",
        "_ckpt_every_events", "_ckpt_next_events",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: every pending entry ``[time, priority, seq, target, args, label]``
        #: (an absorbable entry's label may be an index its owner renders)
        self._heap: List[List[Any]] = []
        #: entries in the heap whose target is set
        self._live = 0
        #: the next insertion sequence number (a plain int: itertools
        #: objects stop pickling in Python 3.14)
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_fired = 0
        #: absorbable events that completed without firing
        self._absorbed = 0
        self._observer: Optional[Any] = None
        #: the observer's optional ``on_absorbed`` (None without one)
        self._on_absorbed: Optional[Callable[[Event], None]] = None
        self._ckpt_hook: Optional[Callable[[], None]] = None
        self._ckpt_every_events = 0
        #: logical-event count at which the hook is next due (armed by
        #: set_checkpoint_hook)
        self._ckpt_next_events = 0

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle support: host-side attachments are not state.

        Observers (the ``--sanitize`` race detector) and the
        checkpoint hook belong to the *process* driving the
        simulation, not to the simulation itself — a snapshot taken
        mid-``run`` restores as a quiescent, runnable simulator with
        neither attached (re-attach after restore if wanted).
        """
        state = slot_state(self)
        state["_running"] = False
        state["_stopped"] = False
        state["_observer"] = None
        state["_on_absorbed"] = None
        state["_ckpt_hook"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        set_slot_state(self, state)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for diagnostics).

        Absorbed events are not counted; see :attr:`logical_events`.
        """
        return self._events_fired

    @property
    def logical_events(self) -> int:
        """Events fired plus absorbable events completed without firing.

        The count the per-iteration path would have fired: one per
        iteration end however it completed.  The autosnapshot cadence
        counts these, so it keeps its meaning.
        """
        return self._events_fired + self._absorbed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued (absorbable ones included)."""
        return self._live

    def live_labels(self) -> List[str]:
        """Labels of every live (pending) event, sorted.

        Diagnostics surface: the invariant oracle uses this to tell a
        queued job with a pending arrival/requeue event from a lost
        one, without popping anything.
        """
        return sorted(
            _label(entry[3], entry[5]) for entry in self._heap if entry[3] is not None
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> List[Any]:
        """Schedule *callback(*args)* at absolute time *time*.

        Returns an opaque handle for :meth:`cancel`.

        Raises
        ------
        SimulationError
            If *time* lies in the past.
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [max(time, self._now), priority, seq, callback, args, label]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> List[Any]:
        """Schedule *callback(*args)* after a non-negative *delay*.

        Fast path of :meth:`schedule_at`: ``now + delay`` can never lie
        in the past.  Returns an opaque handle for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, priority, seq, callback, args, label]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_absorbable(
        self, delay: float, owner: Any, label: Union[str, int] = ""
    ) -> List[Any]:
        """Schedule an event that may complete without firing.

        It is ordered exactly like ``schedule_after(delay, owner.fire,
        label=label)``: same time, :attr:`PRIORITY_NORMAL`, the next
        insertion sequence number.  An int *label* is stored as it is
        and read as ``owner.event_label(label)``, so an owner that
        schedules one event per iteration formats no text for it.
        When its turn comes the clock advances to it and
        ``owner.absorb()`` runs first.  If it
        returns True the work is done: nothing fires and
        :attr:`events_fired` does not count it (the observer's
        ``on_absorbed`` and the checkpoint hook still see it, see
        :attr:`logical_events`).
        Otherwise ``owner.fire()`` runs as an ordinary event under the
        same key; ``absorb`` must have changed nothing in that case.
        The owner holds whatever both calls need, and has at most one
        absorbable event pending; the handle's first item is its time.
        Returns a handle for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} for event {_label(owner, label)!r}"
            )
        # pushed inline, as in schedule_after: a shared helper would add
        # a call to every iteration end (tests/test_call_budget.py)
        seq = self._seq
        self._seq = seq + 1
        entry = [self._now + delay, self.PRIORITY_NORMAL, seq, owner, None, label]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: List[Any]) -> None:
        """Cancel a previously scheduled (or absorbable) event.

        Cancelling an event that already fired (or was already
        cancelled) is a no-op — the live-event count is only adjusted
        for events genuinely still in the heap.
        """
        if entry[3] is None:
            return
        entry[3] = None
        self._live -= 1
        size = len(self._heap)
        if size >= _COMPACT_MIN_HEAP and self._live * 2 < size:
            self.compact()

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def attach_observer(self, observer: Any) -> None:
        """Attach an event observer (e.g. the ``--sanitize`` detector).

        The observer's ``on_event(event)`` is called with an
        :class:`Event` for every event the run loop fires, *before*
        the event's callback executes.  Its optional
        ``on_absorbed(event)`` is called after each absorbable event
        that completed without firing, with the event it stood for:
        ``Event(time, PRIORITY_NORMAL, seq, owner.fire, (), label)``.
        Every label an observer receives is text, rendered from an
        absorbable entry's index where it holds one.
        Observers must only observe: they must not schedule or cancel
        — the engine's byte-identity contract is that a run with an
        observer equals a run without one.  One observer at a time;
        ``None``-safe dispatch keeps the unobserved hot path to a
        single attribute check per event.
        """
        self._observer = observer
        self._on_absorbed = getattr(observer, "on_absorbed", None)

    def detach_observer(self) -> None:
        """Remove the attached observer, if any."""
        self._observer = None
        self._on_absorbed = None

    def compact(self) -> None:
        """Drop every cancelled entry from the heap now.

        Lazy deletion trades memory for O(1) cancels; this runs
        automatically when the dead fraction grows large and from
        :meth:`repro.checkpoint.session.SimulationSession.save`, so
        snapshots never carry cancelled-event garbage.  It works in
        place, because a cancel or a snapshot may come from inside the
        run loop, which holds the heap.  Pop order is unaffected: the
        key is a total order.  The live count must equal the survivors.
        """
        heap = self._heap
        if self._live == len(heap):
            return
        heap[:] = [entry for entry in heap if entry[3] is not None]
        heapq.heapify(heap)
        if self._live != len(heap):
            raise SimulationError(
                f"event-heap compaction broke the live invariant: "
                f"_live={self._live} but {len(heap)} live events remain"
            )

    def set_checkpoint_hook(self, hook: Callable[[], None], every_events: int) -> None:
        """Install *hook* to run periodically **between** events.

        The hook fires after an event's callback returns (or an
        absorbable event completes without firing), once
        *every_events* :attr:`logical_events` have passed since the
        last checkpoint.  The cadence is a positive count;
        :class:`~repro.checkpoint.session.CheckpointPlan` holds that rule.
        Firing between events means the hook observes a well-defined
        prefix of the event history — the foundation of the
        checkpoint subsystem's byte-identical restore guarantee.  The
        hook must not schedule, cancel or mutate simulation state.
        Like observers, the hook is process-local: it is dropped when
        the simulator is pickled.
        """
        self._ckpt_hook = hook
        self._ckpt_every_events = every_events
        self._ckpt_next_events = self.logical_events + every_events

    def clear_checkpoint_hook(self) -> None:
        """Remove the checkpoint hook, if any."""
        self._ckpt_hook = None

    def _loop(self, until: Optional[float], n_events: Optional[int],
              max_events: Optional[int]) -> int:
        """The run loop behind :meth:`step` and :meth:`run`.

        Pops entries in key order until the heap drains, the next live
        one lies after *until*, *n_events* have fired, or :meth:`stop`;
        returns the number fired.  An entry's target is cleared before
        its callback or its owner's ``absorb()`` runs, so cancelling
        the event in flight is a no-op.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        limit = sys.maxsize if n_events is None else n_events
        cap = sys.maxsize if max_events is None else max_events
        fired = 0
        try:
            while heap and fired < limit and not self._stopped:
                entry = heap[0]
                target = entry[3]
                if target is None:
                    heappop(heap)
                    continue
                now = entry[0]
                if now > horizon:
                    break
                heappop(heap)
                entry[3] = None
                self._live -= 1
                self._now = now
                args = entry[4]
                if args is None and target.absorb():
                    self._absorbed += 1
                    if self._on_absorbed is not None:
                        # the entry still holds the label of the end it
                        # stood for, though the owner has moved on
                        self._on_absorbed(Event(
                            now, entry[1], entry[2], target.fire, (), _label(target, entry[5])
                        ))
                else:
                    owner = target
                    if args is None:
                        target = target.fire
                        args = ()
                    self._events_fired += 1
                    fired += 1
                    if fired > cap:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely a runaway schedule"
                        )
                    if self._observer is not None:
                        self._observer.on_event(Event(
                            now, entry[1], entry[2], target, args, _label(owner, entry[5])
                        ))
                    target(*args)
                if (self._ckpt_hook is not None
                        and self._events_fired + self._absorbed >= self._ckpt_next_events):
                    self._checkpoint()
        finally:
            self._running = False
        return fired

    def _checkpoint(self) -> None:
        hook = self._ckpt_hook
        assert hook is not None
        hook()
        self._ckpt_next_events = self.logical_events + self._ckpt_every_events

    def step(self, n_events: int = 1) -> int:
        """Fire up to *n_events* pending events; return the number fired.

        The bounded sibling of :meth:`run`, on the same loop: the
        protocol fuzzer (and any interactive driver) interleaves
        external stimuli with bounded slices of simulation progress,
        and a run advanced entirely through ``step`` is byte-identical
        to one driven by ``run``.  Absorbed events do not count
        towards *n_events*.
        """
        if n_events < 0:
            raise SimulationError(f"n_events must be >= 0, got {n_events}")
        return self._loop(None, n_events, None)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap drains, *until* passes, or stop().

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly
            after this time; the clock is advanced to ``until``.
        max_events:
            Safety valve for tests; raise if more events fire.

        Returns
        -------
        float
            The simulation time at which the run stopped.
        """
        self._loop(until, None, max_events)
        if until is not None and not self._stopped:
            # Horizon given and not stopped: whether the heap drained
            # or the next event lies beyond it, the clock advances to
            # the horizon.
            self._now = max(self._now, until)
        return self._now
