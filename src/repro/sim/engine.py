"""Deterministic discrete-event engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Events
are callbacks scheduled at absolute simulation times.  Two events at
the same time are ordered first by an explicit integer *priority*
(lower runs first) and then by insertion order, which makes every run
fully deterministic for a given seed and schedule.

Besides ordinary events the simulator keeps *absorbable* events
(:meth:`Simulator.schedule_absorbable`), the iteration ends of
:mod:`repro.runtime.nthlib`.  One is ordered exactly like an ordinary
event of the same time and priority.  When its turn comes the engine
first asks its owner to ``absorb()`` it; if that finishes the work,
nothing fires: the observer does not see it and ``events_fired`` does
not count it.  Otherwise the owner's ``fire()`` runs as an ordinary
event under the key it already had.  A run of absorbed iteration ends
closed by one that fires is an *iteration span* (docs/performance.md).

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
from typing import Any, Callable, Dict, List, Optional, Union

from repro.sim.slots import set_slot_state, slot_state

#: compaction threshold: the queue physically drops lazily-deleted
#: events once the heap holds at least this many entries and live
#: events make up less than half of them.  Keeps long-running
#: simulations (and their snapshots) from accumulating unbounded
#: cancelled-event garbage while leaving short runs alone.
_COMPACT_MIN_HEAP = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Typical causes are scheduling an event in the past or running a
    simulator that has been explicitly stopped with an error.
    """


class Event:
    """A single scheduled callback.

    Events should be created through :meth:`Simulator.schedule_at` or
    :meth:`Simulator.schedule_after`, never directly.  An event can be
    cancelled before it fires; cancellation is O(1) (the event is left
    in the heap and skipped when popped).

    Attributes
    ----------
    time:
        Absolute simulation time at which the callback fires.
    priority:
        Tie-break for events at the same time; lower fires first.
    label:
        Free-form description used in error messages and debugging.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "label",
                 "_cancelled", "_fired", "_cancel_noted")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        label: str,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self._cancelled = False
        self._fired = False
        self._cancel_noted = False

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a
        harmless no-op.  Prefer :meth:`Simulator.cancel` (or
        :meth:`EventQueue.cancel`), which also keeps the queue's live
        count correct immediately; a bare ``cancel()`` is reconciled
        lazily when the event reaches the top of the heap.
        """
        if not self._fired:
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether this event has already been popped for execution."""
        return self._fired

    def sort_key(self) -> tuple:
        """Ordering key: (time, priority, insertion sequence)."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        # Hot path: this comparison runs O(log n) times per push/pop,
        # so avoid building the sort_key() tuples.
        if self.time != other.time:  # repro: allow(DET106): heap ordering must match heapq's exact comparison; an epsilon here would make __lt__ intransitive and corrupt the heap
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self._cancelled
            else "fired" if self._fired
            else "pending"
        )
        return f"Event(t={self.time:.6f}, prio={self.priority}, {self.label!r}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` objects with lazy deletion.

    Cancellation never removes an event from the heap; the event is
    marked and skipped when it reaches the top.  All lazy-deletion
    bookkeeping funnels through :meth:`_purge`, so the live count
    stays consistent no matter how cancel / peek / pop interleave.
    """

    __slots__ = ("_heap", "_live", "_noted_pending")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._live = 0
        #: cancellations pre-paid through the legacy note_cancelled()
        #: hook, to be reconciled when the events surface in _purge().
        self._noted_pending = 0

    def push(self, event: Event) -> None:
        """Insert *event* into the queue."""
        heapq.heappush(self._heap, event)
        self._live += 1

    def cancel(self, event: Event) -> bool:
        """Cancel *event* with immediate live-count bookkeeping.

        Returns ``True`` if the event was live and is now cancelled.
        Cancelling an event that already fired — or was already
        cancelled — is a true no-op, so the live count can never be
        driven negative by repeated or late cancels.
        """
        if event._fired or event._cancelled:
            return False
        event._cancelled = True
        event._cancel_noted = True
        self._live -= 1
        self._check_live()
        self._maybe_compact()
        return True

    def _purge(self) -> None:
        """Drop cancelled events from the top of the heap.

        The single place lazy deletion happens.  Events cancelled
        through :meth:`cancel` were already accounted; events cancelled
        behind the queue's back (bare ``Event.cancel()``) are accounted
        here, consuming any pre-paid ``note_cancelled`` credits first.
        """
        heap = self._heap
        while heap and heap[0]._cancelled:
            event = heapq.heappop(heap)
            if not event._cancel_noted:
                event._cancel_noted = True
                if self._noted_pending > 0:
                    self._noted_pending -= 1
                else:
                    self._live -= 1
        self._check_live()

    def _check_live(self) -> None:
        if self._live < 0:
            raise SimulationError(
                "event queue live count went negative — an event was "
                "cancelled twice or after it fired"
            )

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event.

        Returns ``None`` when the queue holds no live events.  The
        returned event is marked fired, so a later cancel is a no-op.
        """
        return self.pop_before(None)

    def pop_before(self, horizon: Optional[float]) -> Optional[Event]:
        """Pop the earliest live event at or before *horizon*.

        Returns ``None`` when the queue is empty or the earliest live
        event fires strictly after *horizon* (the event stays queued).
        ``horizon=None`` means no bound.  This is the run loop's single
        per-event queue operation: one purge, one heappop.
        """
        self._purge()
        heap = self._heap
        if not heap:
            return None
        if horizon is not None and heap[0].time > horizon:
            return None
        event = heapq.heappop(heap)
        event._fired = True
        self._live -= 1
        return event

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it, or ``None``."""
        self._purge()
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        event = self.peek()
        return None if event is None else event.time

    def note_cancelled(self) -> None:
        """Bookkeeping hook called when a pushed event is cancelled.

        Legacy path for callers that cancel via ``Event.cancel()``
        directly; prefer :meth:`cancel`.  The decrement is recorded as
        pre-paid so :meth:`_purge` does not double-count the event.
        """
        self._live -= 1
        self._noted_pending += 1
        self._check_live()
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Compact when the dead fraction of the heap grows too large."""
        if (len(self._heap) >= _COMPACT_MIN_HEAP
                and self._live * 2 < len(self._heap)):
            self.compact()

    def compact(self) -> None:
        """Physically drop every cancelled event from the heap.

        Lazy deletion trades memory for O(1) cancels; on long runs
        (or before a snapshot) the dead entries are reclaimed here.
        Pop order is unaffected: event ordering is a total order
        (time, priority, insertion sequence), so re-heapifying the
        survivors cannot change which event surfaces next.  The same
        bookkeeping rules as :meth:`_purge` apply to events cancelled
        behind the queue's back, and the ``_live`` invariant — live
        count equals the number of non-cancelled events in the heap —
        is checked afterwards.
        """
        heap = self._heap
        if self._live == len(heap):
            return
        survivors: List[Event] = []
        for event in heap:
            if not event._cancelled:
                survivors.append(event)
            elif not event._cancel_noted:
                event._cancel_noted = True
                if self._noted_pending > 0:
                    self._noted_pending -= 1
                else:
                    self._live -= 1
        heapq.heapify(survivors)
        self._heap = survivors
        self._check_live()
        if self._noted_pending == 0 and self._live != len(survivors):
            raise SimulationError(
                f"event-queue compaction broke the live invariant: "
                f"_live={self._live} but {len(survivors)} live events remain"
            )

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock.

    The simulator is deliberately small: it owns the clock and the
    event queue, and nothing else.  All domain state lives in the
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
        "_now", "_queue", "_seq", "_running", "_stopped", "_events_fired",
        "_marks", "_live_marks", "_absorbed", "_observer", "_ckpt_hook",
        "_ckpt_every_events", "_ckpt_every_seconds", "_ckpt_next_events",
        "_ckpt_next_time",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        #: the next insertion sequence number (a plain int: itertools
        #: objects stop pickling in Python 3.14)
        self._seq = 0
        self._running = False
        self._stopped = False
        self._events_fired = 0
        #: absorbable events, each a list ``[time, seq, owner, label]``
        #: so the heap compares (time, seq) in C; ``owner`` is None once
        #: the entry was cancelled or consumed
        self._marks: List[List[Any]] = []
        self._live_marks = 0
        #: absorbable events that completed without firing
        self._absorbed = 0
        self._observer: Optional[Any] = None
        self._ckpt_hook: Optional[Callable[[], None]] = None
        self._ckpt_every_events: Optional[int] = None
        self._ckpt_every_seconds: Optional[float] = None
        #: logical-event count and clock at which the hook is next due
        #: (armed by set_checkpoint_hook; sys.maxsize and infinity for
        #: a cadence that is off)
        self._ckpt_next_events = 0
        self._ckpt_next_time = 0.0

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
        iteration end however it completed.  Autosnapshot cadences in
        events count these, so they keep their meaning.
        """
        return self._events_fired + self._absorbed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued (absorbable ones included)."""
        return len(self._queue) + self._live_marks

    def live_labels(self) -> List[str]:
        """Labels of every live (pending) event, sorted.

        Diagnostics surface: the invariant oracle uses this to tell a
        queued job with a pending arrival/requeue event from a lost
        one, without popping anything.
        """
        labels = [event.label for event in self._queue._heap if not event._cancelled]
        labels.extend(mark[3] for mark in self._marks if mark[2] is not None)
        return sorted(labels)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule *callback(*args)* at absolute time *time*.

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
        event = Event(max(time, self._now), priority, seq, callback, args, label)
        self._queue.push(event)
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule *callback(*args)* after a non-negative *delay*.

        Fast path of :meth:`schedule_at`: ``now + delay`` can never lie
        in the past, so the event is built and pushed directly.  This
        is the hottest scheduling call (every iteration end, report and
        timer goes through it).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now + delay, priority, seq, callback, args, label)
        self._queue.push(event)
        return event

    def schedule_absorbable(self, delay: float, owner: Any, label: str = "") -> List[Any]:
        """Schedule an event that may complete without firing.

        It is ordered exactly like ``schedule_after(delay, owner.fire,
        label=label)``: same time, :attr:`PRIORITY_NORMAL`, the next
        insertion sequence number.  When its turn comes the clock
        advances to it and ``owner.absorb()`` runs first.  If it
        returns True the work is done: nothing fires, the observer is
        not called and :attr:`events_fired` does not count it (the
        checkpoint hook still sees it, see :attr:`logical_events`).
        Otherwise ``owner.fire()`` runs as an ordinary event under the
        same key; ``absorb`` must have changed nothing in that case.
        The owner holds whatever both calls need, and has at most one
        absorbable event pending.  Returns a handle for :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        seq = self._seq
        self._seq = seq + 1
        mark = [self._now + delay, seq, owner, label]
        heapq.heappush(self._marks, mark)
        self._live_marks += 1
        return mark

    def cancel(self, event: Union[Event, List[Any]]) -> None:
        """Cancel a previously scheduled (or absorbable) event.

        Cancelling an event that already fired (or was already
        cancelled) is a no-op — the live-event count is only adjusted
        for events genuinely still in the queue.
        """
        if isinstance(event, list):
            if event[2] is not None:
                event[2] = None
                self._live_marks -= 1
            return
        self._queue.cancel(event)

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def attach_observer(self, observer: Any) -> None:
        """Attach an event observer (e.g. the ``--sanitize`` detector).

        The observer's ``on_event(event)`` is called for every event
        the run loop fires, *before* the event's callback executes.
        Observers must only observe: they get the live
        :class:`Event` for inspection but must not mutate it,
        schedule, or cancel — the engine's byte-identity contract is
        that a run with an observer equals a run without one.  One
        observer at a time; ``None``-safe dispatch keeps the
        unobserved hot path to a single attribute check per event.
        """
        self._observer = observer

    def detach_observer(self) -> None:
        """Remove the attached observer, if any."""
        self._observer = None

    def compact(self) -> None:
        """Reclaim lazily-deleted events from the queue now.

        Called automatically when the dead fraction grows large and by
        :meth:`repro.checkpoint.session.SimulationSession.save` so
        snapshots never carry cancelled-event garbage.
        """
        self._queue.compact()
        marks = self._marks
        if len(marks) > self._live_marks:
            # in place: a snapshot may be taken from inside _next()
            marks[:] = [mark for mark in marks if mark[2] is not None]
            heapq.heapify(marks)

    def set_checkpoint_hook(
        self,
        hook: Callable[[], None],
        every_events: Optional[int] = None,
        every_sim_seconds: Optional[float] = None,
    ) -> None:
        """Install *hook* to run periodically **between** events.

        The hook fires after an event's callback returns (or an
        absorbable event completes without firing), once
        *every_events* :attr:`logical_events` have passed since the
        last checkpoint and/or the clock advanced *every_sim_seconds*
        past it (whichever trips first; at least one cadence is
        required).
        Firing between events means the hook observes a well-defined
        prefix of the event history — the foundation of the
        checkpoint subsystem's byte-identical restore guarantee.  The
        hook must not schedule, cancel or mutate simulation state.
        Like observers, the hook is process-local: it is dropped when
        the simulator is pickled.
        """
        if every_events is None and every_sim_seconds is None:
            raise SimulationError(
                "checkpoint hook needs every_events and/or every_sim_seconds"
            )
        if every_events is not None and every_events < 1:
            raise SimulationError(
                f"every_events must be >= 1, got {every_events}"
            )
        if every_sim_seconds is not None and every_sim_seconds <= 0:
            raise SimulationError(
                f"every_sim_seconds must be positive, got {every_sim_seconds}"
            )
        self._ckpt_hook = hook
        self._ckpt_every_events = every_events
        self._ckpt_every_seconds = every_sim_seconds
        self._arm_checkpoint()

    def clear_checkpoint_hook(self) -> None:
        """Remove the checkpoint hook, if any."""
        self._ckpt_hook = None

    def _arm_checkpoint(self) -> None:
        every = self._ckpt_every_events
        self._ckpt_next_events = (
            sys.maxsize if every is None else self.logical_events + every
        )
        seconds = self._ckpt_every_seconds
        self._ckpt_next_time = math.inf if seconds is None else self._now + seconds

    def _checkpoint_tick(self) -> None:
        """Fire the checkpoint hook if a cadence threshold passed."""
        if (self._events_fired + self._absorbed >= self._ckpt_next_events
                or self._now >= self._ckpt_next_time):
            self._checkpoint()

    def _checkpoint(self) -> None:
        hook = self._ckpt_hook
        assert hook is not None
        hook()
        self._arm_checkpoint()

    def _next(self, horizon: Optional[float]) -> Optional[Event]:
        """Pop the next event to fire at or before *horizon*.

        Absorbable events that come first are offered to their owner's
        ``absorb()`` on the way; one that declines fires as an ordinary
        event with its own key, which is the smallest left.
        """
        queue = self._queue
        marks = self._marks
        normal = self.PRIORITY_NORMAL
        while marks:
            heap = queue._heap
            if heap and heap[0]._cancelled:
                queue._purge()
                heap = queue._heap
            mark = marks[0]
            if heap:
                top = heap[0]
                # repro: allow(DET106): exact heap-key comparison, the same one Event.__lt__ makes
                if mark[0] > top.time or (mark[0] == top.time and (
                        top.priority < normal
                        or (top.priority == normal and top.seq < mark[1]))):
                    break
            if horizon is not None and mark[0] > horizon:
                return None
            heapq.heappop(marks)
            owner = mark[2]
            if owner is None:
                continue
            mark[2] = None
            self._live_marks -= 1
            now = self._now = mark[0]
            if owner.absorb():
                absorbed = self._absorbed = self._absorbed + 1
                # _checkpoint_tick's test, inline: it runs on every
                # absorbed end
                if self._ckpt_hook is not None and (
                        self._events_fired + absorbed >= self._ckpt_next_events
                        or now >= self._ckpt_next_time):
                    self._checkpoint()
                continue
            event = Event(now, normal, mark[1], owner.fire, (), mark[3])
            event._fired = True
            return event
        return queue.pop_before(horizon)

    def step(self, n_events: int = 1) -> int:
        """Fire up to *n_events* pending events; return the number fired.

        The single-event sibling of :meth:`run`: the protocol fuzzer
        (and any interactive driver) interleaves external stimuli with
        bounded slices of simulation progress.  Semantics match the run
        loop exactly — observer notification before each callback, the
        checkpoint hook between events — so a run advanced entirely
        through ``step`` is byte-identical to one driven by ``run``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if n_events < 0:
            raise SimulationError(f"n_events must be >= 0, got {n_events}")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while fired < n_events and not self._stopped:
                event = self._next(None)
                if event is None:
                    break
                self._now = event.time
                self._events_fired += 1
                fired += 1
                if self._observer is not None:
                    self._observer.on_event(event)
                event.callback(*event.args)
                if self._ckpt_hook is not None:
                    self._checkpoint_tick()
        finally:
            self._running = False
        return fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, *until* passes, or stop().

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
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        fired_this_run = 0
        try:
            while not self._stopped:
                event = self._next(until)
                if event is None:
                    break
                self._now = event.time
                self._events_fired += 1
                fired_this_run += 1
                if max_events is not None and fired_this_run > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway schedule"
                    )
                if self._observer is not None:
                    self._observer.on_event(event)
                event.callback(*event.args)
                if self._ckpt_hook is not None:
                    self._checkpoint_tick()
        finally:
            self._running = False
        if until is not None and not self._stopped:
            # Horizon given and not stopped: whether the queue drained
            # or the next event lies beyond it, the clock advances to
            # the horizon.
            self._now = max(self._now, until)
        return self._now
