"""Unit tests for the discrete-event engine."""

from typing import Any, List, Optional, Tuple

import pytest
from hypothesis import example, given, strategies as st

from repro.fuzz.profiles import tier_settings
from repro.sim.engine import Event, EventQueue, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        seen = []
        sim.schedule_at(2.0, seen.append, "b")
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_uses_priority_then_insertion_order(self, sim):
        seen = []
        sim.schedule_at(1.0, seen.append, "normal1")
        sim.schedule_at(1.0, seen.append, "early", priority=Simulator.PRIORITY_EARLY)
        sim.schedule_at(1.0, seen.append, "normal2")
        sim.schedule_at(1.0, seen.append, "late", priority=Simulator.PRIORITY_LATE)
        sim.run()
        assert seen == ["early", "normal1", "normal2", "late"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule_at(5.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.5]
        assert sim.now == 5.5

    def test_schedule_after_is_relative(self, sim):
        seen = []
        sim.schedule_at(10.0, lambda: sim.schedule_after(2.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [12.5]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_events_created_during_run_execute(self, sim):
        seen = []
        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule_after(1.0, chain, n + 1)
        sim.schedule_at(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_args_are_passed_through(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule_at(1.0, seen.append, "no")
        sim.schedule_at(2.0, seen.append, "yes")
        sim.cancel(event)
        sim.run()
        assert seen == ["yes"]

    def test_double_cancel_is_harmless(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()
        assert sim.pending_events == 0

    def test_pending_events_counts_live_only(self, sim):
        e1 = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.cancel(e1)
        assert sim.pending_events == 1


class TestCancelAfterFire:
    def test_cancel_after_fire_is_noop(self, sim):
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert event.fired
        sim.cancel(event)  # must not decrement the live count
        assert sim.pending_events == 0
        assert not event.cancelled

    def test_cancel_own_event_inside_callback(self, sim):
        seen = []
        holder = {}

        def fire():
            seen.append("fired")
            sim.cancel(holder["event"])  # cancelling the running event

        holder["event"] = sim.schedule_at(1.0, fire)
        sim.schedule_at(2.0, seen.append, "later")
        sim.run()
        assert seen == ["fired", "later"]

    def test_repeated_cancel_after_fire_keeps_count_consistent(self, sim):
        events = [sim.schedule_at(float(t), lambda: None) for t in range(1, 4)]
        sim.run()
        for event in events:
            sim.cancel(event)
            sim.cancel(event)
        assert sim.pending_events == 0
        # The queue must still be usable afterwards.
        seen = []
        sim.schedule_at(5.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]


class TestLazyDeletionInterleavings:
    def _event(self, time, seq=0):
        return Event(time, 0, seq, lambda: None, (), "t")

    def test_cancel_peek_pop_interleaving(self):
        q = EventQueue()
        events = [self._event(float(t), seq=t) for t in range(6)]
        for event in events:
            q.push(event)
        q.cancel(events[0])
        assert q.peek() is events[1]
        q.cancel(events[2])
        popped = q.pop()
        assert popped is events[1]
        assert q.peek_time() == 3.0
        q.cancel(events[4])
        assert [q.pop().time for _ in range(2)] == [3.0, 5.0]
        assert q.pop() is None
        assert len(q) == 0

    def test_pop_before_horizon_leaves_later_events(self):
        q = EventQueue()
        q.push(self._event(1.0, seq=0))
        q.push(self._event(5.0, seq=1))
        assert q.pop_before(2.0).time == 1.0
        assert q.pop_before(2.0) is None
        assert len(q) == 1
        assert q.pop_before(5.0).time == 5.0

    def test_popped_event_is_marked_fired(self):
        q = EventQueue()
        event = self._event(1.0)
        q.push(event)
        assert q.pop() is event
        assert event.fired
        assert not q.cancel(event)


class TestRunUntilEdgeCases:
    def test_horizon_exactly_on_event_time_fires_event(self, sim):
        seen = []
        sim.schedule_at(3.0, seen.append, "on-horizon")
        sim.schedule_at(3.5, seen.append, "after")
        end = sim.run(until=3.0)
        assert seen == ["on-horizon"]
        assert end == 3.0

    def test_stop_in_callback_with_pending_horizon(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule_at(2.0, seen.append, "b")
        end = sim.run(until=10.0)
        # stop() wins: the clock must not jump to the horizon, and the
        # later event stays queued.
        assert seen == ["a"]
        assert end == 1.0
        assert sim.pending_events == 1
        sim.run()
        assert seen == ["a", "b"]

    def test_until_with_empty_queue_advances_clock(self, sim):
        assert sim.run(until=7.5) == 7.5
        assert sim.now == 7.5

    def test_max_events_message_names_the_limit(self, sim):
        def forever():
            sim.schedule_after(0.1, forever)
        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events=7"):
            sim.run(max_events=7)


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(5.0, seen.append, "b")
        end = sim.run(until=3.0)
        assert seen == ["a"]
        assert end == 3.0
        sim.run()
        assert seen == ["a", "b"]

    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule_at(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0

    def test_stop_halts_processing(self, sim):
        seen = []
        sim.schedule_at(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule_at(2.0, seen.append, "b")
        sim.run()
        assert seen[0] == "a"
        assert "b" not in seen

    def test_max_events_guards_runaway_schedules(self, sim):
        def forever():
            sim.schedule_after(0.1, forever)
        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_simulator_is_not_reentrant(self, sim):
        def nested():
            sim.run()
        sim.schedule_at(1.0, nested)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_events_fired_counter(self, sim):
        for t in range(5):
            sim.schedule_at(float(t), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestEventQueue:
    def _event(self, time, priority=0, seq=0):
        return Event(time, priority, seq, lambda: None, (), "t")

    def test_pop_returns_earliest(self):
        q = EventQueue()
        q.push(self._event(2.0, seq=1))
        q.push(self._event(1.0, seq=2))
        popped = q.pop()
        assert popped is not None and popped.time == 1.0

    def test_pop_skips_cancelled(self):
        q = EventQueue()
        early = self._event(1.0, seq=1)
        q.push(early)
        q.push(self._event(2.0, seq=2))
        assert q.cancel(early)
        popped = q.pop()
        assert popped is not None and popped.time == 2.0

    def test_peek_time_ignores_cancelled(self):
        q = EventQueue()
        early = self._event(1.0, seq=1)
        q.push(early)
        q.push(self._event(3.0, seq=2))
        assert q.cancel(early)
        assert q.peek_time() == 3.0

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert not q


class TestCompaction:
    def _event(self, time, seq):
        return Event(time, 0, seq, lambda: None, (), "t")

    def _fill(self, q, n, start_seq=0):
        events = [self._event(float(i), start_seq + i) for i in range(n)]
        for event in events:
            q.push(event)
        return events

    def test_compact_drops_cancelled_keeps_order(self):
        q = EventQueue()
        events = self._fill(q, 10)
        for event in events[::2]:
            q.cancel(event)
        q.compact()
        assert len(q._heap) == 5
        assert len(q) == 5
        assert [q.pop().time for _ in range(5)] == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_compact_on_clean_heap_is_noop(self):
        q = EventQueue()
        self._fill(q, 10)
        heap_before = list(q._heap)
        q.compact()
        assert q._heap == heap_before

    def test_cancel_below_threshold_does_not_compact(self):
        q = EventQueue()
        events = self._fill(q, 32)
        for event in events[:20]:
            q.cancel(event)
        # dead fraction is high but the heap is under _COMPACT_MIN_HEAP
        assert len(q._heap) == 32
        assert len(q) == 12

    def test_cancel_past_threshold_compacts_automatically(self):
        q = EventQueue()
        events = self._fill(q, 80)
        # cancel until live*2 < heap size: 41 cancels leaves 39 live
        for event in events[:41]:
            q.cancel(event)
        assert len(q._heap) == 39
        assert len(q) == 39

    def test_pop_order_identical_with_and_without_compaction(self):
        def build():
            q = EventQueue()
            events = self._fill(q, 50)
            for event in events[7:40:3]:
                q.cancel(event)
            return q

        plain, compacted = build(), build()
        compacted.compact()
        order = lambda q: [e.seq for e in iter(q.pop, None)]
        assert order(compacted) == order(plain)

    def test_compact_detects_broken_live_invariant(self):
        q = EventQueue()
        self._fill(q, 10)
        q._live = 7  # corrupt the bookkeeping behind the queue's back
        with pytest.raises(SimulationError, match="live invariant"):
            q.compact()

    def test_simulator_compact_preserves_run(self, sim):
        seen = []
        for t in range(8):
            sim.schedule_at(float(t), seen.append, t)
        doomed = [sim.schedule_at(float(t) + 0.5, seen.append, -t)
                  for t in range(8)]
        for event in doomed:
            sim.cancel(event)
        sim.compact()
        assert sim.pending_events == 8
        sim.run()
        assert seen == list(range(8))


class TestCheckpointHook:
    def test_hook_fires_on_event_cadence(self, sim):
        ticks = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.set_checkpoint_hook(
            lambda: ticks.append(sim.events_fired), every_events=3
        )
        sim.run()
        assert ticks == [3, 6, 9]

    def test_hook_fires_on_sim_time_cadence(self, sim):
        ticks = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.set_checkpoint_hook(lambda: ticks.append(sim.now),
                                every_sim_seconds=4.0)
        sim.run()
        assert ticks == [4.0, 8.0]

    def test_hook_requires_a_cadence(self, sim):
        with pytest.raises(SimulationError, match="every_events"):
            sim.set_checkpoint_hook(lambda: None)

    def test_clear_hook_stops_firing(self, sim):
        ticks = []
        for t in range(10):
            sim.schedule_at(float(t), lambda: None)
        sim.set_checkpoint_hook(lambda: ticks.append(1), every_events=2)
        sim.run(until=4.0)
        sim.clear_checkpoint_hook()
        sim.run()
        assert len(ticks) == 2


# ----------------------------------------------------------------------
# absorbable events against the plain events they stand for
# ----------------------------------------------------------------------
class _World:
    """One schedule, driven either with absorbable marks or, with
    *plain*, with every mark scheduled as the ``owner.fire`` event it
    stands for.  Every handle is kept in scheduling order, so both
    worlds cancel the same events."""

    def __init__(self, plain: bool) -> None:
        self.sim = Simulator()
        self.plain = plain
        self.log: List[Tuple[float, str]] = []
        self.handles: List[Any] = []

    def event(self, delay: float, priority: int, label: str) -> None:
        self.handles.append(self.sim.schedule_after(
            delay, self.log_now, label, priority=priority, label=label
        ))

    def mark(self, delay: float, owner: "_Owner", label: str) -> None:
        if self.plain:
            handle = self.sim.schedule_after(delay, owner.fire, label=label)
        else:
            handle = self.sim.schedule_absorbable(delay, owner, label)
        self.handles.append(handle)

    def log_now(self, label: str) -> None:
        self.log.append((self.sim.now, label))

    def cancel(self, picks: List[int]) -> None:
        for pick in picks:
            if self.handles:
                self.sim.cancel(self.handles[pick % len(self.handles)])

    def state(self) -> tuple:
        sim = self.sim
        return (list(self.log), sim.now, sim.logical_events, sim.pending_events,
                sim.live_labels())


class _Owner:
    """An absorbable event's owner: each end does the same work however
    it completes (logs, then schedules its next end and, once, a plain
    follow-up), and ``absorb`` declines by a drawn pattern."""

    def __init__(self, world: _World, name: str, pattern: List[bool],
                 hops: List[float], follow_up: Optional[Tuple[float, int]]) -> None:
        self.world = world
        self.name = name
        self.pattern = pattern
        self.asked = 0
        self.hops = list(hops)
        self.follow_up = follow_up
        self.ends = 0

    def absorb(self) -> bool:
        takes = self.pattern[self.asked % len(self.pattern)]
        self.asked += 1
        if takes:
            self._end()
        return takes

    def fire(self) -> None:
        self._end()

    def _end(self) -> None:
        world = self.world
        world.log_now(f"{self.name}.{self.ends}")
        self.ends += 1
        if self.follow_up is not None:
            delay, priority = self.follow_up
            self.follow_up = None
            world.event(delay, priority, f"{self.name}+")
        if self.hops:
            world.mark(self.hops.pop(0), self, f"{self.name}.{self.ends}")


_NORMAL = Simulator.PRIORITY_NORMAL
_PRIORITIES = [Simulator.PRIORITY_EARLY, _NORMAL, Simulator.PRIORITY_LATE]
#: a coarse grid makes same-time ties across kinds and priorities likely
_delays = st.integers(0, 8).map(lambda k: k * 0.5)
_plain = st.tuples(st.just("event"), _delays, st.sampled_from(_PRIORITIES))
_absorbable = st.tuples(
    st.just("mark"), _delays,
    st.lists(st.booleans(), min_size=1, max_size=4),  # absorb or decline, cycled
    st.lists(_delays, max_size=3),  # the owner's later ends
    st.one_of(st.none(), st.tuples(_delays, st.sampled_from(_PRIORITIES))),
)
_picks = st.lists(st.integers(0, 63), max_size=2)  # handles to cancel
_slices = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("until"), st.integers(0, 24).map(lambda k: k * 0.5)),
            st.tuples(st.just("step"), st.integers(0, 4)),
        ),
        _picks,
    ),
    max_size=6,
)


class TestAbsorbableEvents:
    @tier_settings("standard")
    @given(schedule=st.lists(st.one_of(_plain, _absorbable), min_size=1, max_size=10),
           cancels=_picks, slices=_slices)
    # same-time ties at NORMAL priority, decided by sequence alone
    @example(schedule=[("mark", 0.5, [True], [], None), ("event", 0.5, _NORMAL)],
             cancels=[], slices=[])
    @example(schedule=[("event", 0.5, _NORMAL), ("mark", 0.5, [False], [0.0], (0.0, _NORMAL))],
             cancels=[], slices=[])
    def test_marks_match_the_plain_events_they_stand_for(self, schedule, cancels, slices):
        worlds = [_World(plain=False), _World(plain=True)]
        for world in worlds:
            for i, item in enumerate(schedule):
                if item[0] == "event":
                    world.event(item[1], item[2], f"e{i}")
                else:
                    _, delay, pattern, hops, follow_up = item
                    owner = _Owner(world, f"m{i}", pattern, hops, follow_up)
                    world.mark(delay, owner, f"m{i}.0")
            world.cancel(cancels)
        marks, events = worlds
        assert marks.state() == events.state()
        for (kind, value), picks in slices:
            if kind == "until":
                assert marks.sim.run(until=value) == events.sim.run(until=value)
            else:
                # step(n) counts fired events; the plain world fires
                # every logical event the marks' world got through
                before = marks.sim.logical_events
                marks.sim.step(value)
                events.sim.step(marks.sim.logical_events - before)
            for world in worlds:
                world.sim.compact()
                world.cancel(picks)
            assert marks.state() == events.state()
        assert marks.sim.run() == events.sim.run()
        assert marks.state() == events.state()
        assert events.sim.events_fired == events.sim.logical_events
