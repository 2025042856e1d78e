"""Unit and property tests for the machine model."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.fuzz.profiles import tier_settings

from repro.machine.machine import Machine, MachineError
from repro.machine.topology import NumaTopology
from repro.metrics.trace import Burst, FoldingTraceRecorder, TraceRecorder


class TestMachineLifecycle:
    def test_start_job_allocates(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        assert machine.allocation_of(1) == 4
        assert machine.free_cpus == 4
        assert machine.running_jobs() == [1]

    def test_start_twice_raises(self):
        machine = Machine(8)
        machine.start_job(1, "a", 2, 0.0)
        with pytest.raises(MachineError):
            machine.start_job(1, "a", 2, 1.0)

    def test_overcommit_raises(self):
        machine = Machine(8)
        machine.start_job(1, "a", 6, 0.0)
        with pytest.raises(MachineError):
            machine.start_job(2, "b", 3, 1.0)

    def test_finish_releases(self):
        machine = Machine(8)
        machine.start_job(1, "a", 5, 0.0)
        machine.finish_job(1, 2.0)
        assert machine.free_cpus == 8
        assert machine.running_jobs() == []

    def test_finish_unknown_raises(self):
        with pytest.raises(MachineError):
            Machine(8).finish_job(42, 0.0)

    def test_grow_and_shrink(self):
        machine = Machine(8)
        machine.start_job(1, "a", 2, 0.0)
        machine.resize_job(1, 6, 1.0)
        assert machine.allocation_of(1) == 6
        removed = machine.resize_job(1, 3, 2.0)
        assert machine.allocation_of(1) == 3
        assert removed == 3

    def test_resize_to_same_size_is_noop(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        assert machine.resize_job(1, 4, 1.0) == 0

    def test_resize_validation(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        with pytest.raises(MachineError):
            machine.resize_job(1, 0, 1.0)
        with pytest.raises(MachineError):
            machine.resize_job(1, 9, 1.0)
        with pytest.raises(MachineError):
            machine.resize_job(99, 2, 1.0)

    def test_allocations_map(self):
        machine = Machine(8)
        machine.start_job(1, "a", 3, 0.0)
        machine.start_job(2, "b", 2, 0.0)
        assert machine.allocations() == {1: 3, 2: 2}


class TestPlacement:
    def test_new_partition_is_compact(self):
        machine = Machine(16)
        machine.start_job(1, "a", 4, 0.0)
        cpus = machine.partition_of(1)
        assert machine.topology.spread(cpus) <= 2

    def test_growth_prefers_nearby_cpus(self):
        machine = Machine(16)
        machine.start_job(1, "a", 2, 0.0)
        machine.start_job(2, "b", 8, 0.0)
        machine.finish_job(2, 1.0)
        machine.resize_job(1, 4, 2.0)
        cpus = machine.partition_of(1)
        # The partition should stay within 2 nodes (4 cpus, 2/node).
        assert machine.topology.spread(cpus) <= 2

    @pytest.mark.parametrize("n_cpus, cpus_per_node, partition, free, size, grown", [
        # node 1: nodes 0 and 3 are one bit flip away, node 2 two
        (4, 1, [1], [0, 2, 3], 2, [0, 1]),
        (4, 1, [1], [0, 2, 3], 3, [0, 1, 3]),
        # 3 nodes: node 2 reaches node 1 only through node 0
        (6, 2, [4, 5], [2, 3], 3, [2, 4, 5]),
        # 70 nodes, masks past 64 bits: node 69 = 0b1000101 is one flip
        # from 5, 65 and 68, two from 4 and three from 0
        (70, 1, [69], [0, 4, 5, 65, 68], 4, [5, 65, 68, 69]),
        (70, 1, [69], [0, 4, 5, 65, 68], 5, [4, 5, 65, 68, 69]),
    ])
    def test_growth_takes_the_nearest_free_cpus(self, n_cpus, cpus_per_node, partition,
                                                free, size, grown):
        machine = Machine(n_cpus, NumaTopology(n_cpus, cpus_per_node))
        # job 1 holds *partition*, job 2 every CPU not in *free*
        rest = [cpu for cpu in range(n_cpus) if cpu not in partition + free]
        for job_id, cpus in ((1, partition), (2, rest)):
            machine._partitions[job_id] = set(cpus)
            machine._app_names[job_id] = f"app{job_id}"
            for cpu in cpus:
                machine._owner[cpu] = job_id
        machine._free = set(free)
        machine._n_allocated = n_cpus - len(free)
        machine.check_invariants()
        machine.resize_job(1, size, 1.0)
        assert machine.partition_of(1) == grown

    def test_shrink_releases_stragglers_first(self):
        machine = Machine(16)
        machine.start_job(1, "a", 5, 0.0)  # spans 3 nodes (2+2+1)
        machine.resize_job(1, 4, 1.0)
        cpus = machine.partition_of(1)
        assert machine.topology.spread(cpus) == 2

    def test_partitions_are_disjoint(self):
        machine = Machine(16)
        machine.start_job(1, "a", 5, 0.0)
        machine.start_job(2, "b", 7, 0.0)
        assert not set(machine.partition_of(1)) & set(machine.partition_of(2))


class TestRestore:
    def test_restored_machine_releases_like_the_original(self):
        # this history leaves the partition's set iterating 0 1 2 4 3 5
        # 6 7, while a restore rebuilds it from the sorted list: a
        # finished job's bursts come out in id order either way
        machine = Machine(16, trace=TraceRecorder(16))
        machine.start_job(1, "a", 6, 1.0)
        machine.resize_job(1, 3, 2.0)
        machine.resize_job(1, 8, 3.0)
        restored = pickle.loads(pickle.dumps(machine))
        for copy in (machine, restored):
            copy.finish_job(1, 4.0)
        assert machine.trace.bursts == restored.trace.bursts
        assert [b.cpu for b in machine.trace.bursts[-8:]] == list(range(8))


class TestBursts:
    def test_release_emits_one_burst_with_the_owner_app_name(self):
        trace = TraceRecorder(4)
        machine = Machine(4, trace=trace)
        machine.start_job(1, "a", 1, 0.0)
        machine.start_job(2, "b", 3, 1.0)
        machine.finish_job(1, 5.0)
        assert trace.bursts == [Burst(0, 1, "a", 0.0, 5.0)]
        machine.resize_job(2, 2, 6.0)  # gives back CPU 1, alone on node 0
        assert trace.bursts[1:] == [Burst(1, 2, "b", 1.0, 6.0)]

    def test_finalize_twice_emits_each_open_burst_once(self):
        trace = TraceRecorder(4)
        machine = Machine(4, trace=trace)
        machine.start_job(1, "a", 2, 1.0)
        machine.finalize(7.0)
        machine.finalize(7.0)
        assert trace.bursts == [Burst(0, 1, "a", 1.0, 7.0), Burst(1, 1, "a", 1.0, 7.0)]

    @pytest.mark.parametrize("release", [
        lambda machine: machine.finish_job(1, 4.0),
        lambda machine: machine.resize_job(1, 1, 4.0),
        lambda machine: machine.fail_cpu(0, 4.0),
        lambda machine: machine.finalize(4.0),
    ], ids=["finish", "shrink", "fail", "finalize"])
    def test_release_before_burst_start_raises(self, release):
        machine = Machine(4)  # untraced: the machine's own check must refuse
        machine.start_job(1, "a", 2, 5.0)
        with pytest.raises(ValueError, match="backwards|before burst start"):
            release(machine)

    def test_release_that_raises_changes_nothing(self):
        trace = TraceRecorder(4)
        machine = Machine(4, trace=trace)
        machine.start_job(1, "a", 1, 1.0)
        machine.resize_job(1, 2, 5.0)  # CPU 0 since 1.0, CPU 1 since 5.0
        books = pickle.dumps(machine)
        with pytest.raises(ValueError, match="backwards"):
            machine.finish_job(1, 3.0)  # CPU 0's burst could close, CPU 1's not
        assert pickle.dumps(machine) == books
        assert trace.bursts == []

    def test_seizing_an_owned_cpu_is_refused(self):
        machine = Machine(4)
        machine.start_job(1, "a", 1, 0.0)
        machine._free.add(0)  # corrupt the books: job 1's CPU looks free
        with pytest.raises(ValueError, match="non-idle"):
            machine.start_job(2, "b", 1, 1.0)


class TestMigrationAccounting:
    def test_shrink_records_migrations(self):
        trace = TraceRecorder(8)
        machine = Machine(8, trace=trace)
        machine.start_job(1, "a", 6, 0.0)
        machine.resize_job(1, 2, 1.0)
        assert trace.migrations == 4

    def test_handoff_records_migration(self):
        trace = TraceRecorder(8)
        machine = Machine(8, trace=trace)
        machine.start_job(1, "a", 8, 0.0)
        machine.resize_job(1, 4, 1.0)    # 4 migrations (threads fold)
        machine.start_job(2, "b", 4, 1.0)  # takes freed cpus: no extra
        assert trace.migrations == 4

    def test_finalize_flushes_bursts(self):
        trace = TraceRecorder(4)
        machine = Machine(4, trace=trace)
        machine.start_job(1, "a", 4, 0.0)
        machine.finalize(10.0)
        assert len(trace.bursts) == 4
        assert all(b.end == 10.0 for b in trace.bursts)


@st.composite
def machine_ops_with_faults(draw):
    """Random partition operations interleaved with fail/repair."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["start", "resize", "finish", "fail", "repair"]),
            st.integers(1, 5), st.integers(1, 11),
        ),
        min_size=1, max_size=30,
    ))


class TestIncrementalBookkeeping:
    """The O(1) counters must always agree with a ground-truth scan."""

    def test_invariants_after_partition_churn(self):
        machine = Machine(16)
        machine.start_job(1, "a", 5, 0.0)
        machine.check_invariants()
        machine.start_job(2, "b", 7, 0.0)
        machine.resize_job(1, 2, 1.0)
        machine.check_invariants()
        machine.resize_job(2, 10, 2.0)
        machine.finish_job(1, 3.0)
        machine.check_invariants()
        machine.start_job(3, "c", 6, 4.0)
        machine.finish_job(2, 5.0)
        machine.finish_job(3, 6.0)
        machine.check_invariants()
        assert machine.free_cpus == 16

    def test_invariants_through_fail_and_repair(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        owner = machine.fail_cpu(machine.partition_of(1)[0], 1.0)
        assert owner == 1
        machine.check_invariants()
        assert machine.healthy_cpus == 7
        machine.fail_cpu(7, 2.0)  # idle CPU
        machine.check_invariants()
        assert machine.healthy_cpus == 6
        machine.repair_cpu(7, 3.0)
        machine.check_invariants()
        assert machine.healthy_cpus == 7

    def test_invariants_through_degrade_and_restore(self):
        machine = Machine(8)
        machine.start_job(1, "a", 3, 0.0)
        machine.degrade_node(0, 0.5, 1.0)
        machine.check_invariants()
        machine.restore_node(0, 2.0)
        machine.check_invariants()

    def test_finalize_checks_invariants(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        machine.finish_job(1, 1.0)
        machine.finalize(2.0)  # runs check_invariants internally

    def test_corrupted_free_set_raises(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        machine._free.add(machine.partition_of(1)[0])  # corrupt the books
        with pytest.raises(MachineError):
            machine.check_invariants()

    def test_corrupted_allocation_counter_raises(self):
        machine = Machine(8)
        machine.start_job(1, "a", 4, 0.0)
        machine._n_allocated += 1
        with pytest.raises(MachineError):
            machine.check_invariants()

    @tier_settings("slow")
    @given(machine_ops_with_faults())
    def test_counters_match_ground_truth_under_random_ops(self, ops):
        machine = Machine(12)
        now = 0.0
        for op, job_id, procs in ops:
            now += 1.0
            try:
                if op == "start":
                    machine.start_job(job_id, f"app{job_id}", procs, now)
                elif op == "resize":
                    machine.resize_job(job_id, procs, now)
                elif op == "finish":
                    machine.finish_job(job_id, now)
                elif op == "fail":
                    machine.fail_cpu(procs % 12, now)
                else:
                    machine.repair_cpu(procs % 12, now)
            except MachineError:
                continue
            machine.check_invariants()


@st.composite
def machine_ops(draw):
    """A random sequence of partition operations on a small machine."""
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["start", "resize", "finish"]),
                  st.integers(1, 5), st.integers(1, 6)),
        min_size=1, max_size=30,
    ))
    return ops


class TestMachineInvariants:
    @tier_settings("standard")
    @given(machine_ops())
    def test_partitions_never_overlap_nor_overcommit(self, ops):
        machine = Machine(12)
        now = 0.0
        for op, job_id, procs in ops:
            now += 1.0
            try:
                if op == "start":
                    machine.start_job(job_id, f"app{job_id}", procs, now)
                elif op == "resize":
                    machine.resize_job(job_id, procs, now)
                else:
                    machine.finish_job(job_id, now)
            except MachineError:
                continue  # invalid transitions are rejected, state intact
            # Invariants hold after every successful operation.
            seen = set()
            for jid in machine.running_jobs():
                part = set(machine.partition_of(jid))
                assert part, f"job {jid} has an empty partition"
                assert not part & seen, "partitions overlap"
                seen |= part
            assert len(seen) <= 12
            assert machine.free_cpus == 12 - len(seen)


# ----------------------------------------------------------------------
# node-ring placement and batched bursts against the code they replaced
# ----------------------------------------------------------------------
class DecoratedSortMachine(Machine):
    """Reference: placement by one decorated sort over every CPU, and
    one ``record_burst`` call per released CPU.

    A grow ranks free CPUs by (hop distance to the partition, cpu id),
    a new partition by (node, cpu id); a shrink ranks the partition's
    CPUs by (node population, node id desc, cpu id desc).  A release
    and the end of a run close each CPU's burst in its own call.
    """

    def _grow(self, job_id, count, now):
        partition = self._partitions[job_id]
        free = sorted(self._free)
        if len(free) < count:
            raise MachineError(f"job {job_id}: need {count} free CPUs, have {len(free)}")
        node_of = self._node_of
        if not partition:
            free.sort(key=lambda c: (node_of[c], c))
            chosen = free[:count]
        else:
            nodes = {node_of[p] for p in partition}
            decorated = sorted(
                (min(bin(node_of[cpu_id] ^ node).count("1") for node in nodes), cpu_id)
                for cpu_id in free
            )
            chosen = [cpu_id for _, cpu_id in decorated[:count]]
        for cpu_id in chosen:
            self._owner[cpu_id] = job_id
            self._since[cpu_id] = now
        partition.update(chosen)
        self._free.difference_update(chosen)
        self._n_allocated += count

    def _shrink(self, job_id, count, now):
        partition = self._partitions[job_id]
        node_of = self._node_of
        population = {}
        for cpu_id in partition:
            population[node_of[cpu_id]] = population.get(node_of[cpu_id], 0) + 1
        keyed = sorted(
            (population[node_of[cpu_id]], -node_of[cpu_id], -cpu_id) for cpu_id in partition
        )
        victims = [-key[2] for key in keyed[:count]]
        self._release(victims, now)
        partition.difference_update(victims)
        return count

    def _release(self, cpu_ids, now):
        for cpu_id in cpu_ids:
            self._close_one(cpu_id, now)
            self._owner[cpu_id] = None
        self._n_allocated -= len(cpu_ids)
        self._free.update(cpu_ids)

    def finalize(self, now):
        for cpu_id, job_id in enumerate(self._owner):
            if job_id is not None:
                self._close_one(cpu_id, now)
        self.check_invariants()

    def _close_one(self, cpu_id, now):
        started = self._since[cpu_id]
        if now < started:
            raise ValueError(f"cpu {cpu_id}: time went backwards ({started} -> {now})")
        job_id = self._owner[cpu_id]
        self.trace.record_burst(Burst(cpu_id, job_id, self._app_names[job_id], started, now))
        self._since[cpu_id] = now


@st.composite
def placement_histories(draw):
    """A machine layout and a random op sequence, faults included.

    Each op is ``(kind, pick, size, dt)``; ``pick`` and ``size`` are
    read against the machine's state (see :func:`_apply_op`), so
    nearly every op starts, resizes or finishes a real partition.  Half
    the machines have up to 24 CPUs, where partitions meet often; the
    rest up to 140, so a node mask can exceed 64 bits.  Node counts
    are mostly not powers of two, and a zero ``dt`` closes zero-length
    bursts.
    """
    n_cpus = draw(st.integers(2, 24) | st.integers(2, 140))
    cpus_per_node = draw(st.integers(1, 4))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(
                ["start"] * 2 + ["resize"] * 4
                + ["finish", "fail", "repair", "degrade", "restore"]
            ),
            st.integers(0, 299), st.integers(0, 299),
            st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0),
        ),
        min_size=1, max_size=40,
    ))
    return n_cpus, cpus_per_node, ops


def _apply_op(machine, op, pick, size, now):
    """Apply one op: a start takes the next job id and up to every free
    CPU, a resize or finish picks a running job, a resize to any size
    from 1 to its partition plus the free CPUs.  Returns the outcome,
    or the message when the machine rejects the op."""
    running = machine.running_jobs()
    free = machine.free_cpus
    try:
        if op == "start":
            job_id = max(running, default=0) + 1
            return machine.start_job(job_id, f"app{job_id}", 1 + size % max(free, 1), now)
        if op in ("resize", "finish") and running:
            job_id = running[pick % len(running)]
            if op == "finish":
                return machine.finish_job(job_id, now)
            # a job that lost its only CPU with none free has bound 0:
            # its resize to 1 is then rejected
            bound = machine.allocation_of(job_id) + free
            return machine.resize_job(job_id, 1 + size % max(bound, 1), now)
        if op == "fail":
            return machine.fail_cpu(pick % machine.n_cpus, now)
        if op == "repair":
            return machine.repair_cpu(pick % machine.n_cpus, now)
        if op == "degrade":
            return machine.degrade_node(pick % machine.topology.n_nodes, 0.5, now)
        if op == "restore":
            return machine.restore_node(pick % machine.topology.n_nodes, now)
        return None
    except MachineError as exc:
        return ("rejected", str(exc))


def _trace_state(trace):
    """What a recorder keeps: bursts, or their folded busy time, with
    the horizon and migrations (floats compared bit for bit)."""
    kept = trace.burst_busy if isinstance(trace, FoldingTraceRecorder) else trace.bursts
    return repr(kept), trace.horizon.hex(), trace.migrations


class TestPlacementParity:
    @tier_settings("standard")
    @given(history=placement_histories(),
           recorder=st.sampled_from([TraceRecorder, FoldingTraceRecorder]))
    def test_ring_placement_and_batches_match_the_reference(self, history, recorder):
        n_cpus, cpus_per_node, ops = history
        machines = [
            cls(n_cpus, NumaTopology(n_cpus, cpus_per_node), trace=recorder(n_cpus))
            for cls in (Machine, DecoratedSortMachine)
        ]
        now = 0.0
        for op, pick, size, dt in ops:
            now += dt
            outcomes = [_apply_op(machine, op, pick, size, now) for machine in machines]
            assert outcomes[0] == outcomes[1], (op, pick, size)
            ringed, reference = machines
            # set iteration order follows insertion order: the chosen
            # CPUs went in in the same order
            assert [(j, list(p)) for j, p in ringed._partitions.items()] == \
                [(j, list(p)) for j, p in reference._partitions.items()]
            assert _trace_state(ringed.trace) == _trace_state(reference.trace)
            assert sorted(ringed._free) == sorted(reference._free)
            assert ringed._since == reference._since
        for machine in machines:
            machine.finalize(now + 1.0)
        assert _trace_state(machines[0].trace) == _trace_state(machines[1].trace)
