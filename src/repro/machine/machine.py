"""Space-shared machine with NUMA-aware partition placement.

The machine is the enforcement half of the NANOS Resource Manager: the
scheduling policy decides *how many* processors each job gets, and the
machine decides *which* CPUs those are.  Placement follows the same
goals IRIX's affinity policy pursues — keep a job's threads where they
were, keep partitions compact on the NUMA fabric — but applied to
exclusive partitions, which is what makes the space-sharing policies
stable (few migrations, long bursts; see Table 2 of the paper).

Per-CPU ownership/burst state lives in one packed
:class:`repro.sim.columns.CpuColumns` store; ``self.cpus`` holds
lightweight views for scalar access.  The partition operations drive
the *batched* column kernels — one ``seize``/``release`` call per
event instead of one ``CpuState.assign`` call per CPU — processing
ids in exactly the order the old per-CPU loops did, so trace contents
and books stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.machine.cpu import CpuHealth, CpuState, burst_emitter
from repro.machine.topology import NumaTopology
from repro.metrics.trace import TraceRecorder
from repro.sim.columns import HEALTH_OFFLINE, CpuColumns
from repro.sim.slots import set_slot_state, slot_state


class MachineError(RuntimeError):
    """Raised on invalid partition operations (overcommit, unknown job)."""


class Machine:
    """A multiprocessor divided into per-job exclusive partitions.

    Parameters
    ----------
    n_cpus:
        Number of CPUs usable for the workload (the paper uses 60 of
        the Origin 2000's 64, keeping the rest for system activity and
        the tracing tool).
    topology:
        NUMA topology; a default 2-CPUs-per-node layout is created when
        omitted.
    trace:
        Optional recorder receiving bursts, migrations and
        reallocation records.
    """

    __slots__ = (
        "n_cpus", "topology", "trace", "_emit", "_cols", "cpus", "_partitions",
        "_app_names", "_node_speed", "_free", "_n_offline", "_n_allocated",
        "_node_of", "_nodes_monotonic", "_dist_rows",
    )

    def __init__(
        self,
        n_cpus: int = 60,
        topology: Optional[NumaTopology] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        self.n_cpus = n_cpus
        self.topology = topology or NumaTopology(n_cpus)
        if self.topology.n_cpus != n_cpus:
            raise ValueError(
                f"topology covers {self.topology.n_cpus} CPUs, machine has {n_cpus}"
            )
        self.trace = trace
        #: burst-emission callback for the column kernels (None when
        #: untraced); a closure, so derived — rebuilt on unpickle.
        self._emit = burst_emitter(trace)
        self._cols = CpuColumns(n_cpus)
        self.cpus: List[CpuState] = [
            CpuState(i, self._cols, i) for i in range(n_cpus)
        ]
        self._partitions: Dict[int, Set[int]] = {}
        self._app_names: Dict[int, str] = {}
        #: speed factor per degraded NUMA node (absent = full speed)
        self._node_speed: Dict[int, float] = {}
        # Incrementally maintained views of the CPU list, so the hot
        # queries (free_cpus / healthy_cpus, every allocation decision)
        # are O(1) instead of O(n_cpus) scans.  Invariants are checked
        # against the ground truth by check_invariants().
        self._free: Set[int] = set(range(n_cpus))
        self._n_offline = 0
        self._n_allocated = 0
        #: cpu id -> NUMA node, precomputed for the placement hot path
        self._node_of: List[int] = [
            self.topology.node_of(i) for i in range(n_cpus)
        ]
        # With node ids monotone in cpu id (true for the default
        # layout), sorting free CPUs by (node, id) is the identity on
        # an id-sorted list, so new-partition placement can skip the
        # sort entirely.
        self._nodes_monotonic = all(
            self._node_of[i] <= self._node_of[i + 1] for i in range(n_cpus - 1)
        )
        #: per-node hypercube-distance rows, built lazily (derived)
        self._dist_rows: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # pickling: canonical form for the set-valued books
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # Small-int sets iterate in insertion-history order (hash-slot
        # collisions resolve by arrival), so pickling them directly
        # makes snapshot bytes depend on how a partition was assembled
        # and breaks the checkpoint layer's save→restore→save
        # fixed-point contract.  Sorted lists are the canonical form.
        # The per-CPU views and the distance cache are derived state:
        # dropping them shrinks the envelope and they rebuild exactly.
        state = slot_state(self)
        del state["cpus"]
        del state["_dist_rows"]
        del state["_emit"]
        state["_free"] = sorted(self._free)
        state["_partitions"] = {
            job: sorted(cpus) for job, cpus in self._partitions.items()
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state["_free"] = set(state["_free"])
        state["_partitions"] = {
            job: set(cpus) for job, cpus in state["_partitions"].items()
        }
        set_slot_state(self, state)
        self._dist_rows = {}
        self._emit = burst_emitter(self.trace)
        self.cpus = [
            CpuState(i, self._cols, i) for i in range(self.n_cpus)
        ]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def healthy_cpus(self) -> int:
        """CPUs the allocator may still use (ONLINE or DEGRADED)."""
        return self.n_cpus - self._n_offline

    @property
    def free_cpus(self) -> int:
        """Number of allocatable CPUs not owned by any partition."""
        return len(self._free)

    @property
    def allocated_cpus(self) -> int:
        """Number of CPUs currently inside partitions."""
        return self._n_allocated

    def allocation_of(self, job_id: int) -> int:
        """Partition size of *job_id* (0 if the job has no partition)."""
        return len(self._partitions.get(job_id, ()))

    def partition_of(self, job_id: int) -> List[int]:
        """Sorted CPU ids of the job's partition."""
        return sorted(self._partitions.get(job_id, ()))

    def running_jobs(self) -> List[int]:
        """Job ids that currently hold a partition."""
        return sorted(self._partitions)

    def allocations(self) -> Dict[int, int]:
        """Mapping of job id to partition size."""
        return {job: len(cpus) for job, cpus in self._partitions.items()}

    # ------------------------------------------------------------------
    # partition management
    # ------------------------------------------------------------------
    def start_job(self, job_id: int, app_name: str, procs: int, now: float) -> int:
        """Create a partition for a newly started job.

        Returns the number of CPUs actually granted (always == procs;
        the caller must not overcommit).
        """
        if job_id in self._partitions:
            raise MachineError(
                f"job {job_id} already has a partition "
                f"{sorted(self._partitions[job_id])}"
            )
        if procs < 1:
            raise MachineError(f"job {job_id}: initial allocation must be >= 1")
        if procs > self.free_cpus:
            raise MachineError(
                f"job {job_id}: requested {procs} CPUs but only {self.free_cpus} "
                f"free ({self.healthy_cpus} healthy of {self.n_cpus}; "
                f"partitions {self.allocations()})"
            )
        self._partitions[job_id] = set()
        self._app_names[job_id] = app_name
        self._grow(job_id, procs, now)
        return procs

    def resize_job(self, job_id: int, procs: int, now: float) -> int:
        """Resize a partition to *procs* CPUs; returns thread migrations.

        Shrinking releases the least locality-valuable CPUs first;
        growing grabs free CPUs closest to the existing partition.
        Every CPU that leaves a still-running partition forces its
        kernel thread to migrate onto the remaining CPUs, so the
        migration count equals the number of CPUs removed (plus any
        CPUs acquired that were just vacated by another job, which the
        trace counts when the new owner is assigned).
        """
        if job_id not in self._partitions:
            raise MachineError(
                f"job {job_id} has no partition to resize "
                f"(jobs holding partitions: {self.running_jobs()})"
            )
        if procs < 1:
            raise MachineError(
                f"job {job_id}: allocation must stay >= 1, got {procs} "
                f"(current partition {self.partition_of(job_id)})"
            )
        current = len(self._partitions[job_id])
        if procs == current:
            return 0
        if procs > current:
            needed = procs - current
            if needed > self.free_cpus:
                raise MachineError(
                    f"job {job_id}: growing partition "
                    f"{self.partition_of(job_id)} by {needed} but only "
                    f"{self.free_cpus} CPUs free "
                    f"({self.healthy_cpus} healthy of {self.n_cpus})"
                )
            self._grow(job_id, needed, now)
            return 0
        removed = self._shrink(job_id, current - procs, now)
        if self.trace is not None:
            self.trace.record_migrations(removed)
        return removed

    def finish_job(self, job_id: int, now: float) -> None:
        """Release the job's partition (job completed)."""
        if job_id not in self._partitions:
            raise MachineError(
                f"job {job_id} has no partition to release "
                f"(jobs holding partitions: {self.running_jobs()})"
            )
        released = list(self._partitions[job_id])
        self._cols.release(released, now, self._emit)
        self._n_allocated -= len(released)
        if self._n_offline:
            health = self._cols.health
            self._free.update(
                cpu_id for cpu_id in released if health[cpu_id] != HEALTH_OFFLINE
            )
        else:
            self._free.update(released)
        del self._partitions[job_id]
        del self._app_names[job_id]

    def finalize(self, now: float) -> None:
        """Flush all in-progress bursts into the trace (end of run)."""
        self._cols.flush_all(now, self._emit)
        self.check_invariants()

    def check_invariants(self) -> None:
        """Verify the incremental books against the CPU ground truth.

        Recomputes the free set, offline count and allocation count by
        scanning ``self.cpus`` / ``self._partitions`` and raises
        :class:`MachineError` on any divergence.  Cheap enough to call
        once per run (finalize) and from tests after every mutation.
        """
        true_offline = sum(1 for c in self.cpus if not c.allocatable)
        true_free = {
            c.cpu_id for c in self.cpus if c.idle and c.allocatable
        }
        true_allocated = sum(len(p) for p in self._partitions.values())
        owned = set()
        for job_id, partition in self._partitions.items():
            for cpu_id in partition:
                if self.cpus[cpu_id].owner != job_id:
                    raise MachineError(
                        f"invariant violation: CPU {cpu_id} in partition of "
                        f"job {job_id} but owned by {self.cpus[cpu_id].owner}"
                    )
                if cpu_id in owned:
                    raise MachineError(
                        f"invariant violation: CPU {cpu_id} in two partitions"
                    )
                owned.add(cpu_id)
        if self._n_offline != true_offline:
            raise MachineError(
                f"invariant violation: offline count {self._n_offline} != "
                f"actual {true_offline}"
            )
        if self._n_allocated != true_allocated:
            raise MachineError(
                f"invariant violation: allocated count {self._n_allocated} != "
                f"actual {true_allocated}"
            )
        if self._free != true_free:
            raise MachineError(
                f"invariant violation: free set {sorted(self._free)} != "
                f"actual {sorted(true_free)}"
            )

    # ------------------------------------------------------------------
    # fault operations (used by repro.faults via the resource manager)
    # ------------------------------------------------------------------
    def cpu_health(self, cpu_id: int) -> CpuHealth:
        """Health of one CPU (IndexError on bad id)."""
        return self.cpus[cpu_id].health

    def offline_cpus(self) -> List[int]:
        """Ids of CPUs currently OFFLINE."""
        return [c.cpu_id for c in self.cpus if c.health is CpuHealth.OFFLINE]

    def fail_cpu(self, cpu_id: int, now: float) -> Optional[int]:
        """Take one CPU OFFLINE; returns the job that owned it (if any).

        The CPU is evicted from its partition immediately (its burst is
        closed), so the machine's books never show a job on a failed
        CPU.  The caller — normally the resource manager — decides how
        to repair the shrunken partition.

        Raises
        ------
        MachineError
            If this is the last allocatable CPU: a machine with zero
            healthy CPUs cannot make progress, and refusing loudly is
            better than deadlocking the workload.
        """
        if not 0 <= cpu_id < self.n_cpus:
            raise MachineError(f"no such CPU {cpu_id} (machine has {self.n_cpus})")
        cpu = self.cpus[cpu_id]
        if cpu.health is CpuHealth.OFFLINE:
            return None
        if self.healthy_cpus <= 1:
            raise MachineError(
                f"cannot take CPU {cpu_id} offline: it is the last "
                f"allocatable CPU (offline: {self.offline_cpus()})"
            )
        owner = cpu.owner
        if owner is not None:
            cpu.assign(None, "", now, self.trace)
            self._partitions[owner].discard(cpu_id)
            self._n_allocated -= 1
            if self.trace is not None:
                self.trace.record_migrations(1)
        cpu.health = CpuHealth.OFFLINE
        self._n_offline += 1
        self._free.discard(cpu_id)
        return owner

    def repair_cpu(self, cpu_id: int, now: float) -> bool:
        """Bring a failed/degraded CPU back ONLINE; True if state changed."""
        if not 0 <= cpu_id < self.n_cpus:
            raise MachineError(f"no such CPU {cpu_id} (machine has {self.n_cpus})")
        cpu = self.cpus[cpu_id]
        if cpu.health is CpuHealth.ONLINE:
            return False
        was_offline = cpu.health is CpuHealth.OFFLINE
        node = self.topology.node_of(cpu_id)
        cpu.health = (
            CpuHealth.DEGRADED if node in self._node_speed else CpuHealth.ONLINE
        )
        if was_offline:
            self._n_offline -= 1
            if cpu.idle:
                self._free.add(cpu_id)
        return True

    def degrade_node(self, node: int, factor: float, now: float) -> List[int]:
        """Mark a NUMA node DEGRADED at *factor* speed; returns its CPUs.

        OFFLINE CPUs on the node stay OFFLINE (a repair will land them
        in DEGRADED while the node is slow).
        """
        if not 0.0 < factor <= 1.0:
            raise MachineError(f"node speed factor must be in (0, 1], got {factor}")
        cpus = self.topology.cpus_of_node(node)
        self._node_speed[node] = factor
        for cpu_id in cpus:
            if self.cpus[cpu_id].health is CpuHealth.ONLINE:
                self.cpus[cpu_id].health = CpuHealth.DEGRADED
        return cpus

    def restore_node(self, node: int, now: float) -> List[int]:
        """Restore a degraded NUMA node to full speed; returns its CPUs."""
        cpus = self.topology.cpus_of_node(node)
        self._node_speed.pop(node, None)
        for cpu_id in cpus:
            if self.cpus[cpu_id].health is CpuHealth.DEGRADED:
                self.cpus[cpu_id].health = CpuHealth.ONLINE
        return cpus

    def partition_speed_factor(self, job_id: int) -> float:
        """Speed factor of a job's partition (1.0 = full speed).

        A parallel iteration advances at the pace of its slowest
        thread, so the partition runs at the *minimum* factor of its
        CPUs' nodes.
        """
        if not self._node_speed:
            return 1.0
        partition = self._partitions.get(job_id)
        if not partition:
            return 1.0
        return min(
            self._node_speed.get(self.topology.node_of(cpu_id), 1.0)
            for cpu_id in partition
        )

    # ------------------------------------------------------------------
    # placement internals
    # ------------------------------------------------------------------
    def _dist_row(self, node: int) -> List[int]:
        """Hypercube hop count from *node* to every node (cached)."""
        row = self._dist_rows.get(node)
        if row is None:
            n_nodes = self.topology.n_nodes
            row = [bin(node ^ other).count("1") for other in range(n_nodes)]
            self._dist_rows[node] = row
        return row

    def _grow(self, job_id: int, count: int, now: float) -> None:
        """Grow the partition by *count* CPUs closest to it.

        Placement picks from the free set in ascending-id order with
        NUMA-affinity ranking; the batched ``seize`` kernel then
        assigns all chosen CPUs in one call.  All chosen CPUs come
        from the free set, which only ever holds idle allocatable
        CPUs, so no burst closes and no migration is possible here;
        seize() enforces idleness.
        """
        partition = self._partitions[job_id]
        free = sorted(self._free)
        if len(free) < count:
            raise MachineError(
                f"job {job_id}: need {count} free CPUs, have {len(free)} "
                f"(partition {sorted(partition)}, free {free}, "
                f"offline {self.offline_cpus()})"
            )
        node_of = self._node_of
        if not partition:
            # New partition: take the most compact run of free CPUs by
            # sorting on node and preferring whole nodes.  With node
            # ids monotone in cpu id (the default layout) the
            # id-sorted list already is that order.
            if not self._nodes_monotonic:
                free.sort(key=lambda c: (node_of[c], c))
            chosen = free[:count]
        else:
            # Distance from a candidate to the partition only depends
            # on NUMA nodes, so compute the minimum hop count once per
            # node from the cached distance rows (0 on-node; two
            # distinct nodes always differ in >= 1 bit, matching the
            # old max(dist, 1)).  The decorated sort reproduces the
            # old (distance, cpu_id) affinity order without a
            # per-element key callback.
            part_nodes = {node_of[p] for p in partition}
            rows = [
                self._dist_row(node) for node in part_nodes  # repro: allow(DET105): order only feeds min(), which is order-independent
            ]
            dmin: Dict[int, int] = {}
            decorated = []
            for cpu_id in free:
                node = node_of[cpu_id]
                dist = dmin.get(node)
                if dist is None:
                    dist = dmin[node] = min(row[node] for row in rows)
                decorated.append((dist, cpu_id))
            decorated.sort()
            chosen = [pair[1] for pair in decorated[:count]]
        self._cols.seize(chosen, job_id, self._app_names[job_id], now)
        partition.update(chosen)
        self._free.difference_update(chosen)
        self._n_allocated += count

    def _shrink(self, job_id: int, count: int, now: float) -> int:
        """Release *count* CPUs from the least-populated nodes first.

        Giving back stragglers keeps the remaining partition compact,
        preserving data locality for the job that shrinks.  One
        composite-key sort — (node population, node id desc, cpu id
        desc) — reproduces the old nodes-then-cpus nested victim
        ordering; the batched ``release`` kernel closes the victims'
        bursts in that exact order.
        """
        partition = self._partitions[job_id]
        node_of = self._node_of
        population: Dict[int, int] = {}
        decorated = []
        for cpu_id in partition:
            node = node_of[cpu_id]
            population[node] = population.get(node, 0) + 1
            decorated.append((node, cpu_id))
        keyed = [
            (population[node], -node, -cpu_id) for node, cpu_id in decorated
        ]
        keyed.sort()
        victims = [-key[2] for key in keyed[:count]]
        self._cols.release(victims, now, self._emit)
        partition.difference_update(victims)
        self._n_allocated -= count
        if self._n_offline:
            health = self._cols.health
            self._free.update(
                cpu_id for cpu_id in victims if health[cpu_id] != HEALTH_OFFLINE
            )
        else:
            self._free.update(victims)
        return count
