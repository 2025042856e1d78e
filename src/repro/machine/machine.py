"""Space-shared machine with NUMA-aware partition placement.

The machine is the enforcement half of the NANOS Resource Manager: the
scheduling policy decides *how many* processors each job gets, and the
machine decides *which* CPUs those are.  Placement follows the same
goals IRIX's affinity policy pursues — keep a job's threads where they
were, keep partitions compact on the NUMA fabric — but applied to
exclusive partitions, which is what makes the space-sharing policies
stable (few migrations, long bursts; see Table 2 of the paper).

Each CPU's state is one slot in three plain lists indexed by CPU id:
``_owner`` (the owning job id, or ``None`` when idle), ``_since`` (the
start of the current burst) and ``_health`` (a :class:`CpuHealth`).
A grow walks rings of NUMA nodes outward from the partition, as bit
masks, and seizes its chosen CPUs in one loop.  A finish, a shrink
and a CPU failure all close their bursts through ``_release``, and
``finalize`` flushes whatever is still open, in id order; both check
every burst's start before they change anything and hand the trace
all the bursts in one batch.  A burst takes its application name from
the owner's partition.
"""

from __future__ import annotations

import enum
from functools import cache, reduce
from itertools import chain, groupby, islice
from operator import or_
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.machine.topology import NumaTopology
from repro.metrics.trace import Burst, TraceRecorder
from repro.sim.slots import set_slot_state, slot_state


class MachineError(RuntimeError):
    """Raised on invalid partition operations (overcommit, unknown job)."""


class CpuHealth(enum.Enum):
    """Health of one CPU, as seen by the allocator.

    * ``ONLINE`` — fully functional (the only state the no-fault path
      ever sees);
    * ``DEGRADED`` — functional but slow, e.g. its NUMA node's router
      or memory is throttled; still allocatable;
    * ``OFFLINE`` — failed; never allocatable until repaired.
    """

    ONLINE = "online"
    DEGRADED = "degraded"
    OFFLINE = "offline"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@cache
def _flips(n_nodes: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(shift, mask)`` pair of each hypercube dimension of
    *n_nodes* nodes.

    Flipping bit ``d`` of a node id moves it ``shift = 2**d`` up or
    down.  *mask* holds the nodes that can move up, those with bit
    ``d`` clear and a node ``shift`` above them, so for a node mask
    ``m`` the neighbours along ``d`` are ``(m & mask) << shift`` and
    ``(m >> shift) & mask``.  Cached per node count, not per machine:
    a restored machine rebuilds nothing.
    """
    pairs = []
    shift = 1
    while shift < n_nodes:
        mask = sum(1 << node for node in range(n_nodes - shift) if not node & shift)
        pairs.append((shift, mask))
        shift <<= 1
    return tuple(pairs)


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
        "n_cpus", "topology", "trace", "_owner", "_since", "_health",
        "_partitions", "_app_names", "node_speed", "_free", "_n_offline",
        "_n_allocated", "_node_of",
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
        #: per CPU: the owning job id (None when idle), the start of
        #: the current burst, and the health
        self._owner: List[Optional[int]] = [None] * n_cpus
        self._since: List[float] = [0.0] * n_cpus
        self._health: List[CpuHealth] = [CpuHealth.ONLINE] * n_cpus
        self._partitions: Dict[int, Set[int]] = {}
        self._app_names: Dict[int, str] = {}
        #: speed factor per degraded NUMA node (absent = full speed);
        #: read-only outside this class: empty means no node is slow
        self.node_speed: Dict[int, float] = {}
        # Incrementally maintained views of the CPU lists, so the hot
        # queries (free_cpus / healthy_cpus, every allocation decision)
        # are O(1) instead of O(n_cpus) scans.  Invariants are checked
        # against the ground truth by check_invariants().
        self._free: Set[int] = set(range(n_cpus))
        self._n_offline = 0
        self._n_allocated = 0
        #: cpu id -> NUMA node, precomputed for the placement hot path
        #: (non-decreasing in cpu id: see NumaTopology)
        self._node_of: List[int] = [
            self.topology.node_of(i) for i in range(n_cpus)
        ]

    # ------------------------------------------------------------------
    # pickling: canonical form for the set-valued books
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # Small-int sets iterate in insertion-history order (hash-slot
        # collisions resolve by arrival), so pickling them directly
        # makes snapshot bytes depend on how a partition was assembled
        # and breaks the checkpoint layer's save→restore→save
        # fixed-point contract.  Sorted lists are the canonical form.
        state = slot_state(self)
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
        # id order, not the set's: bursts are emitted in release order,
        # and a restore rebuilds the set from a sorted list
        self._release(sorted(self._partitions[job_id]), now)
        del self._partitions[job_id]
        del self._app_names[job_id]

    def finalize(self, now: float) -> None:
        """Flush all in-progress bursts into the trace, in id order (end of run).

        Each owned CPU's burst closes at *now* and a new one starts
        there, so a second call emits nothing.
        """
        held = [cpu_id for cpu_id, job_id in enumerate(self._owner) if job_id is not None]
        self._close_bursts(held, now)
        since = self._since
        for cpu_id in held:
            since[cpu_id] = now
        self.check_invariants()

    def check_invariants(self) -> None:
        """Verify the incremental books against the CPU ground truth.

        Recomputes the free set, offline count and allocation count
        from the per-CPU lists and ``self._partitions`` and raises
        :class:`MachineError` on any divergence.  Every owned CPU sits
        in its owner's partition and none is OFFLINE, so with the
        counts agreeing, free + allocated = healthy and no offline CPU
        is owned.  Cheap enough to call once per run (finalize) and
        from tests after every mutation.
        """
        owner = self._owner
        health = self._health
        true_offline = health.count(CpuHealth.OFFLINE)
        true_free = {
            cpu_id for cpu_id in range(self.n_cpus)
            if owner[cpu_id] is None and health[cpu_id] is not CpuHealth.OFFLINE
        }
        true_allocated = sum(len(p) for p in self._partitions.values())
        owned = set()
        for job_id, partition in self._partitions.items():
            for cpu_id in partition:
                if owner[cpu_id] != job_id:
                    raise MachineError(
                        f"invariant violation: CPU {cpu_id} in partition of "
                        f"job {job_id} but owned by {owner[cpu_id]}"
                    )
                if cpu_id in owned:
                    raise MachineError(
                        f"invariant violation: CPU {cpu_id} in two partitions"
                    )
                if health[cpu_id] is CpuHealth.OFFLINE:
                    raise MachineError(
                        f"invariant violation: OFFLINE CPU {cpu_id} in "
                        f"partition of job {job_id}"
                    )
                owned.add(cpu_id)
        for cpu_id, job_id in enumerate(owner):
            if job_id is not None and cpu_id not in owned:
                raise MachineError(
                    f"invariant violation: CPU {cpu_id} owned by job {job_id} "
                    f"but in no partition"
                )
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
        return self._health[cpu_id]

    def offline_cpus(self) -> List[int]:
        """Ids of CPUs currently OFFLINE."""
        return [
            cpu_id for cpu_id, health in enumerate(self._health)
            if health is CpuHealth.OFFLINE
        ]

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
        if self._health[cpu_id] is CpuHealth.OFFLINE:
            return None
        if self.healthy_cpus <= 1:
            raise MachineError(
                f"cannot take CPU {cpu_id} offline: it is the last "
                f"allocatable CPU (offline: {self.offline_cpus()})"
            )
        owner = self._owner[cpu_id]
        if owner is not None:
            self._release([cpu_id], now)
            self._partitions[owner].discard(cpu_id)
            if self.trace is not None:
                self.trace.record_migrations(1)
        self._health[cpu_id] = CpuHealth.OFFLINE
        self._n_offline += 1
        self._free.discard(cpu_id)
        return owner

    def repair_cpu(self, cpu_id: int, now: float) -> bool:
        """Bring a failed CPU back; True if it was OFFLINE.

        The CPU comes back DEGRADED while its node is slow, else
        ONLINE.  A CPU that has not failed is left alone: a DEGRADED
        one is slow because of its node, and only ``restore_node``
        clears that.
        """
        if not 0 <= cpu_id < self.n_cpus:
            raise MachineError(f"no such CPU {cpu_id} (machine has {self.n_cpus})")
        if self._health[cpu_id] is not CpuHealth.OFFLINE:
            return False
        self._health[cpu_id] = (
            CpuHealth.DEGRADED if self._node_of[cpu_id] in self.node_speed
            else CpuHealth.ONLINE
        )
        self._n_offline -= 1
        # an OFFLINE CPU is never owned: fail_cpu evicts its owner
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
        self.node_speed[node] = factor
        health = self._health
        for cpu_id in cpus:
            if health[cpu_id] is CpuHealth.ONLINE:
                health[cpu_id] = CpuHealth.DEGRADED
        return cpus

    def restore_node(self, node: int, now: float) -> List[int]:
        """Restore a degraded NUMA node to full speed; returns its CPUs."""
        cpus = self.topology.cpus_of_node(node)
        self.node_speed.pop(node, None)
        health = self._health
        for cpu_id in cpus:
            if health[cpu_id] is CpuHealth.DEGRADED:
                health[cpu_id] = CpuHealth.ONLINE
        return cpus

    def partition_speed_factor(self, job_id: int) -> float:
        """Speed factor of a job's partition (1.0 = full speed).

        A parallel iteration advances at the pace of its slowest
        thread, so the partition runs at the *minimum* factor of its
        CPUs' nodes.
        """
        if not self.node_speed:
            return 1.0
        partition = self._partitions.get(job_id)
        if not partition:
            return 1.0
        return min(
            self.node_speed.get(self.topology.node_of(cpu_id), 1.0)
            for cpu_id in partition
        )

    # ------------------------------------------------------------------
    # placement internals
    # ------------------------------------------------------------------
    def _grow(self, job_id: int, count: int, now: float) -> None:
        """Grow the partition by *count* CPUs closest to it.

        Placement takes free CPUs in (hop distance to the partition,
        cpu id) order: a new partition takes the lowest ids, which is
        the most compact run because node ids grow with cpu ids.  A
        partition's nodes form a bit mask, the ring at distance 0; the
        next ring is every node one bit flip away from the nodes seen
        so far, less those (:func:`_flips`).  Hop distance is the
        Hamming distance of node ids, and clearing bits before setting
        them walks a shortest path whose ids stay at or below the
        larger end's, so the rings, which never leave the machine's
        nodes, give each node its hop distance to the partition.  Each
        ring's free CPUs come out of the id-sorted free list in id
        order, and the walk stops once *count* are found.  All chosen
        CPUs come from the free set, which only ever holds idle
        allocatable CPUs, so no burst closes and no migration is
        possible here; the seizing loop refuses a CPU that is not idle.
        """
        partition = self._partitions[job_id]
        free = sorted(self._free)
        if len(free) < count:
            raise MachineError(
                f"job {job_id}: need {count} free CPUs, have {len(free)} "
                f"(partition {sorted(partition)}, free {free}, "
                f"offline {self.offline_cpus()})"
            )
        if not partition:
            chosen = free[:count]
        else:
            node_of = self._node_of
            # ring 0: the OR of 1 << node over the partition's CPUs
            seen = ring = reduce(
                or_, map((1).__lshift__, map(node_of.__getitem__, partition))
            )
            flips = _flips(self.topology.n_nodes)
            chosen = []
            while True:
                for cpu_id in free:
                    if ring >> node_of[cpu_id] & 1:
                        chosen.append(cpu_id)
                if len(chosen) >= count:
                    break
                grown = seen
                for shift, mask in flips:
                    grown |= (seen & mask) << shift | (seen >> shift) & mask
                ring = grown ^ seen
                seen = grown
            del chosen[count:]
        owner = self._owner
        since = self._since
        for cpu_id in chosen:
            if owner[cpu_id] is not None:
                raise ValueError(
                    f"cpu {cpu_id}: seize of non-idle CPU (owner {owner[cpu_id]})"
                )
            owner[cpu_id] = job_id
            since[cpu_id] = now
        partition.update(chosen)
        self._free.difference_update(chosen)
        self._n_allocated += count

    def _shrink(self, job_id: int, count: int, now: float) -> int:
        """Release *count* CPUs from the least-populated nodes first.

        Giving back stragglers keeps the remaining partition compact,
        preserving data locality for the job that shrinks.  Victims go
        in (node population, node id desc, cpu id desc) order: node ids
        never decrease with cpu id (see NumaTopology), so the partition
        sorted by descending id falls into one run per node in
        descending node order, and a stable sort of those runs by
        length gives that order.  Their bursts close in exactly that
        order.
        """
        partition = self._partitions[job_id]
        runs = [
            list(run)
            for _, run in groupby(sorted(partition, reverse=True), self._node_of.__getitem__)
        ]
        runs.sort(key=len)
        victims = list(islice(chain.from_iterable(runs), count))
        self._release(victims, now)
        partition.difference_update(victims)
        return count

    def _release(self, cpu_ids: List[int], now: float) -> None:
        """Return the owned CPUs *cpu_ids* to idle, closing their bursts.

        The one path that closes bursts when CPUs leave a partition (a
        finish, a shrink or a failure).  The caller removes the CPUs
        from the partition.  A partition never holds an OFFLINE CPU
        (``fail_cpu`` releases one before marking it), so every
        released CPU is free again.
        """
        self._close_bursts(cpu_ids, now)
        owner = self._owner
        since = self._since
        for cpu_id in cpu_ids:
            owner[cpu_id] = None
            since[cpu_id] = now
        self._n_allocated -= len(cpu_ids)
        self._free.update(cpu_ids)

    def _close_bursts(self, cpu_ids: List[int], now: float) -> None:
        """Hand the trace the bursts of the owned CPUs *cpu_ids*, ending
        at *now*, in that order and as one batch.

        Every start is checked before the trace sees any burst: one
        after *now* raises ``ValueError`` with nothing changed.  The
        caller starts each CPU's next burst at *now*.
        """
        since = self._since
        owner = self._owner
        app_names = self._app_names
        bursts = []
        for cpu_id in cpu_ids:
            started = since[cpu_id]
            if now < started:
                raise ValueError(
                    f"cpu {cpu_id}: time went backwards ({started} -> {now})"
                )
            job_id = owner[cpu_id]
            bursts.append(Burst(cpu_id, job_id, app_names[job_id], started, now))
        if self.trace is not None:
            self.trace.record_bursts(bursts)
