"""NUMA topology of the simulated machine.

The SGI Origin 2000 is built from dual-processor nodes connected by a
fat hypercube; memory access cost grows with router hops.  For
scheduling purposes what matters is *grouping*: a partition whose CPUs
sit on few nodes enjoys better data locality, and the placement code
in :mod:`repro.machine.machine` uses the topology to prefer compact
partitions (the paper highlights data locality as an issue simulations
usually miss).
"""

from __future__ import annotations

from typing import List, Sequence


class NumaTopology:
    """CPUs grouped into NUMA nodes with a hop-count distance metric.

    Parameters
    ----------
    n_cpus:
        Total number of CPUs.
    cpus_per_node:
        CPUs per NUMA node (Origin 2000 nodes hold 2; the default of 2
        matches it).  The last node may be smaller if ``n_cpus`` is not
        a multiple.

    Nodes hold consecutive CPU ids (``node_of(cpu)`` is
    ``cpu // cpus_per_node``), so node ids never decrease as CPU ids
    grow.  The machine's placement relies on it: in an id-sorted list
    of CPUs each node's CPUs are adjacent.
    """

    __slots__ = ("n_cpus", "cpus_per_node")

    def __init__(self, n_cpus: int, cpus_per_node: int = 2) -> None:
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        if cpus_per_node < 1:
            raise ValueError(f"cpus_per_node must be >= 1, got {cpus_per_node}")
        self.n_cpus = n_cpus
        self.cpus_per_node = cpus_per_node

    @property
    def n_nodes(self) -> int:
        """Number of NUMA nodes."""
        return (self.n_cpus + self.cpus_per_node - 1) // self.cpus_per_node

    def node_of(self, cpu: int) -> int:
        """NUMA node that hosts *cpu*."""
        self._check_cpu(cpu)
        return cpu // self.cpus_per_node

    def cpus_of_node(self, node: int) -> List[int]:
        """CPU ids belonging to *node*."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        first = node * self.cpus_per_node
        return list(range(first, min(first + self.cpus_per_node, self.n_cpus)))

    def distance(self, cpu_a: int, cpu_b: int) -> int:
        """Hop distance between two CPUs.

        0 on the same node; otherwise the hypercube hop count between
        the two nodes (Hamming distance of the node numbers), which is
        how the Origin 2000 router fabric is organised.
        """
        node_a = self.node_of(cpu_a)
        node_b = self.node_of(cpu_b)
        if node_a == node_b:
            return 0
        return max(bin(node_a ^ node_b).count("1"), 1)

    def spread(self, cpus: Sequence[int]) -> int:
        """Number of distinct nodes a CPU set spans (1 = fully compact)."""
        if not cpus:
            return 0
        return len({self.node_of(cpu) for cpu in cpus})

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.n_cpus:
            raise ValueError(f"cpu {cpu} out of range [0, {self.n_cpus})")
