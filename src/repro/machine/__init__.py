"""Machine model: a CC-NUMA shared-memory multiprocessor.

Stands in for the paper's SGI Origin 2000 (64 processors, of which 60
are used for the workloads).  The machine tracks:

* which job owns each CPU, and each running job's partition (space
  sharing),
* per-CPU activity bursts (feeding the Paraver-style analyses),
* kernel-thread migrations caused by reallocations,
* each CPU's health under fault injection,
* NUMA placement, so partitions prefer topologically close CPUs.
"""

from repro.machine.topology import NumaTopology
from repro.machine.machine import CpuHealth, Machine, MachineError

__all__ = ["NumaTopology", "CpuHealth", "Machine", "MachineError"]
