"""The NANOS Resource Manager: the user-level processor scheduler.

The RM "1) decides how many processors to allocate to each application
and 2) enforces the processor scheduling policy decisions".  Decisions
are made by a pluggable :class:`~repro.rm.base.SchedulingPolicy`
(Equipartition, Equal_efficiency, PDPA); enforcement maps allocation
counts to actual CPUs on the :class:`~repro.machine.machine.Machine`.

The native IRIX scheduler is modelled separately by
:class:`~repro.rm.irix.IrixResourceManager`: it time-shares kernel
threads over the CPUs instead of space-sharing exclusive partitions,
and it never coordinates with the queuing system.
"""
