"""Fault injection and graceful degradation (robustness subsystem).

The paper's schedulers assume a healthy machine; this package asks
what happens when it is not.  A declarative :class:`FaultPlan` (CPU
failures, NUMA slowdowns, application crashes/hangs, SelfAnalyzer
report loss) is executed by a deterministic :class:`FaultInjector`,
and the machine / resource-manager / queuing-system layers degrade
gracefully instead of wedging: partitions are repaired or shrunk,
stale-measurement jobs fall back to an equal share, hung jobs are
killed by a watchdog, and killed jobs retry with capped backoff.
"""
