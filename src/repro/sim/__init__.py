"""Discrete-event simulation substrate.

The whole NANOS execution environment (queuing system, resource
manager, runtime library, applications, machine) is driven by a single
deterministic discrete-event :class:`~repro.sim.engine.Simulator`.

This package is intentionally generic: it knows nothing about
scheduling policies or applications.  Higher layers schedule callbacks
on the simulator and react to each other through those callbacks.
"""
