"""Performance-Driven Processor Allocation (PDPA) — the paper's core.

PDPA is a coordinated scheduling policy with two halves:

* a **processor allocation policy** (§4.1-4.2): a per-application
  search for the maximum allocation whose measured efficiency stays
  above a target, driven by the four-state automaton
  NO_REF / INC / DEC / STABLE;
* a **multiprogramming-level policy** (§4.3): a new application may
  start "when free processors are available and the allocation of all
  the running applications is stable, or if some applications show
  bad performance".

Both halves act on performance measured at runtime by the
SelfAnalyzer — no a-priori information about the applications is
needed, which is the property that makes the scheduler
self-configuring.
"""
