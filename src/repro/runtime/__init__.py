"""Runtime libraries: NthLib and the NANOS SelfAnalyzer.

These are the application-side halves of the NANOS environment:

* :mod:`repro.runtime.selfanalyzer` measures per-iteration execution
  times, establishes a baseline with a small processor count, and
  produces the speedup/efficiency reports that drive the dynamic
  scheduling policies.
* :mod:`repro.runtime.nthlib` is the parallel runtime: it executes the
  application's phases on the simulator, reacts to allocation changes
  decided by the resource manager, and forwards SelfAnalyzer reports.
"""
