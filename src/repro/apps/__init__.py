"""Application models.

The paper's evaluation uses four OpenMP applications that cover the
spectrum of scalability (Fig. 3):

* ``swim``     — superlinear speedup (SpecFP95),
* ``bt.A``     — good scalability (NAS Parallel Benchmarks),
* ``hydro2d``  — medium scalability (SpecFP95),
* ``apsi``     — does not scale at all (SpecFP95).

We model each as a *malleable iterative application*: a sequential
startup phase, ``iterations`` executions of an iterative parallel
region whose duration is governed by a calibrated speedup curve, and a
sequential teardown phase.  This is exactly the application structure
the NANOS SelfAnalyzer exploits.
"""
