"""The NANOS Queuing System and workload tooling.

* :mod:`repro.qs.job` — the job abstraction shared by all layers.
* :mod:`repro.qs.queuing` — the user-level submission tool: FCFS job
  queue, repeatable submission of workload traces, multiprogramming
  level enforced in coordination with the resource manager.
* :mod:`repro.qs.workload` — workload generation following the paper:
  Poisson arrivals over 300 seconds at an estimated processor demand
  of 60/80/100% of machine capacity, mixes from Table 1.
* :mod:`repro.qs.swf` — reader/writer for Feitelson's Standard
  Workload Format, the trace file format the paper's workloads use;
  the lenient incremental reader (:func:`iter_swf`) survives dirty
  archive logs with skip-with-count accounting.
* :mod:`repro.qs.streaming` — the open-system queue: bounded ingress
  with deterministic shedding, fold-on-completion metrics, terminal
  jobs pruned so memory stays O(live jobs).
"""
