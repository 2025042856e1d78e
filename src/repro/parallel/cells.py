"""Module-level cell functions executed by :class:`SweepRunner` workers.

Each function is a pure map from plain, picklable parameters to a
JSON-serialisable record; the heavy imports happen inside the function
bodies so importing :mod:`repro.parallel` stays cheap and cycle-free.
Cells are addressed by dotted path (``"repro.parallel.cells:workload_cell"``)
rather than by callable, so they resolve identically under any
multiprocessing start method.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Optional


def workload_cell(
    policy: str,
    workload: str,
    load: float,
    config: Any = None,
    request_overrides: Optional[Mapping[str, int]] = None,
) -> Dict[str, Any]:
    """One (policy, workload, load) execution -> WorkloadResult record."""
    from repro.experiments.common import run_workload

    out = run_workload(
        policy, workload, load, config, request_overrides=request_overrides
    )
    return out.result.to_dict()


def mpl_timeline_cell(
    workload: str,
    load: float,
    config: Any = None,
    policy: str = "PDPA",
) -> Dict[str, Any]:
    """The Fig. 8 record: the (time, MPL) series the policy decided."""
    from repro.experiments.common import run_workload
    from repro.metrics.paraver import mpl_timeline

    out = run_workload(policy, workload, load, config)
    return {
        "timeline": [[time, int(level)] for time, level in mpl_timeline(out.trace)]
    }


def traced_workload_cell(
    policy: str,
    workload: str,
    load: float,
    config: Any = None,
    request_overrides: Optional[Mapping[str, int]] = None,
) -> Dict[str, Any]:
    """:func:`workload_cell` plus a digest of the full trace.

    The digest covers every record the tracer collects (bursts,
    reallocations, MPL samples, faults, migrations, synthetic loads and
    per-job timestamps), so two runs with equal digests executed
    byte-identically.  Used by the determinism guard and benchmarks.
    """
    from repro.experiments.common import run_workload

    out = run_workload(
        policy, workload, load, config, request_overrides=request_overrides
    )
    return {
        "result": out.result.to_dict(),
        "trace_digest": trace_digest(out),
    }


def trace_digest(out: Any) -> str:
    """SHA-256 over the run's full trace/stats serialization."""
    t = out.trace
    fingerprint = repr((
        tuple(t.bursts),
        tuple(t.reallocations),
        tuple(t.mpl_samples),
        tuple(t.faults),
        t.migrations,
        tuple(sorted(
            (cpu, load.bursts, load.busy_time)
            for cpu, load in t.synthetic.items()
        )),
        tuple(
            (r.job_id, r.submit_time, r.start_time, r.end_time)
            for r in out.result.records
        ),
    ))
    return hashlib.sha256(fingerprint.encode()).hexdigest()


def echo_cell(**params: Any) -> Dict[str, Any]:
    """Return the parameters unchanged (tests and plumbing checks)."""
    return dict(params)
