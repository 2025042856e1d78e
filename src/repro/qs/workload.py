"""Workload generation (paper §5, Table 1).

"We generated workloads where applications are submitted to the
system following a Poison interarrival function during 300 seconds.
These workloads had an estimated processor demand of 60 percent,
80 percent, and 100 percent of the total capacity of the system."

A workload is defined by a :class:`WorkloadMix` — the share of the
total load contributed by each application class (Table 1) — plus a
target load fraction.  The number of instances of each application is
chosen so that its estimated CPU demand (execution time at the tuned
request, times the request) sums to its share of ``load * capacity``;
submission times are drawn from a Poisson process over the submission
window.

The generated job list is the analogue of the paper's workload trace
files: for a given seed, every policy executes exactly the same jobs
with exactly the same submission times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.apps.application import ApplicationSpec
from repro.apps.catalog import APP_CATALOG, scaled_spec
from repro.qs.job import Job
from repro.sim.rng import RandomStreams


@dataclass(frozen=True, slots=True)
class WorkloadMix:
    """Share of the system load generated by each application."""

    name: str
    shares: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.shares:
            raise ValueError(f"{self.name}: mix must name at least one application")
        total = sum(self.shares.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: shares sum to {total}, expected 1.0")
        for app, share in self.shares.items():
            if share <= 0:
                raise ValueError(f"{self.name}: share of {app} must be positive")


#: Table 1 of the paper: the portion of the system load generated by
#: each application in each workload.
TABLE1_MIXES: Dict[str, WorkloadMix] = {
    "w1": WorkloadMix("w1", {"swim": 0.5, "bt.A": 0.5}),
    "w2": WorkloadMix("w2", {"bt.A": 0.5, "hydro2d": 0.5}),
    "w3": WorkloadMix("w3", {"bt.A": 0.5, "apsi": 0.5}),
    "w4": WorkloadMix("w4", {"swim": 0.25, "bt.A": 0.25, "hydro2d": 0.25, "apsi": 0.25}),
}


def generate_workload(
    mix: WorkloadMix,
    load: float,
    n_cpus: int = 60,
    duration: float = 300.0,
    streams: Optional[RandomStreams] = None,
    catalog: Optional[Mapping[str, ApplicationSpec]] = None,
    request_overrides: Optional[Mapping[str, int]] = None,
    work_scale_sigma: float = 0.0,
) -> List[Job]:
    """Generate one workload trace.

    Parameters
    ----------
    mix:
        Application shares (e.g. an entry of :data:`TABLE1_MIXES`).
    load:
        Estimated processor demand as a fraction of capacity
        (0.6 / 0.8 / 1.0 in the paper).
    n_cpus:
        Machine size (60 in the paper's runs).
    duration:
        Submission window in seconds (300 in the paper).
    streams:
        Random streams for submission times; defaults to seed 0.
    catalog:
        Application specs by name (defaults to the paper's four).
    request_overrides:
        Per-application processor requests replacing the tuned
        defaults — the "not tuned" experiments of Tables 3 and 4.
        Demand estimation still uses the tuned request, so overriding
        requests preserves job counts and submission times exactly,
        matching "the same workload, with the same submission times,
        but setting the apsi request to 30 processors".
    work_scale_sigma:
        Log-normal sigma of per-job size variation.  The paper's
        evaluation uses fixed-size applications (0.0, the default);
        positive values make each instance's iteration count vary
        around the catalog size, for workloads closer to production
        traces.

    Returns
    -------
    list of Job
        Jobs ordered by submission time, ids assigned in that order.
    """
    if load <= 0:
        raise ValueError(f"load must be positive, got {load}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if n_cpus < 1:
        raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
    if work_scale_sigma < 0:
        raise ValueError(f"work_scale_sigma must be >= 0, got {work_scale_sigma}")
    streams = streams or RandomStreams(0)
    catalog = catalog or APP_CATALOG
    overrides = dict(request_overrides or {})

    capacity = n_cpus * duration
    pending: List[Job] = []
    for app_name in sorted(mix.shares):
        share = mix.shares[app_name]
        if app_name not in catalog:
            raise KeyError(f"mix {mix.name} references unknown application {app_name!r}")
        spec = catalog[app_name]
        demand_per_job = spec.cpu_demand()
        target_demand = share * load * capacity
        count = max(1, round(target_demand / demand_per_job))
        arrival_stream = streams.stream(f"arrivals:{mix.name}:{app_name}")
        request = overrides.get(app_name, spec.default_request)
        for _ in range(count):
            submit = arrival_stream.uniform(0.0, duration)
            job_spec = spec
            if work_scale_sigma > 0.0:
                scale = streams.lognormal_factor(
                    f"work-scale:{mix.name}:{app_name}", work_scale_sigma
                )
                job_spec = scaled_spec(spec, scale)
            pending.append(
                Job(job_id=-1, spec=job_spec, submit_time=submit, request=request)
            )

    pending.sort(key=lambda job: job.submit_time)
    jobs = [
        Job(
            job_id=index + 1,
            spec=job.spec,
            submit_time=job.submit_time,
            request=job.request,
        )
        for index, job in enumerate(pending)
    ]
    return jobs


def estimate_demand(
    jobs: Sequence[Job], n_cpus: int = 60, duration: float = 300.0
) -> float:
    """Estimated processor demand of a job list, as a load fraction.

    Uses each job's ideal execution time at its *tuned* request — the
    same estimate the generator targets — so a generated workload's
    estimated demand is close to the requested load.
    """
    if n_cpus < 1 or duration <= 0:
        raise ValueError("n_cpus must be >= 1 and duration positive")
    total = sum(job.spec.cpu_demand() for job in jobs)
    return total / (n_cpus * duration)


def workload_composition(jobs: Sequence[Job]) -> Dict[str, int]:
    """Number of job instances per application name."""
    counts: Dict[str, int] = {}
    for job in jobs:
        counts[job.app_name] = counts.get(job.app_name, 0) + 1
    return counts
