"""Table 1 — workload characteristics (mix shares), plus a check that
the generated traces actually hit the estimated processor demand."""

from repro.experiments import tables
from repro.qs.workload import TABLE1_MIXES, estimate_demand, generate_workload
from repro.sim.rng import RandomStreams


def _generate_all():
    traces = {}
    for name, mix in TABLE1_MIXES.items():
        for load in (0.6, 0.8, 1.0):
            traces[(name, load)] = generate_workload(
                mix, load, streams=RandomStreams(0).spawn("workload")
            )
    return traces


def test_table1_workloads():
    traces = _generate_all()
    print()
    print(tables.render_table1())

    print()
    print("generated traces (jobs, estimated demand):")
    for (name, load), jobs in sorted(traces.items()):
        demand = estimate_demand(jobs)
        print(f"  {name} load={load:.1f}: {len(jobs):3d} jobs, "
              f"estimated demand {demand:.0%}")
        assert 0.6 * load <= demand <= 1.4 * load

    # Table 1 composition: the right applications in each mix.
    assert set(TABLE1_MIXES["w1"].shares) == {"swim", "bt.A"}
    assert set(TABLE1_MIXES["w2"].shares) == {"bt.A", "hydro2d"}
    assert set(TABLE1_MIXES["w3"].shares) == {"bt.A", "apsi"}
    assert set(TABLE1_MIXES["w4"].shares) == {"swim", "bt.A", "hydro2d", "apsi"}
