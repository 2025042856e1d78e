"""Iteration spans: digest equality against the per-iteration path.

An iteration end whose report changes nothing is absorbed instead of
fired as an event (:mod:`repro.runtime.nthlib`).  Every test here pins
that the output is the one the per-iteration path produced:

* golden digests captured from the per-iteration implementation for
  the four policies on w1-w4, three policies under three fault
  scenarios, and the serve stack with and without autosnapshots;
* a hypothesis differential against the same run with every iteration
  end scheduled as a plain event, compared mid-run too; it draws the
  policy, the jobs, seed, machine size, noise, locality, measurement
  overhead, mid-run RM mutations and a cap on span length;
* mid-span checkpoint cuts, closed and serve;
* a reallocation landing exactly on an absorbed iteration end, and the
  race the sanitizer finds there;
* a host that drops a plan while an absorbed end hands it a report.
"""

from __future__ import annotations

import hashlib
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import pytest
from hypothesis import given, strategies as st

from repro.analysis.race import RaceDetector
from repro.apps.application import AppClass, ApplicationSpec
from repro.apps.speedup import AmdahlSpeedup, TabulatedSpeedup
from repro.canonical import canonical_dumps
from repro.checkpoint.format import read_snapshot
from repro.checkpoint.session import CheckpointPlan, SimulationSession
from repro.core.pdpa import PDPA
from repro.experiments.ablations import FixedMplPDPA, NoRelativeSpeedupPDPA
from repro.experiments.common import ExperimentConfig, build_session, run_workload
from repro.faults.scenarios import build_scenario
from repro.fuzz.profiles import tier_settings
from repro.machine.machine import Machine
from repro.machine.memory import LocalityConfig
from repro.metrics.trace import TraceRecorder
from repro.parallel.cells import trace_digest
from repro.qs.job import Job
from repro.qs.queuing import NanosQS
from repro.qs.workload import TABLE1_MIXES
from repro.rm.equal_efficiency import EqualEfficiency
from repro.rm.equipartition import Equipartition
from repro.rm.irix import IrixConfig, IrixResourceManager
from repro.rm.manager import SpaceSharedResourceManager
from repro.runtime.nthlib import IterationPlan, NthLibRuntime, RuntimeConfig, RuntimeHost
from repro.serve.service import ServeService
from repro.serve.session import ServeConfig, ServeSession, build_serve_session
from repro.serve.source import SyntheticSource
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.iteration_ends import IterationEnd, record_iteration_ends

# ----------------------------------------------------------------------
# (a) golden digests of the per-iteration implementation
# ----------------------------------------------------------------------
GOLDEN_CONFIG = ExperimentConfig(n_cpus=32, seed=11)

#: WorkloadResult sha256 prefix : trace_digest prefix, load 1.0.  The
#: 13 runs that finish a job whose CPU set iterated out of id order were
#: re-pinned when ``Machine.finish_job`` began releasing in id order.
GOLDEN = {
    "IRIX/w1": "e07d8fbe1190a5b2:b5bb7de317083ba5",
    "IRIX/w2": "1b398ad94e5031ac:a00e9b32cbddc189",
    "IRIX/w3": "5b4bcfbd03e3a08c:c7135545babc4a80",
    "IRIX/w4": "e0fbb71235df3c78:c52a08bd6db19457",
    "Equip/w1": "a843c305606c4b3d:7a6fa183e704ad44",
    "Equip/w2": "ff0596463a9f04f0:263e2e3ae54dc624",
    "Equip/w3": "1aadbaeb330338d1:c95d21a7112167af",
    "Equip/w4": "d881f2adf7c96303:5d1f292c6cf6462f",
    "Equal_eff/w1": "1e046f6df428c000:a634aa3e65d518c2",
    "Equal_eff/w2": "c578f46b875c18b6:8976247c71627f4d",
    "Equal_eff/w3": "1473f8014b601bc2:e3769c1257bacccd",
    "Equal_eff/w4": "c76571bf840a29ec:cfdbe32e1f8c2672",
    "PDPA/w1": "27055dc3c0d2462f:afedcdc2a0fb9781",
    "PDPA/w2": "581d1755e0ee037a:5e0ad8ced7abf19c",
    "PDPA/w3": "37e36303f347ad79:2c8c066080ea7c9b",
    "PDPA/w4": "eef272b93186e1f0:526eb9e1f7b0739a",
    "PDPA/w3/cpukill8": "fd1726979f2767c3:bdd25b7a70f25caa",
    "PDPA/w3/flaky-reports": "d737c9ed7a4255ad:f099d4256ac30e7f",
    "PDPA/w3/brownout": "0da0e405782482d5:3c56c4add1b8accd",
    "Equip/w3/cpukill8": "a606832a8c116998:a3d4d10bc52a414d",
    "Equip/w3/flaky-reports": "1aadbaeb330338d1:bcbef057157af774",
    "Equip/w3/brownout": "118aaaf0e1de8083:406b75a700c1796e",
    "Equal_eff/w3/cpukill8": "d5cdcd51027d242a:66174b27220b2c1f",
    "Equal_eff/w3/flaky-reports": "72bb4d9f7551469d:7e933a3e663b0188",
    "Equal_eff/w3/brownout": "b6cf0afcebe4d6f3:859732575edaba78",
}

#: serve stats digest, PDPA on a 200-job w2 stream
GOLDEN_SERVE = "564f3bbee279557afee4ce9545ae4b517988a8bce7f0989a0fadedae8625ae03"
#: sha256 of the arrival journal that stream writes (one fsync'd line
#: per arrival when pinned; group commit must write the same bytes)
GOLDEN_SERVE_JOURNAL = "61b44da2aaedda8fc95d1cbaaf7bec03a370e9604da847cbb8a431a8edb4e4c5"
#: snapshots the per-iteration path wrote: serve every 500 events
#: (plus the final one), and closed PDPA/w3 every 500 events
GOLDEN_SERVE_SAVES = 36
GOLDEN_CLOSED_SAVES = 3


def _digest(out: Any) -> str:
    result = hashlib.sha256(canonical_dumps(out.result.to_dict()).encode()).hexdigest()
    return f"{result[:16]}:{trace_digest(out)[:16]}"


def golden_run(key: str) -> Any:
    """The run ``GOLDEN[key]`` pins: policy/mix[/fault scenario], load 1.0."""
    policy, mix, *fault = key.split("/")
    config = GOLDEN_CONFIG
    if fault:
        config = config.with_faults(build_scenario(fault[0], config.n_cpus))
    return run_workload(policy, mix, 1.0, config)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key):
    assert _digest(golden_run(key)) == GOLDEN[key]


@contextmanager
def _counting_saves() -> Iterator[List[str]]:
    saves: List[str] = []
    original = SimulationSession.save

    def save(self: SimulationSession, path: Path, label: str = "",
             storage: Any = None) -> None:
        saves.append(label)
        original(self, path, label=label, storage=storage)

    SimulationSession.save = save  # type: ignore[method-assign]
    try:
        yield saves
    finally:
        SimulationSession.save = original  # type: ignore[method-assign]


def test_autosnapshot_cadence_counts_logical_events(tmp_path):
    plan = CheckpointPlan(path=tmp_path / "auto.ckpt", every_events=500)
    with _counting_saves() as saves:
        out = run_workload("PDPA", "w3", 1.0, GOLDEN_CONFIG, checkpoint=plan)
    assert len(saves) == GOLDEN_CLOSED_SAVES
    assert _digest(out) == GOLDEN["PDPA/w3"]


def _serve(tmp_path: Path, checkpoint: bool, journal: Optional[Path] = None) -> ServeService:
    source = SyntheticSource(
        TABLE1_MIXES["w2"], 1.0, n_cpus=GOLDEN_CONFIG.n_cpus, seed=11, max_jobs=200
    )
    session = build_serve_session(
        "PDPA", source, config=GOLDEN_CONFIG, serve_config=ServeConfig(), load=1.0
    )
    plan = CheckpointPlan(path=tmp_path / "serve.ckpt", every_events=500) if checkpoint else None
    service = ServeService(session, journal_path=journal, checkpoint=plan)
    assert service.run(handle_signals=False) == 0
    return service


def test_serve_golden_digest_with_and_without_autosnapshots(tmp_path):
    plain = _serve(tmp_path, checkpoint=False)
    with _counting_saves() as saves:
        durable = _serve(tmp_path, checkpoint=True)
    assert plain.session.stats.digest() == GOLDEN_SERVE
    assert durable.session.stats.digest() == GOLDEN_SERVE
    assert len(saves) == GOLDEN_SERVE_SAVES
    # snapshots only read: the event history is the same without them
    assert durable.session.sim.events_fired == plain.session.sim.events_fired
    assert plain.session.sim.events_fired < plain.session.sim.logical_events


def test_serve_golden_journal_bytes(tmp_path):
    journal = tmp_path / "arrivals.jsonl"
    journalled = _serve(tmp_path, checkpoint=False, journal=journal)
    assert journalled.session.stats.digest() == GOLDEN_SERVE
    assert hashlib.sha256(journal.read_bytes()).hexdigest() == GOLDEN_SERVE_JOURNAL


# ----------------------------------------------------------------------
# (b) differential against the per-iteration path
# ----------------------------------------------------------------------
@contextmanager
def per_iteration() -> Iterator[None]:
    """Every iteration end fires and every begin asks its host afresh,
    as before spans and plans.

    Each absorbable end scheduled inside the block is scheduled as the
    plain event it stands for, ``schedule_after(delay, owner.fire)``:
    the same time, priority and sequence number, labelled with the text
    the absorbable entry's index renders (``iter:<job>:<i>``).  Each
    iteration that begins inside the block first drops its runtime's
    plan, so the host's hooks are asked at every iteration, whatever
    the host invalidated.
    """
    original = Simulator.schedule_absorbable
    begin = NthLibRuntime._begin_iteration

    def schedule_event(sim: Simulator, delay: float, owner: Any, label: Any = "") -> Any:
        text = label if isinstance(label, str) else owner.event_label(label)
        return sim.schedule_after(delay, owner.fire, label=text)

    def begin_afresh(runtime: NthLibRuntime, now: float) -> None:
        runtime.plan = None
        begin(runtime, now)

    Simulator.schedule_absorbable = schedule_event  # type: ignore[method-assign]
    NthLibRuntime._begin_iteration = begin_afresh  # type: ignore[method-assign]
    try:
        yield
    finally:
        Simulator.schedule_absorbable = original  # type: ignore[method-assign]
        NthLibRuntime._begin_iteration = begin  # type: ignore[method-assign]


@contextmanager
def span_cap(cap: Optional[int]) -> Iterator[None]:
    """Fire at least every *cap*-th iteration end of each job (None: no cap).

    Inside the block each runtime absorbs at most ``cap - 1`` ends in a
    row and the next one declines and fires, so ends also fire at
    points no host would choose.
    """
    if cap is None:
        yield
        return
    absorb, fire = NthLibRuntime.absorb, NthLibRuntime.fire
    in_a_row: Dict[NthLibRuntime, int] = {}

    def capped_absorb(runtime: NthLibRuntime) -> bool:
        absorbed = in_a_row.get(runtime, 0)
        if absorbed + 1 >= cap or not absorb(runtime):
            return False
        in_a_row[runtime] = absorbed + 1
        return True

    def counted_fire(runtime: NthLibRuntime) -> None:
        in_a_row[runtime] = 0
        fire(runtime)

    NthLibRuntime.absorb = capped_absorb  # type: ignore[method-assign]
    NthLibRuntime.fire = counted_fire  # type: ignore[method-assign]
    try:
        yield
    finally:
        NthLibRuntime.absorb = absorb  # type: ignore[method-assign]
        NthLibRuntime.fire = fire  # type: ignore[method-assign]


def _app(name: str, **kwargs: Any) -> ApplicationSpec:
    base: Dict[str, Any] = dict(
        name=name, app_class=AppClass.HIGH, speedup_model=AmdahlSpeedup(0.0, name=name),
        iterations=30, t_iter_seq=4.0, t_startup=0.5, t_teardown=0.5, default_request=8,
    )
    base.update(kwargs)
    return ApplicationSpec(**base)


APPS = {
    "linear": _app("sp-linear"),
    "amdahl": _app("sp-amdahl", speedup_model=AmdahlSpeedup(0.1, name="sp-amdahl"),
                   iterations=24, t_iter_seq=3.0, default_request=6),
    "flat": _app("sp-flat", app_class=AppClass.NONE, iterations=8, t_iter_seq=1.5,
                 default_request=4, speedup_model=TabulatedSpeedup(
                     [(1, 1.0), (2, 1.3), (4, 1.5), (8, 1.55)], name="sp-flat")),
    "rigid": _app("sp-rigid", iterations=8).as_rigid(),
}

POLICIES = {
    "Equip": Equipartition,
    "PDPA": PDPA,
    "Equal_eff": EqualEfficiency,
    "FixedMplPDPA": FixedMplPDPA,
    "NoRelativeSpeedupPDPA": NoRelativeSpeedupPDPA,
}


def _session(policy: str, plan: List[tuple], seed: int, n_cpus: int,
             runtime: RuntimeConfig, locality: bool,
             overhead: float = 0.0) -> SimulationSession:
    """*plan*'s jobs under *policy*; every app's measurement overhead
    is *overhead* (the catalog's apps use 0.01-0.04)."""
    jobs = [
        Job(job_id=i + 1, spec=replace(APPS[app], measurement_overhead=overhead),
            submit_time=submit, request=min(request, n_cpus))
        for i, (app, submit, request) in enumerate(plan)
    ]
    config = ExperimentConfig(
        n_cpus=n_cpus, seed=seed, locality=LocalityConfig() if locality else None
    )
    sim = Simulator()
    streams = RandomStreams(seed)
    trace = TraceRecorder(n_cpus)
    if policy == "IRIX":
        rm: Any = IrixResourceManager(sim, n_cpus, streams, trace, IrixConfig(), runtime)
    else:
        rm = SpaceSharedResourceManager(
            sim, Machine(n_cpus, trace=trace), POLICIES[policy](), streams, trace,
            runtime, locality=config.locality_model(),
        )
    qs = NanosQS(sim, rm, jobs, trace)
    qs.schedule_submissions()
    return SimulationSession(policy, 0.0, config, sim, rm, qs, trace)


def _state(session: SimulationSession, ends: Dict[Any, List[IterationEnd]]) -> tuple:
    """Everything an iteration end leaves behind, at this instant.

    *ends* is the :func:`record_iteration_ends` log the session ran
    under: every iteration end so far, with its procs, duration and
    time.
    """
    rm = session.rm
    runtimes = []
    for job_id in sorted(rm.runtimes):
        runtime = rm.runtimes[job_id]
        analyzer = runtime.analyzer
        runtimes.append((
            job_id, runtime.phase, runtime.app.completed_iterations,
            None if analyzer is None else (analyzer.t_base, analyzer._last_procs),
        ))
    policy = getattr(rm, "policy", None)
    views = getattr(rm, "_views", {})
    return (
        session.sim.now,
        session.sim.logical_events,
        repr(session.sim._seq),  # same insertion sequence numbers
        ends.get(session.sim, []),
        runtimes,
        sorted(getattr(policy, "job_states", {}).items()),
        sorted(getattr(policy, "_overheads", {}).items()),
        sorted(rm.last_report_time.items()),
        sorted((j, v.allocation) for j, v in views.items()),
        sorted((name, s.getstate()) for name, s in rm.streams._streams.items()),
        [(j.job_id, j.state, j.start_time, j.end_time) for j in session.jobs],
    )


job_plans = st.lists(
    st.tuples(
        st.sampled_from(sorted(APPS)),
        # a coarse grid of submit times makes exact ties likely at sigma 0
        st.integers(0, 16).map(lambda k: k * 0.5),
        st.integers(1, 12),
    ),
    min_size=1, max_size=6,
)


#: RM mutations a cut may apply, each to both sessions alike: every
#: one changes something a job's plan holds (its partition, locality
#: record, allocation or policy state, or a node's speed)
MUTATIONS = ("cpu_fail", "cpu_repair", "force", "kill", "degrade", "restore")

#: everything but the policy that the differential draws
run_shapes = dict(
    plan=job_plans,
    seed=st.integers(0, 3),
    n_cpus=st.sampled_from([8, 12]),
    sigma=st.sampled_from([0.0, 0.015]),
    locality=st.booleans(),
    overhead=st.sampled_from([0.0, 0.01, 0.04]),
    cuts=st.lists(
        st.tuples(
            st.floats(0.0, 40.0),
            st.lists(
                st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 99)),
                min_size=1, max_size=3,
            ),
        ),
        min_size=1, max_size=3,
    ),
    cap=st.sampled_from([None, 2, 5]),
)


def _mutate(session: SimulationSession, kind: str, arg: int) -> None:
    """Apply one RM mutation as the fault injector would."""
    rm = session.rm
    n_cpus = rm.n_cpus
    running = sorted(rm.jobs)
    if kind == "cpu_fail" and rm.effective_cpus > 1:
        rm.on_cpu_failed(arg % n_cpus, permanent=False)
    elif kind == "cpu_repair":
        rm.on_cpu_repaired(arg % n_cpus)
    elif kind == "force" and running and hasattr(rm, "force_allocation"):
        rm.force_allocation(running[arg % len(running)], 1 + arg % n_cpus, reason="cut")
    elif kind == "kill" and running:
        rm.kill_job(rm.jobs[running[arg % len(running)]], reason="cut")
    elif kind == "degrade":
        rm.on_node_degraded(arg % (n_cpus // 2), (0.5, 0.8)[arg % 2])
    elif kind == "restore":
        rm.on_node_restored(arg % (n_cpus // 2))


@tier_settings("slow")
@given(policy=st.sampled_from(["IRIX"] + sorted(POLICIES)), **run_shapes)
def test_spans_match_the_per_iteration_path(policy, **shape):
    _check_spans_match(policy, **shape)


@tier_settings("slow")
@given(**run_shapes)
def test_equal_eff_spans_match_the_per_iteration_path(**shape):
    # the sampled run gives each policy about 1/7 of its examples;
    # Equal_eff's proof, the only one that reads every job's
    # allocation, gets a full budget of its own
    _check_spans_match("Equal_eff", **shape)


def _check_spans_match(policy, plan, seed, n_cpus, sigma, locality, overhead, cuts, cap):
    args = (policy, plan, seed, n_cpus, RuntimeConfig(noise_sigma=sigma), locality, overhead)
    mutations: Dict[float, List[tuple]] = {}
    for when, ops in cuts:
        mutations.setdefault(when, []).extend(ops)
    with record_iteration_ends() as ends, span_cap(cap):
        spans = _session(*args)
        events = _session(*args)
        # every simulated second, plus a few arbitrary instants, where
        # the drawn mutations land
        for cut in sorted(set(mutations) | {float(t) for t in range(1, 80)}) + [None]:
            spans.run(until=cut)
            with per_iteration():
                events.run(until=cut)
            assert _state(spans, ends) == _state(events, ends)
            for kind, arg in mutations.get(cut, []):
                _mutate(spans, kind, arg)
                _mutate(events, kind, arg)
                assert _state(spans, ends) == _state(events, ends)
    assert _state(spans, ends) == _state(events, ends)
    assert spans.sim.logical_events == events.sim.events_fired
    assert _digest(spans.finish()) == _digest(events.finish())


# ----------------------------------------------------------------------
# (c) mid-span checkpoint cuts
# ----------------------------------------------------------------------
CUT_CONFIG = ExperimentConfig(n_cpus=16, duration=60.0, seed=5)
_uninterrupted: Dict[str, str] = {}


def _closed(policy: str, config: ExperimentConfig = CUT_CONFIG) -> SimulationSession:
    from repro.qs.workload import generate_workload

    jobs = generate_workload(
        TABLE1_MIXES["w1"], 1.0, n_cpus=config.n_cpus, duration=config.duration,
        streams=RandomStreams(config.seed).spawn("workload"),
    )
    return build_session(policy, jobs, config, load=1.0, workload="w1")


def _cut_digest(out: Any) -> str:
    """The result bytes plus the plain, order-sensitive trace digest."""
    return f"{canonical_dumps(out.result.to_dict())}:{trace_digest(out)}"


def _save_restore(session: Any, cls: Any, workdir: Path) -> Any:
    """Save, restore, and check restore -> save is a fixed point."""
    session.save(workdir / "cut.ckpt")
    restored = cls.restore(workdir / "cut.ckpt", expected_config=session.config)
    restored.save(workdir / "again.ckpt")
    again = cls.restore(workdir / "again.ckpt", expected_config=session.config)
    again.save(workdir / "third.ckpt")
    assert read_snapshot(workdir / "again.ckpt")[1] == read_snapshot(workdir / "third.ckpt")[1]
    return again


@tier_settings("quick")
@given(
    policy=st.sampled_from(["IRIX", "Equip", "Equal_eff", "PDPA"]),
    scenario=st.sampled_from(["none", "cpukill8", "brownout"]),
    data=st.data(),
)
def test_mid_span_cut_closed(policy, scenario, data):
    """A faulted cut lands after the scenario's first fault (cpukill8
    fails CPUs from t=80, brownout slows nodes from t=70), so the
    snapshot holds OFFLINE or DEGRADED CPUs."""
    config = CUT_CONFIG
    if scenario == "none":
        cut = data.draw(st.floats(5.0, 150.0), label="cut")
    else:
        config = config.with_faults(build_scenario(scenario, config.n_cpus))
        cut = data.draw(st.floats(80.0, 145.0), label="cut")
    key = f"{policy}/{scenario}"
    if key not in _uninterrupted:
        reference = _closed(policy, config)
        reference.run()
        _uninterrupted[key] = _cut_digest(reference.finish())
    session = _closed(policy, config)
    session.run(until=cut)
    with tempfile.TemporaryDirectory() as tmp:
        restored = _save_restore(session, SimulationSession, Path(tmp))
    restored.run()
    assert _cut_digest(restored.finish()) == _uninterrupted[key]


def test_restore_leaves_result_and_trace_as_uninterrupted():
    """Equip/w1 on 16 CPUs, seed 5, cut at t=100: a restored machine
    rebuilds each partition's CPU set from a sorted list, so a finished
    job whose set iterated in another order emitted its bursts in that
    other order (the trace diverged at burst 124 of 136), and the
    result's burst-folded means moved in the last bit.  Releasing in id
    order makes the restored run equal the uninterrupted one."""
    config = ExperimentConfig(n_cpus=16, seed=5)
    reference = _closed("Equip", config)
    reference.run()
    session = _closed("Equip", config)
    session.run(until=100.0)
    with tempfile.TemporaryDirectory() as tmp:
        restored = _save_restore(session, SimulationSession, Path(tmp))
    restored.run()
    assert _cut_digest(restored.finish()) == _cut_digest(reference.finish())


def _stream(seed: int) -> ServeSession:
    source = SyntheticSource(TABLE1_MIXES["w2"], 1.0, n_cpus=16, seed=seed, max_jobs=40)
    return build_serve_session(
        "PDPA", source, config=ExperimentConfig(n_cpus=16, seed=seed),
        serve_config=ServeConfig(),
    )


def _drain(session: ServeSession) -> str:
    session.pump.prime()
    session.sim.run()
    assert session.complete
    return session.stats.digest()


@tier_settings("quick")
@given(seed=st.integers(0, 2), steps=st.integers(1, 120))
def test_mid_span_cut_serve(seed, steps):
    key = f"serve/{seed}"
    if key not in _uninterrupted:
        _uninterrupted[key] = _drain(_stream(seed))
    want = _uninterrupted[key]
    crashed = _stream(seed)
    crashed.pump.prime()
    crashed.sim.step(steps)
    with tempfile.TemporaryDirectory() as tmp:
        restored = _save_restore(crashed, ServeSession, Path(tmp))
    assert _drain(restored) == want


def test_cut_lands_mid_span():
    session = _closed("PDPA")
    session.run(until=40.0)
    assert session.sim.logical_events > session.sim.events_fired
    # absorbable ends pending at the cut
    assert any(label.startswith("iter:") for label in session.sim.live_labels())


# ----------------------------------------------------------------------
# (d) a reallocation exactly on an absorbed iteration end
# ----------------------------------------------------------------------
#: sigma 0, 8 CPUs, a perfectly linear uninstrumented code alone on the
#: machine: startup ends at 0.5 and every iteration takes exactly 0.5,
#: so job 1's iteration ends fall on 1.0, 1.5, ... 3.5.  Job 2 arrives
#: at exactly 3.5, at the same priority as that end.
TIED_PLAN = [("linear", 0.0, 8), ("linear", 3.5, 8)]
UNINSTRUMENTED = RuntimeConfig(noise_sigma=0.0, use_selfanalyzer=False)


def test_reallocation_on_an_absorbed_iteration_end():
    # Equipartition halves job 1 when job 2 arrives.  The arrival was
    # scheduled first, so it runs before the tied iteration end: the
    # iteration that ends at 3.5 still ran on 8 CPUs, the next one
    # starts on 4.
    with record_iteration_ends() as ends:
        spans = _session("Equip", TIED_PLAN, 0, 8, UNINSTRUMENTED, False)
        with per_iteration():
            events = _session("Equip", TIED_PLAN, 0, 8, UNINSTRUMENTED, False)
            events.run(until=3.5)
            events.run()
        spans.run(until=3.5)
        job1 = [end for end in ends[spans.sim] if end[0] == 1]
        assert job1[-1] == (1, 5, 8, 0.5, 3.5)  # ended at 3.5, on the old allocation
        assert spans.rm.machine.allocation_of(1) == 4
        assert spans.sim.logical_events > spans.sim.events_fired
        spans.run()
    assert _state(spans, ends) == _state(events, ends)
    assert _digest(spans.finish()) == _digest(events.finish())


def test_sanitizer_sees_a_race_with_an_absorbed_iteration_end():
    # the arrival and the iteration end at 3.5 are ordered by insertion
    # alone; the end is absorbed, and the race detector still sees it
    stats = []
    for path in (per_iteration, nullcontext):
        detector = RaceDetector()
        with path():
            session = _session("Equip", TIED_PLAN, 0, 8, UNINSTRUMENTED, False)
            session.run(sanitizer=detector)
        stats.append(detector.finish())
    events, spans = stats
    assert session.sim.events_fired < session.sim.logical_events == spans.events
    assert [finding.describe() for finding in spans.error_findings] == [
        "ambiguous cohort at t=3.500000 priority=100: order decided by insertion only"
        " — [NanosQS._on_arrival('submit:2'), NthLibRuntime.fire('iter:1:5')]"
    ]
    assert spans == events


# ----------------------------------------------------------------------
# (e) a plan the host drops as it takes a report from an absorbed end
# ----------------------------------------------------------------------
class _DroppingHost(RuntimeHost):
    """Takes every report and drops the reporter's plan as it does; the
    k-th plan it builds runs at speedup k.  No host in the tree drops a
    plan inside ``absorb_report``, so the differential cannot reach
    this: the absorbed end must not reuse the dropped plan's base."""

    def __init__(self) -> None:
        self.runtime: Optional[NthLibRuntime] = None
        self.plans = 0

    def iteration_plan(self, job: Job, baseline: bool) -> IterationPlan:
        self.plans += 1
        return IterationPlan(4, 4, float(self.plans), None, None, 1.0, None, {})

    def free_cpus(self) -> int:
        return 0

    def absorb_report(self, job: Job, procs: int, speedup: float) -> bool:
        assert self.runtime is not None
        self.runtime.plan = None
        return True

    def job_completed(self, job: Job) -> None:
        pass


def test_a_plan_dropped_while_its_report_is_taken_is_not_reused():
    host = _DroppingHost()
    sim = Simulator()
    job = Job(job_id=1, spec=APPS["linear"], submit_time=0.0, request=4)
    config = RuntimeConfig(noise_sigma=0.0)
    runtime = host.runtime = NthLibRuntime(sim, job, host, RandomStreams(0), config)
    with record_iteration_ends() as ends:
        runtime.start()
        sim.run()
    # the baseline iteration runs on plan 1, on the 4 CPUs this host
    # grants it; every later end is on the count before it and
    # reports, so iteration i runs on plan i + 1, at speedup i + 1
    assert [end[3] for end in ends[sim]] == [4.0 / (i + 1) for i in range(30)]
    assert sim.events_fired < sim.logical_events
