"""Span tracing of the ``repro`` layers, installed from outside ``src/``.

:class:`Tracer` wraps the public entry points of every layer (the
``TARGETS`` table) for the duration of one traced pass and removes the
wrappers afterwards, so the untraced passes run the unmodified code.
Three sources feed one in-memory span table:

* layer spans — one per call of a wrapped function: name, start, end
  and the span that was open when it was called (its parent);
* event spans — ``Simulator.attach_observer`` opens one span per fired
  event, named by its label prefix (``iter``, ``submit`` ...), and
  closes it at the next event or when the run/step slice returns, so
  the time between two observer callbacks is charged to the earlier
  event's kind minus the layer spans that ran inside it;
* collector spans — ``gc.callbacks`` records every collector pause as a
  child of whatever span was running, so pauses are charged to the
  collector rather than hidden in the layer they interrupted.

A span's self time is its duration minus that of its direct children;
a layer's self time is the sum over its spans.  The wrappers only
observe: a traced pass must produce the same digests as an untraced
one, which the benchmark checks.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import time
from array import array
from collections import defaultdict
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: module prefix -> layer, longest prefix wins; shared by the span
#: wrappers and the cProfile rollup so both use the same layer names
LAYER_OF_MODULE = {
    "repro.sim.engine": "sim",
    "repro.sim.rng": "rng",
    "repro.sim.columns": "columns",
    "repro.machine": "machine",
    "repro.runtime": "runtime",
    "repro.apps": "apps",
    "repro.rm": "rm",
    "repro.rm.base": "policy",
    "repro.rm.equipartition": "policy",
    "repro.rm.equal_efficiency": "policy",
    "repro.rm.irix": "policy",
    "repro.core": "policy",
    "repro.metrics.trace": "trace",
    "repro.metrics": "metrics",
    "repro.qs": "qs",
    "repro.faults": "faults",
    "repro.checkpoint": "checkpoint",
    "repro.serve": "serve",
    "repro.storage": "storage",
    "repro.parallel": "parallel",
    "repro.experiments": "experiments",
    "repro.validate": "validate",
}

_POLICY_METHODS = (
    "on_job_arrival", "on_job_completion", "on_report", "wants_admission",
    "on_job_removed", "note_forced_allocation", "validate_decision",
)
_RM_METHODS = (
    "start_job", "job_completed", "kill_job", "deliver_report",
    "current_allocation", "iteration_speedup", "force_allocation",
    "on_cpu_failed", "on_cpu_repaired", "on_node_degraded",
    "on_node_restored", "finalize",
)
_QS_METHODS = (
    "schedule_submissions", "submit", "try_start", "offer", "prune_terminal",
    "_on_arrival", "_job_finished", "_job_killed", "_on_requeue",
)
_TRACE_METHODS = (
    "record_burst", "record_reallocation", "record_mpl", "record_fault",
    "record_migrations", "record_timeshare_segment",
)

#: (module, class or None for module functions, names).  Each layer's
#: public functions, plus the private methods that are its entry points
#: from the event loop (NthLib's phase callbacks, the QS arrival and
#: completion hooks, the fault injector's event handlers).
TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...] = (
    ("repro.sim.engine", "Simulator", ("run", "step")),
    ("repro.sim.rng", "RandomStreams", ("stream", "lognormal_factor", "exponential")),
    ("repro.runtime.nthlib", "NthLibRuntime", (
        "start", "abort", "hang", "_startup_done", "_begin_iteration",
        "_end_iteration", "_begin_teardown", "_complete",
    )),
    ("repro.runtime.selfanalyzer", "SelfAnalyzer", (
        "on_iteration", "estimate_speedup", "baseline_allocation", "reset_baseline",
    )),
    ("repro.rm.manager", "BaseResourceManager", _RM_METHODS),
    ("repro.rm.manager", "SpaceSharedResourceManager", _RM_METHODS),
    ("repro.rm.base", "SchedulingPolicy", _POLICY_METHODS),
    ("repro.core.pdpa", "PDPA", _POLICY_METHODS),
    ("repro.rm.equipartition", "Equipartition", _POLICY_METHODS),
    ("repro.rm.equal_efficiency", "EqualEfficiency", _POLICY_METHODS),
    ("repro.rm.irix", "IrixResourceManager", _RM_METHODS + (
        "iteration_speed_procs", "effective_procs",
    )),
    ("repro.apps.speedup", "SpeedupCurve", ("speedup", "speedup_many", "efficiency")),
    ("repro.apps.application", "ApplicationSpec", ("folded_speedup",)),
    ("repro.apps.application", "IterativeApplication", (
        "record_iteration", "iteration_duration", "iteration_duration_from_speedup",
    )),
    ("repro.machine.machine", "Machine", (
        "start_job", "resize_job", "finish_job", "finalize", "fail_cpu",
        "repair_cpu", "degrade_node", "restore_node", "partition_speed_factor",
    )),
    ("repro.metrics.trace", "TraceRecorder", _TRACE_METHODS),
    ("repro.metrics.trace", "FoldingTraceRecorder", _TRACE_METHODS),
    ("repro.qs.queuing", "NanosQS", _QS_METHODS),
    ("repro.qs.streaming", "StreamingQS", _QS_METHODS),
    ("repro.faults.injector", "FaultInjector", (
        "install", "_cpu_fault", "_node_slowdown", "_job_crash", "_job_hang",
        "_filter_report", "_sweep",
    )),
    ("repro.checkpoint.session", "SimulationSession", ("save", "restore")),
    ("repro.serve.session", "ServeSession", ("save", "prune", "restore_stream")),
    ("repro.checkpoint.format", None, ("write_snapshot", "read_snapshot")),
    ("repro.serve.service", "ServeService", ("run", "restore", "write_status")),
    ("repro.serve.session", "ArrivalPump", ("prime", "resume", "_deliver")),
    ("repro.serve.source", "SyntheticSource", ("draw",)),
    ("repro.serve.journal", "ArrivalJournal", ("append", "tail_after", "close")),
    ("repro.storage.layer", "StorageLayer", (
        "open_append", "open_tmp", "write", "flush", "fsync", "replace",
        "fsync_dir", "unlink", "write_atomic",
    )),
    ("repro.parallel.cache", "ResultCache", ("get", "put")),
    ("repro.parallel.journal", "SweepJournal", ("append", "close")),
    ("repro.parallel.runner", "SweepRunner", ("run_serialized",)),
    ("repro.parallel.runner", None, ("execute_cell",)),
    ("repro.experiments.common", None, ("run_workload", "build_session")),
    ("repro.qs.workload", None, ("generate_workload",)),
)

#: span names whose arguments or results feed a counter
_NOOP_REPORT = "rm.noop_reports"
_REPORTS = "runtime.reports"
_BYTES = "storage.bytes_written"

_EVENT_KINDS = ("iter", "startup", "teardown", "submit", "arrival")


def layer_of_module(module: str) -> str:
    """The layer a ``repro`` module belongs to ('other' outside repro)."""
    best = ""
    for prefix in LAYER_OF_MODULE:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYER_OF_MODULE[best] if best else "other"


def event_kind(label: str) -> str:
    """Event kind from its label prefix (``iter:3:17`` -> ``iter``)."""
    prefix = label.split(":", 1)[0]
    if prefix in _EVENT_KINDS or prefix == "fault":
        return prefix
    return "other"


class Tracer:
    """In-memory span table plus the wrappers that fill it."""

    def __init__(self, overhead: Optional[Tuple[float, float]] = None) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_of = array("i")
        self.stack: List[int] = []
        #: collector pauses: (generation, start, end, parent span)
        self.gc_spans: List[Tuple[int, float, float, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._gc_open: Optional[Tuple[int, float, int]] = None
        self._event: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any]] = []
        #: wrapper cost per span, charged to its parent's self time and
        #: to its own; measured by :meth:`calibrate` unless given, so
        #: several traced passes can share one measurement
        self.overhead = overhead

    # ------------------------------------------------------------------
    # span table
    # ------------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _open(self, name_id: int, start: float) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_of.append(name_id)
        self.ends.append(0.0)
        self.starts.append(start)
        self.stack.append(idx)
        return idx

    def _close_event(self, now: float) -> None:
        if self._event is not None:
            self.ends[self._event] = now
            self.stack.pop()
            self._event = None

    def on_event(self, event: Any) -> None:
        """Engine observer: one span per fired event."""
        now = time.perf_counter()
        self._close_event(now)
        kind = event_kind(event.label)
        self._event = self._open(self.name_id(f"event.{kind}", "sim"), now)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        now = time.perf_counter()
        if phase == "start":
            parent = self.stack[-1] if self.stack else -1
            self._gc_open = (info["generation"], now, parent)
        elif self._gc_open is not None:
            generation, start, parent = self._gc_open
            self.gc_spans.append((generation, start, now, parent))
            self._gc_open = None

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        name_id = self.name_id(name, layer)
        starts, ends, parents, name_of, stack = (
            self.starts, self.ends, self.parents, self.name_of, self.stack
        )
        clock = time.perf_counter
        counters = self.counters

        if name in ("Simulator.run", "Simulator.step"):
            tracer = self

            def loop(sim: Any, *args: Any, **kwargs: Any) -> Any:
                sim.attach_observer(tracer)
                idx = tracer._open(name_id, clock())
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    now = clock()
                    tracer._close_event(now)
                    ends[idx] = now
                    stack.pop()
                    sim.detach_observer()
            return functools.update_wrapper(loop, fn)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_of.append(name_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name.endswith("ResourceManager.deliver_report"):
            def deliver(rm: Any, *args: Any, **kwargs: Any) -> Any:
                before = rm.reallocation_count
                try:
                    return wrapper(rm, *args, **kwargs)
                finally:
                    if rm.reallocation_count == before:
                        counters[_NOOP_REPORT] += 1
            return functools.update_wrapper(deliver, fn)
        if name == "SelfAnalyzer.on_iteration":
            def analyze(*args: Any, **kwargs: Any) -> Any:
                report = wrapper(*args, **kwargs)
                if report is not None:
                    counters[_REPORTS] += 1
                return report
            return functools.update_wrapper(analyze, fn)
        if name == "StorageLayer.write":
            def write(layer_obj: Any, handle: Any, data: bytes) -> Any:
                counters[_BYTES] += len(data)
                return wrapper(layer_obj, handle, data)
            return functools.update_wrapper(write, fn)
        return functools.update_wrapper(wrapper, fn)

    def calibrate(self, calls: int = 10000, repeats: int = 5) -> Tuple[float, float]:
        """Measure what one wrapped call costs beyond the call itself.

        Returns ``(parent, own)`` seconds per span: the part of the cost
        outside the span's start/end stamps lands in the parent's self
        time, the part inside in the span's own.  :class:`SpanTable`
        subtracts both, per span, so layers that make many small wrapped
        calls are not charged for the tracing.  The least of several
        repeats is taken, as for any microbenchmark.
        """
        def noop() -> None:
            return None

        wrapped = self._wrap(noop, "tracer.calibration", "bench")
        parent = own = float("inf")
        for _ in range(repeats):
            mark = len(self.starts)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            raw = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - t0
            inside = sum(self.ends[i] - self.starts[i] for i in range(mark, len(self.starts)))
            for arr in (self.starts, self.ends, self.parents, self.name_of):
                del arr[mark:]
            parent = min(parent, (traced - inside) / calls)
            own = min(own, (inside - raw) / calls)
        return max(0.0, parent), max(0.0, own)

    def install(self) -> None:
        """Wrap every target and start listening to the collector."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self.overhead is None:
            self.overhead = self.calibrate()
        for module_name, class_name, names in TARGETS:
            module = import_module(module_name)
            layer = layer_of_module(module_name)
            if class_name is None:
                for fname in names:
                    original = getattr(module, fname)
                    wrapped = self._wrap(original, fname, layer)
                    # callers bound the function by name at import time
                    for holder in _modules_binding(original):
                        self._patch(holder, fname, wrapped)
                continue
            cls = getattr(module, class_name)
            for method in names:
                raw = cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped_cm = classmethod(
                        self._wrap(raw.__func__, f"{class_name}.{method}", layer)
                    )
                    self._patch(cls, method, wrapped_cm)
                elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                    self._patch(cls, method, self._wrap(raw, f"{class_name}.{method}", layer))
        gc.callbacks.append(self._on_gc)

    def _patch(self, holder: Any, attr: str, value: Any) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Restore every original function; stop listening to the collector."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def spans(self) -> "SpanTable":
        """Freeze the recorded spans (collector pauses merged in)."""
        return SpanTable(self)


def _modules_binding(fn: Any) -> Iterable[Any]:
    import sys

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and module is not None:
            if any(value is fn for value in vars(module).values()):
                yield module


class SpanTable:
    """Spans with self times, aggregated per span name in one pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.layers = list(tracer.layers)
        self.counters = dict(tracer.counters)
        starts = array("d", tracer.starts)
        ends = array("d", tracer.ends)
        parents = array("q", tracer.parents)
        name_of = array("i", tracer.name_of)
        gc_ids: Dict[int, int] = {}
        self.gc_collections = len(tracer.gc_spans)
        self.gc_gen2 = 0
        for generation, start, end, parent in tracer.gc_spans:
            if generation not in gc_ids:
                gc_ids[generation] = len(self.names)
                self.names.append(f"gc.gen{generation}")
                self.layers.append("gc")
            self.gc_gen2 += generation == 2
            starts.append(start)
            ends.append(end)
            parents.append(parent)
            name_of.append(gc_ids[generation])
        self.starts, self.ends, self.parents, self.name_of = starts, ends, parents, name_of
        n = len(starts)
        k = len(self.names)
        self.parent_overhead, self.own_overhead = tracer.overhead or (0.0, 0.0)
        # child[i]: time of span i's direct children plus the calibrated
        # wrapper cost each of them left in span i, plus span i's own
        child = [self.own_overhead] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i] + self.parent_overhead
        #: per span name: spans, layer entries (parent in another layer),
        #: inclusive seconds, self seconds
        self.child = child
        self.n = [0] * k
        self.entries = [0] * k
        self.incl = [0.0] * k
        self.self_ = [0.0] * k
        layers = self.layers
        for i in range(n):
            j = name_of[i]
            dur = ends[i] - starts[i]
            self.n[j] += 1
            self.incl[j] += dur
            self.self_[j] += dur - child[i]
            p = parents[i]
            if p < 0 or layers[name_of[p]] != layers[j]:
                self.entries[j] += 1

    def write(self, path: Any) -> None:
        """Write the raw spans: one JSON header line, then the arrays.

        The header names the span-name table and each array's type code
        and length; the arrays follow back to back in native byte order.
        """
        arrays = [("start", self.starts), ("end", self.ends),
                  ("parent", self.parents), ("name", self.name_of)]
        header = {
            "names": self.names,
            "layers": self.layers,
            "arrays": [[key, arr.typecode, len(arr)] for key, arr in arrays],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(handle)

    def ids(self, *names: str) -> set:
        return {i for i, n in enumerate(self.names) if n in names}

    def ids_where(self, pred: Callable[[str, str], bool]) -> set:
        return {i for i, (n, l) in enumerate(zip(self.names, self.layers)) if pred(n, l)}

    def count(self, ids: set, entries_only: bool = False) -> int:
        """Spans named in *ids* (only entries into their layer, if asked)."""
        per = self.entries if entries_only else self.n
        return sum(per[i] for i in ids)

    def self_s(self, ids: set) -> float:
        return sum(self.self_[i] for i in ids)

    def incl_s(self, ids: set) -> float:
        return sum(self.incl[i] for i in ids)

    def durations(self, groups: Dict[str, set]) -> Dict[str, List[float]]:
        """Inclusive durations per group, outermost span of a group only."""
        out: Dict[str, List[float]] = {g: [] for g in groups}
        lookup = {i: g for g, ids in groups.items() for i in ids}
        name_of, parents, starts, ends = self.name_of, self.parents, self.starts, self.ends
        for i in range(len(name_of)):
            g = lookup.get(name_of[i])
            if g is None:
                continue
            p = parents[i]
            if p >= 0 and lookup.get(name_of[p]) == g:
                continue
            out[g].append(ends[i] - starts[i])
        return out

    def self_within(self, roots: set) -> Dict[str, float]:
        """Self seconds per layer of the spans inside the subtrees of *roots*."""
        inside = bytearray(len(self.name_of))
        out: Dict[str, float] = defaultdict(float)
        name_of, parents, layers = self.name_of, self.parents, self.layers
        for i in range(len(name_of)):
            p = parents[i]
            if name_of[i] in roots or (p >= 0 and inside[p]):
                inside[i] = 1
                out[layers[name_of[i]]] += self.ends[i] - self.starts[i] - self.child[i]
        return dict(out)

    def by_layer(self) -> Dict[str, float]:
        """Self seconds per layer."""
        out: Dict[str, float] = defaultdict(float)
        for j, layer in enumerate(self.layers):
            out[layer] += self.self_[j]
        return dict(out)

    def by_name(self) -> List[Dict[str, Any]]:
        """Per span name: layer, count, inclusive and self seconds."""
        return sorted(
            ({"name": self.names[j], "layer": self.layers[j], "count": self.n[j],
              "incl_s": self.incl[j], "self_s": self.self_[j]}
             for j in range(len(self.names)) if self.n[j]),
            key=lambda r: -r["self_s"],
        )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def layer_metrics(table: SpanTable) -> Dict[str, float]:
    """Every per-layer metric the span table can give (0 where absent)."""
    m: Dict[str, float] = {}
    kinds = {k: table.ids(f"event.{k}") for k in _EVENT_KINDS + ("fault", "other")}
    events = set().union(*kinds.values())
    n_events = table.count(events)
    m["sim.events"] = n_events
    for kind in _EVENT_KINDS:
        m[f"sim.events.{kind}"] = table.count(kinds[kind])
    m["sim.events.other"] = table.count(kinds["other"]) + table.count(kinds["fault"])
    m["sim.iter_share"] = m["sim.events.iter"] / n_events if n_events else 0.0
    m["sim.dispatch_s.iter"] = table.self_s(kinds["iter"])
    m["sim.dispatch_s.other"] = table.self_s(events - kinds["iter"])

    rng = table.ids_where(lambda n, l: l == "rng")
    m["rng.draws"] = table.count(rng, entries_only=True)
    m["rng.s"] = table.self_s(rng)

    runtime = table.ids_where(lambda n, l: l == "runtime")
    m["runtime.iterations"] = m["sim.events.iter"]
    m["runtime.reports"] = table.counters.get(_REPORTS, 0)
    m["runtime.report_ratio"] = (
        m["runtime.reports"] / m["runtime.iterations"] if m["runtime.iterations"] else 0.0
    )
    m["runtime.analyzer_s"] = table.self_s(
        table.ids_where(lambda n, l: n.startswith("SelfAnalyzer."))
    )
    m["runtime.s"] = table.self_s(runtime)

    deliver = table.ids_where(lambda n, l: n.endswith("ResourceManager.deliver_report"))
    m["rm.reports"] = table.count(deliver, entries_only=True)
    m["rm.report_s"] = table.self_s(deliver)
    m["rm.report_noop_ratio"] = (
        table.counters.get(_NOOP_REPORT, 0) / m["rm.reports"] if m["rm.reports"] else 0.0
    )
    m["rm.s"] = table.self_s(table.ids_where(lambda n, l: l == "rm"))

    policy = table.ids_where(lambda n, l: l == "policy")
    validate = table.ids_where(lambda n, l: n.endswith(".validate_decision"))
    m["policy.calls"] = table.count(policy, entries_only=True)
    m["policy.decide_s"] = table.self_s(policy - validate)
    m["policy.validate_s"] = table.self_s(validate)

    m["machine.resizes"] = table.count(table.ids("Machine.resize_job"))
    m["machine.s"] = table.self_s(table.ids_where(lambda n, l: l == "machine"))

    trace = table.ids_where(lambda n, l: l == "trace")
    m["trace.records"] = table.count(trace, entries_only=True)
    m["trace.s"] = table.self_s(trace)

    qs = table.ids_where(lambda n, l: l == "qs")
    m["qs.ops"] = table.count(qs, entries_only=True)
    m["qs.s"] = table.self_s(qs)
    m["qs.prune_s"] = table.self_s(table.ids_where(lambda n, l: n.endswith(".prune_terminal")))

    m["faults.events"] = table.count(kinds["fault"])

    spans = table.durations({
        "save": table.ids("SimulationSession.save", "ServeSession.save"),
        "append": table.ids("ArrivalJournal.append"),
        "step": table.ids("Simulator.step"),
    })
    save_ms = [d * 1000 for d in spans["save"]]
    m["checkpoint.saves"] = len(save_ms)
    m["checkpoint.save_ms_p50"] = percentile(save_ms, 50)
    m["checkpoint.save_ms_p99"] = percentile(save_ms, 99)
    m["checkpoint.encode_s"] = table.self_s(
        table.ids_where(lambda n, l: l == "checkpoint")
    )

    appends = [d * 1000 for d in spans["append"]]
    m["serve.journal_appends"] = len(appends)
    m["serve.journal_append_ms_p50"] = percentile(appends, 50)
    m["serve.journal_append_ms_p99"] = percentile(appends, 99)
    m["serve.status_writes"] = table.count(table.ids("ServeService.write_status"))
    steps = [d * 1000 for d in spans["step"]]
    m["serve.step_ms_p50"] = percentile(steps, 50)
    m["serve.step_ms_p99"] = percentile(steps, 99)

    fsyncs = table.ids("StorageLayer.fsync", "StorageLayer.fsync_dir")
    m["storage.fsyncs"] = table.count(fsyncs)
    m["storage.fsync_s"] = table.self_s(fsyncs)
    m["storage.write_atomic_s"] = table.incl_s(table.ids("StorageLayer.write_atomic"))
    m["storage.bytes_written"] = table.counters.get(_BYTES, 0)
    m["storage.s"] = table.self_s(table.ids_where(lambda n, l: l == "storage"))

    m["parallel.cache_get_s"] = table.incl_s(table.ids("ResultCache.get"))
    m["parallel.cache_put_s"] = table.incl_s(table.ids("ResultCache.put"))
    journal = table.ids("SweepJournal.append")
    m["parallel.journal_appends"] = table.count(journal)
    m["parallel.journal_s"] = table.incl_s(journal)

    m["gc.collections"] = table.gc_collections
    m["gc.gen2_collections"] = table.gc_gen2
    m["gc.s"] = table.self_s(table.ids_where(lambda n, l: l == "gc"))
    return m


# ----------------------------------------------------------------------
# cProfile cross-check
# ----------------------------------------------------------------------
def _module_of(filename: str) -> Optional[str]:
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return None
    rel = path[at + len("/src/"):-3].replace("/", ".")
    return rel[: -len(".__init__")] if rel.endswith(".__init__") else rel


def profile_rollup(stats: Dict[Any, Any]) -> Dict[str, Dict[str, float]]:
    """Roll ``pstats`` tottime up by ``repro.<package>`` and by layer.

    ``package`` and ``layer`` charge only time spent in ``repro`` code
    itself.  ``layer_charged`` also charges each non-``repro`` function
    (builtins such as ``pickle.dumps`` or ``os.fsync``, stdlib code such
    as ``random``) to the ``repro`` functions that called it directly,
    in proportion to the caller edges' tottime: that is how a span sees
    them.  Deeper stdlib chains stay in ``other``.
    """
    package: Dict[str, float] = defaultdict(float)
    layer: Dict[str, float] = defaultdict(float)
    charged: Dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        module = _module_of(filename)
        if module is not None:
            parts = module.split(".")
            package[".".join(parts[:2])] += tottime
            layer[layer_of_module(module)] += tottime
            charged[layer_of_module(module)] += tottime
            continue
        package["other"] += tottime
        layer["other"] += tottime
        edges = [(_module_of(c[0]), edge[2]) for c, edge in callers.items()]
        edge_total = sum(t for _, t in edges)
        for caller_module, t in edges:
            share = tottime * (t / edge_total) if edge_total else 0.0
            target = layer_of_module(caller_module) if caller_module else "other"
            charged[target] += share
        if not edges or not edge_total:
            charged["other"] += tottime
    return {"package": dict(package), "layer": dict(layer), "layer_charged": dict(charged)}


def share_disagreements(span_layers: Dict[str, float],
                        rollup: Dict[str, Dict[str, float]],
                        top: int = 5) -> List[Dict[str, Any]]:
    """Layers whose span self-time share and cProfile share differ most."""
    span_total = sum(span_layers.values()) or 1.0
    own = rollup["layer"]
    charged = rollup["layer_charged"]
    own_total = sum(own.values()) or 1.0
    charged_total = sum(charged.values()) or 1.0
    rows = []
    for name in sorted(set(span_layers) | set(own) | set(charged)):
        span_share = span_layers.get(name, 0.0) / span_total
        own_share = own.get(name, 0.0) / own_total
        charged_share = charged.get(name, 0.0) / charged_total
        rows.append({
            "layer": name,
            "span_share": round(span_share, 4),
            "cprofile_share": round(own_share, 4),
            "cprofile_charged_share": round(charged_share, 4),
            "gap": round(span_share - charged_share, 4),
        })
    rows.sort(key=lambda r: -abs(r["gap"]))
    return rows[:top]
