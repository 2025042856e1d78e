"""The fuzzer's op vocabulary and its deterministic interpreter.

A stimulus is a list of small JSON-serialisable ops — job arrival,
event progress, time progress, CPU fault/repair, job crash, forced
allocation, checkpoint round-trip, drain.  :func:`apply_op` interprets
one op against a :class:`~repro.fuzz.targets.FuzzTarget` with
**deterministic guards**: an op that is inapplicable in the current
state (failing the last CPU, crashing when nothing runs) is skipped by
a rule that depends only on the op and the observable state, never on
chance.  Determinism of the guards is what makes a recorded stimulus
replayable: the same op list against a fresh target takes exactly the
same actions.

Ops
---
``submit {app, request}``
    One job of a :data:`~repro.fuzz.targets.FUZZ_APPS` application.
``step {n}``
    Fire up to *n* pending events.
``advance {dt}``
    Run *dt* simulated seconds forward.
``cpu_fail {cpu, transient}`` / ``cpu_repair {cpu}``
    Take a CPU offline through the RM's fault hook / bring it back.
    Skipped when the machine would lose its last allocatable CPU.
``crash {victim}``
    Kill the *victim*-th running job (modulo the running count), as an
    application crash would.  Skipped when nothing runs.
``force {victim, procs}``
    Impose an allocation outside the policy (graceful-degradation
    path), clamped to ``[1, request]``.  Same skip rules as ``crash``.
``checkpoint {}``
    Save/audit/restore/continue (see
    :meth:`~repro.fuzz.targets.FuzzTarget.checkpoint_roundtrip`).
``drain {}``
    Fire events until the queue empties or all jobs are terminal.
``prune {}``
    Reclaim terminal jobs (streaming targets only; a deterministic
    no-op on batch targets, which keep every job for the summary).

A stimulus recorded against a streaming target carries
``stream: true``, so replays rebuild the serve stack (bounded ingress,
fold-on-completion stats) rather than the batch session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.fuzz.targets import FUZZ_APPS, FUZZ_N_CPUS, FuzzTarget
from repro.validate import Violation

#: op kinds in canonical order (stable for corpus files and reports)
OP_KINDS: Tuple[str, ...] = (
    "submit", "step", "advance", "cpu_fail", "cpu_repair", "crash",
    "force", "checkpoint", "drain", "prune",
)

#: current corpus/stimulus format version
STIMULUS_VERSION = 1


@dataclass
class Stimulus:
    """A replayable recorded interleaving for one policy."""

    policy: str
    seed: int
    ops: List[Dict[str, Any]] = field(default_factory=list)
    n_cpus: int = FUZZ_N_CPUS
    #: recorded against the streaming (serve-stack) target
    stream: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (stable key order is the writer's job)."""
        return {
            "version": STIMULUS_VERSION,
            "policy": self.policy,
            "seed": self.seed,
            "n_cpus": self.n_cpus,
            "stream": self.stream,
            "ops": list(self.ops),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Stimulus":
        version = data.get("version")
        if version != STIMULUS_VERSION:
            raise ValueError(
                f"unsupported stimulus version {version!r} "
                f"(this code reads version {STIMULUS_VERSION})"
            )
        return cls(
            policy=data["policy"],
            seed=int(data["seed"]),
            ops=[dict(op) for op in data["ops"]],
            n_cpus=int(data.get("n_cpus", FUZZ_N_CPUS)),
            # absent in pre-streaming corpus files: those were batch
            stream=bool(data.get("stream", False)),
        )

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, stable floats)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Stimulus":
        return cls.from_dict(json.loads(text))


def _bad_op(op: Dict[str, Any], why: str) -> ValueError:
    return ValueError(f"malformed op {op!r}: {why}")


def apply_op(target: FuzzTarget, op: Dict[str, Any]) -> List[Violation]:
    """Interpret one op against *target*; returns immediate violations.

    Most ops return ``[]`` — the oracle audits the state afterwards —
    but the checkpoint op's round-trip failures are violations in
    their own right and are returned here.
    """
    kind = op.get("kind")
    if kind == "submit":
        app = op.get("app")
        if app not in FUZZ_APPS:
            raise _bad_op(op, f"unknown app {app!r}")
        target.submit(app, int(op.get("request", 1)))
        return []
    if kind == "step":
        n = int(op.get("n", 1))
        if n < 0:
            raise _bad_op(op, "n must be >= 0")
        target.step_events(n)
        return []
    if kind == "advance":
        dt = float(op.get("dt", 1.0))
        if dt <= 0:
            raise _bad_op(op, "dt must be positive")
        target.advance_time(dt)
        return []
    if kind == "cpu_fail":
        cpu = int(op.get("cpu", 0)) % target.n_cpus
        machine = target.rm.machine
        if machine.healthy_cpus <= 1:
            return []  # failing the last CPU is refused by the machine
        target.rm.on_cpu_failed(cpu, permanent=not bool(op.get("transient")))
        return []
    if kind == "cpu_repair":
        cpu = int(op.get("cpu", 0)) % target.n_cpus
        target.rm.on_cpu_repaired(cpu)
        return []
    if kind == "crash":
        running = target.running_jobs()
        if not running:
            return []
        victim = running[int(op.get("victim", 0)) % len(running)]
        target.rm.kill_job(victim, reason="fuzz: injected crash")
        return []
    if kind == "force":
        running = target.running_jobs()
        if not running:
            return []
        victim = running[int(op.get("victim", 0)) % len(running)]
        assert victim.request is not None
        # force_allocation clamps growth to the free pool but not to
        # the request; the real injector's fallback never asks for
        # more than the job requested, so neither does the fuzzer.
        procs = max(1, min(int(op.get("procs", 1)), victim.request))
        target.rm.force_allocation(
            victim.job_id, procs, reason="fuzz: forced allocation"
        )
        return []
    if kind == "checkpoint":
        return target.checkpoint_roundtrip()
    if kind == "drain":
        target.drain()
        return []
    if kind == "prune":
        target.prune()  # deterministic no-op on batch targets
        return []
    raise _bad_op(op, f"unknown kind {kind!r}; expected one of {OP_KINDS}")
