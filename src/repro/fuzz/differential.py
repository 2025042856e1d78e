"""Differential policy checking.

The same recorded stimulus, replayed under every policy.  Policies
are *supposed* to disagree about who gets CPUs — that is the paper's
whole subject — so the differential check compares only what no
scheduling decision may change:

* **CPU conservation** — free + allocated = healthy on every machine,
  at every step, under every policy;
* **job conservation** — every submitted job is in exactly one
  lifecycle bucket at every step, and terminal after a full drain;
* the rest of the incremental oracle (allocation bounds, MPL respect,
  fault accounting, trace sanity).

Policies may differ on *who* gets CPUs, never on *how many exist*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.fuzz.corpus import replay_stimulus
from repro.fuzz.stimulus import Stimulus
from repro.fuzz.targets import FUZZ_APPS, FUZZ_N_CPUS, FUZZ_POLICIES
from repro.sim.rng import RandomStreams
from repro.validate import Violation


@dataclass
class DifferentialResult:
    """Per-policy verdicts for one shared stimulus."""

    violations: Dict[str, List[Violation]] = field(default_factory=dict)
    crashes: Dict[str, str] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """Whether every policy preserved every conservation property."""
        return not self.crashes and all(
            not v for v in self.violations.values()
        )

    def describe(self) -> str:
        """One line per policy, deterministic order."""
        lines = []
        for policy in sorted(set(self.violations) | set(self.crashes)):
            if policy in self.crashes:
                lines.append(f"{policy}: CRASH {self.crashes[policy]}")
            elif self.violations.get(policy):
                lines.append(
                    f"{policy}: {len(self.violations[policy])} violation(s)"
                )
            else:
                lines.append(f"{policy}: ok")
        return "\n".join(lines)


def differential_check(
    ops: Sequence[Dict[str, Any]],
    seed: int = 0,
    policies: Sequence[str] = FUZZ_POLICIES,
) -> DifferentialResult:
    """Replay one op list, then a drain, under every policy.

    The op interpreter's deterministic guards make the same list
    meaningful everywhere.  Each pass is one
    :func:`~repro.fuzz.corpus.replay_stimulus`: the oracle after every
    op, then the post-hoc audit.  The drain stops only with an empty
    event queue or every job terminal, so ``no-wedge`` reports any job
    a scheduler lost.
    """
    result = DifferentialResult()
    drained = list(ops) + [{"kind": "drain"}]
    for policy in policies:
        replay = replay_stimulus(Stimulus(policy, seed, drained))
        if replay.crash is not None:
            result.crashes[policy] = replay.crash
        result.violations[policy] = replay.violations
    return result


def random_stimulus(seed: int, n_ops: int = 40) -> Stimulus:
    """A deterministic pseudo-random op list for differential runs.

    Uses the repository's seeded :class:`RandomStreams` (never ambient
    randomness), so one (seed, n_ops) pair always names the same
    stimulus.  Weighted towards progress ops — a stimulus that never
    fires events never exercises the protocol.
    """
    rng = RandomStreams(seed).stream("fuzz-differential")
    apps = sorted(FUZZ_APPS)
    ops: List[Dict[str, Any]] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.30:
            ops.append({
                "kind": "submit",
                "app": apps[rng.randrange(len(apps))],
                "request": 1 + rng.randrange(FUZZ_N_CPUS),
            })
        elif roll < 0.55:
            ops.append({"kind": "step", "n": 1 + rng.randrange(40)})
        elif roll < 0.70:
            ops.append({"kind": "advance", "dt": float(1 + rng.randrange(5))})
        elif roll < 0.80:
            ops.append({
                "kind": "cpu_fail",
                "cpu": rng.randrange(FUZZ_N_CPUS),
                "transient": bool(rng.randrange(2)),
            })
        elif roll < 0.88:
            ops.append({"kind": "cpu_repair", "cpu": rng.randrange(FUZZ_N_CPUS)})
        elif roll < 0.93:
            ops.append({"kind": "crash", "victim": rng.randrange(8)})
        elif roll < 0.98:
            ops.append({
                "kind": "force",
                "victim": rng.randrange(8),
                "procs": 1 + rng.randrange(FUZZ_N_CPUS),
            })
        else:
            ops.append({"kind": "checkpoint"})
    return Stimulus(policy="*", seed=seed, ops=ops)
