"""Metadata for the flow-analysis rule families.

Kept import-light on purpose: the suppression parser in
``repro.analysis.linter`` needs these IDs to validate
``# repro: allow(...)`` comments without importing the flow engine
(which would be a circular import), and docs/CLI listings render the
titles and hints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class FlowRuleInfo:
    """Identity card for one flow rule."""

    id: str
    title: str
    severity: str
    hint: str


FLOW_RULES: Tuple[FlowRuleInfo, ...] = (
    FlowRuleInfo(
        id="DET201",
        title="nondeterministic value reaches a sort key",
        severity="error",
        hint="Key the sort on stable job/event fields instead of clock, "
        "RNG, or id() values (flow-sensitive counterpart of DET107).",
    ),
    FlowRuleInfo(
        id="DET202",
        title="nondeterministic value reaches a persisted artifact",
        severity="error",
        hint="Derive persisted fields from simulation state, or record the "
        "value once in metadata that is excluded from byte comparisons.",
    ),
    FlowRuleInfo(
        id="DET203",
        title="nondeterministic value stored into sim object state",
        severity="error",
        hint="Checkpoint envelopes pickle object state; store virtual time "
        "or seeded-stream draws instead (flow-sensitive DET101/DET103).",
    ),
    FlowRuleInfo(
        id="DET204",
        title="nondeterministic value reaches an event time or priority",
        severity="error",
        hint="Event ordering must be a pure function of simulation state; "
        "compute times from sim.now and deterministic deltas.",
    ),
    FlowRuleInfo(
        id="DET205",
        title="set-iteration order escapes the function",
        severity="error",
        hint="Sort the materialised sequence before returning it, or return "
        "a set (flow-sensitive counterpart of DET105: a sequence that is "
        "sorted before escaping is fine).",
    ),
    FlowRuleInfo(
        id="CONC303",
        title="unpicklable value reachable from session state",
        severity="error",
        hint="Session state must survive pickling for checkpoints: "
        "replace lambdas/local functions with module-level ones, drop "
        "handles/locks in __getstate__.",
    ),
)

FLOW_RULE_INFO: Dict[str, FlowRuleInfo] = {rule.id: rule for rule in FLOW_RULES}
FLOW_RULE_IDS = frozenset(FLOW_RULE_INFO)
