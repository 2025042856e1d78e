"""The determinism rule catalogue.

Every rule has a stable ID (``DET1xx``), a severity, and a fix hint;
``repro lint`` runs all of them unless ``[tool.repro.analysis]``
selects or ignores specific IDs.  ``DET100`` is reserved for the
engine itself (malformed or unjustified suppressions) and has no rule
class here.

See ``docs/static-analysis.md`` for the rendered catalogue.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.rules.base import Rule
from repro.analysis.rules.comparisons import FloatTimeEqualityRule, UnstableSortKeyRule
from repro.analysis.rules.defaults import EnvironmentReadRule, MutableDefaultRule
from repro.analysis.rules.ordering import FilesystemOrderRule, SetIterationRule
from repro.analysis.rules.randomness import EntropySourceRule, UnseededRandomRule
from repro.analysis.rules.wallclock import MonotonicClockRule, WallClockRule

#: ID of the engine-level rule for malformed suppressions.
SUPPRESSION_RULE_ID = "DET100"

#: All registered rules, in catalogue (ID) order.
ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    MonotonicClockRule(),
    UnseededRandomRule(),
    EntropySourceRule(),
    SetIterationRule(),
    FloatTimeEqualityRule(),
    UnstableSortKeyRule(),
    MutableDefaultRule(),
    FilesystemOrderRule(),
    EnvironmentReadRule(),
)

#: Rules by ID, for suppression validation and documentation.
RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
