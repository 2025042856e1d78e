"""Flow tier of the determinism sanitizer (``repro lint --deep``).

Interprocedural nondeterminism taint tracking and the session-state
picklability rule over the whole project.  This ``__init__`` stays
import-light on purpose: :mod:`repro.analysis.linter` imports
:mod:`repro.analysis.flow.catalog` for suppression-ID validation, so
pulling the heavy engine in here would create an import cycle.  Import
the driver explicitly::

    from repro.analysis.flow.analyzer import analyze_paths, deep_lint
"""

from repro.analysis.flow.catalog import FLOW_RULE_IDS, FLOW_RULE_INFO, FLOW_RULES

__all__ = ["FLOW_RULES", "FLOW_RULE_IDS", "FLOW_RULE_INFO"]
