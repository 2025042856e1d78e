"""Driver for the flow tier: ``repro lint --deep``.

Runs the project loader, the taint analysis and the session-state
picklability rule over a set of paths, then applies the exact same
config/suppression machinery as the syntactic linter so one
``# repro: allow(DET204): why`` comment silences either tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.linter import Linter, Suppression, is_suppressed, parse_suppressions

from repro.analysis.flow.boundary import SESSION_ROOTS, check_session_state
from repro.analysis.flow.project import Project
from repro.analysis.flow.taint import analyze_taint


@dataclass
class FlowReport:
    """Everything the deep pass produced."""

    findings: List[Finding]
    project: Project
    #: findings that were silenced by inline suppressions (for audits)
    suppressed: List[Finding] = field(default_factory=list)


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    config: Optional[AnalysisConfig] = None,
    session_roots: Sequence[str] = SESSION_ROOTS,
) -> FlowReport:
    """Run the flow tier over *paths* (flow findings only)."""
    if config is None:
        config = load_config(paths[0] if paths else ".")
    project = Project.load(paths, config)
    raw = analyze_taint(project).findings + check_session_state(
        project, session_roots
    )

    by_posix = {
        module.posix: module for module in project.modules.values()
    }
    suppression_cache: Dict[str, Dict[int, Suppression]] = {}
    kept: List[Finding] = []
    silenced: List[Finding] = []
    seen = set()
    for finding in sort_findings(raw):
        identity = (
            finding.path, finding.line, finding.column, finding.rule,
            finding.message,
        )
        if identity in seen:
            continue
        seen.add(identity)
        if not config.rule_enabled(finding.rule):
            continue
        if finding.path not in suppression_cache:
            module = by_posix.get(finding.path)
            text = module.text if module is not None else ""
            suppression_cache[finding.path], _ = parse_suppressions(
                text, finding.path
            )
        if is_suppressed(suppression_cache[finding.path], finding.line, finding.rule):
            silenced.append(finding)
            continue
        kept.append(finding)
    return FlowReport(findings=kept, project=project, suppressed=silenced)


def deep_lint(
    paths: Sequence[Union[str, Path]],
    config: Optional[AnalysisConfig] = None,
    session_roots: Sequence[str] = SESSION_ROOTS,
) -> List[Finding]:
    """Syntactic + flow findings for *paths*, in canonical order."""
    if config is None:
        config = load_config(paths[0] if paths else ".")
    syntactic = Linter(config).lint_paths(paths)
    flow = analyze_paths(paths, config=config, session_roots=session_roots)
    return sort_findings(syntactic + flow.findings)
