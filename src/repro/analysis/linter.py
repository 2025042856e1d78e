"""The static layer of the determinism sanitizer.

``repro lint`` parses every Python file it is pointed at, runs the
rule catalogue (:mod:`repro.analysis.rules`) over the AST, honours the
``[tool.repro.analysis]`` configuration, and applies inline
suppressions of the form::

    risky_call()  # repro: allow(DET102): worker timeout is host wall-time

A suppression **must** carry a justification after the closing
parenthesis — a bare ``# repro: allow(DET102)`` is itself reported as
``DET100``, as is a suppression naming an unknown rule.  A suppression
on its own line applies to the next line; a trailing suppression
applies to its own line.

The linter only reads source text: it never imports the modules it
checks, so it is safe on files with import-time side effects and fast
enough for a pre-commit hook.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES, RULES_BY_ID, SUPPRESSION_RULE_ID, SourceFile

#: A well-formed suppression comment (syntax in the module docstring).
_SUPPRESSION = re.compile(
    r"#\s*repro:\s*allow\(\s*(?P<ids>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\s*\)"
    r"(?::\s*(?P<why>.*\S))?"
)
#: Anything that looks like a suppression attempt, well-formed or not.
_SUPPRESSION_ATTEMPT = re.compile(r"#\s*repro:\s*allow")


@dataclass(frozen=True)
class Suppression:
    """One parsed inline suppression."""

    line: int
    rule_ids: Tuple[str, ...]
    justification: str
    #: whether the comment stands alone (applies to the next line too)
    standalone: bool


def _comment_tokens(text: str) -> List[Tuple[int, bool, str]]:
    """Real comment tokens as ``(line, standalone, text)``.

    Tokenizing (rather than scanning lines) keeps suppression-shaped
    text inside string literals — docs, error hints, test fixtures —
    from being parsed as suppressions.
    """
    comments: List[Tuple[int, bool, str]] = []
    lines = text.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            line_no, column = token.start
            before = lines[line_no - 1][:column] if line_no <= len(lines) else ""
            comments.append((line_no, not before.strip(), token.string))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass  # unparsable file: the DET000 syntax finding covers it
    return comments


def parse_suppressions(
    text: str, path_label: str
) -> Tuple[Dict[int, Suppression], List[Finding]]:
    """Extract suppressions and report malformed ones as DET100."""
    suppressions: Dict[int, Suppression] = {}
    problems: List[Finding] = []

    def det100(line_no: int, message: str) -> None:
        problems.append(Finding(
            path=path_label,
            line=line_no,
            column=0,
            rule=SUPPRESSION_RULE_ID,
            severity="error",
            message=message,
            hint=(
                "write `# repro: allow(<RULE-ID>): <why this is safe>` "
                "— the justification is mandatory and is read in review"
            ),
        ))

    for line_no, standalone, comment in _comment_tokens(text):
        if not _SUPPRESSION_ATTEMPT.search(comment):
            continue
        matched = _SUPPRESSION.search(comment)
        if not matched:
            det100(line_no, "malformed suppression comment")
            continue
        ids = tuple(part.strip() for part in matched.group("ids").split(","))
        why = (matched.group("why") or "").strip()
        unknown = [
            i for i in ids if i not in RULES_BY_ID and i != SUPPRESSION_RULE_ID
        ]
        if unknown:
            det100(line_no, f"suppression names unknown rule(s): {', '.join(unknown)}")
            continue
        if not why:
            det100(
                line_no,
                f"suppression of {', '.join(ids)} carries no justification",
            )
            continue
        suppressions[line_no] = Suppression(
            line=line_no,
            rule_ids=ids,
            justification=why,
            standalone=standalone,
        )
    return suppressions, problems


def is_suppressed(
    suppressions: Dict[int, Suppression], line: int, rule_id: str
) -> bool:
    """Whether a finding at *line* for *rule_id* is suppressed."""
    own = suppressions.get(line)
    if own is not None and rule_id in own.rule_ids:
        return True
    above = suppressions.get(line - 1)
    return above is not None and above.standalone and rule_id in above.rule_ids


def iter_python_files(
    paths: Sequence[Union[str, Path]], config: AnalysisConfig
) -> Iterable[Path]:
    """Expand files/directories into a stable, sorted file sequence."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if not config.is_excluded(candidate.as_posix()):
                yield candidate


class Linter:
    """Runs the rule catalogue over files, applying config + suppressions."""

    def __init__(self, config: Optional[AnalysisConfig] = None) -> None:
        self.config = config or AnalysisConfig()
        self.rules = [
            rule for rule in ALL_RULES if self.config.rule_enabled(rule.id)
        ]

    def lint_text(self, text: str, path: Union[str, Path]) -> List[Finding]:
        """Lint one file's source text (the core entry point)."""
        path = Path(path)
        label = path.as_posix()
        suppressions, findings = parse_suppressions(text, label)
        try:
            src = SourceFile.parse(path, text, self.config)
        except SyntaxError as exc:
            findings.append(Finding(
                path=label,
                line=exc.lineno or 1,
                column=exc.offset or 0,
                rule="DET000",
                severity="error",
                message=f"file does not parse: {exc.msg}",
                hint="the sanitizer needs a valid AST; fix the syntax error",
            ))
            return findings
        for rule in self.rules:
            if not rule.applies_to(src):
                continue
            for node, message in rule.check(src):
                line = getattr(node, "lineno", 1)
                if is_suppressed(suppressions, line, rule.id):
                    continue
                findings.append(Finding(
                    path=label,
                    line=line,
                    column=getattr(node, "col_offset", 0),
                    rule=rule.id,
                    severity=rule.severity,
                    message=message,
                    hint=rule.hint,
                ))
        return findings

    def lint_file(self, path: Union[str, Path]) -> List[Finding]:
        """Lint one file from disk."""
        path = Path(path)
        return self.lint_text(path.read_text(encoding="utf-8"), path)

    def lint_paths(self, paths: Sequence[Union[str, Path]]) -> List[Finding]:
        """Lint files and directories (recursively), in sorted order."""
        findings: List[Finding] = []
        for path in iter_python_files(paths, self.config):
            findings.extend(self.lint_file(path))
        return findings


def lint_paths(
    paths: Sequence[Union[str, Path]],
    config: Optional[AnalysisConfig] = None,
) -> List[Finding]:
    """Convenience wrapper: lint *paths* with *config* (or discovered).

    When *config* is ``None`` it is loaded from the nearest
    ``pyproject.toml`` above the first path.
    """
    if config is None:
        config = load_config(paths[0] if paths else ".")
    return Linter(config).lint_paths(paths)
