"""The lint ``Rule`` registry, violations and suppression handling.

Rules are frozen dataclasses registered by name at import time, and the
subsystem grows by registering new rules.  A rule is a function from a
:class:`LintContext` (every parsed first-party file plus the repo root) to
a list of :class:`Violation`; the runner handles selection, suppression
comments, formatting and exit codes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Violation:
    """One rule violation, anchored to a file and line.

    Rendered as ``path:line: rule-id message`` -- one line per violation,
    parseable by CI annotation tooling.  ``hint`` carries the rule's fix
    hint (shown by ``repro lint --fix-hints``).
    """

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """One registered static check.

    ``run`` receives the :class:`LintContext` and returns violations; it
    must not raise for ordinary findings (an exception is an analyzer
    internal error, reported with exit code 2).  ``fix_hint`` is a one-line
    remediation template attached to every violation the rule emits.
    """

    name: str
    description: str
    run: Callable[["LintContext"], List[Violation]]
    fix_hint: str = ""

    def violation(self, path: str, line: int, message: str) -> Violation:
        return Violation(
            rule=self.name, path=path, line=line, message=message,
            hint=self.fix_hint,
        )


#: All registered rules by name, in registration order (the extension point
#: later PRs use when new invariants need static coverage).
RULES: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    if rule.name in RULES:
        raise ValueError(f"duplicate lint rule {rule.name!r}")
    RULES[rule.name] = rule
    return rule


def rule_names() -> List[str]:
    return list(RULES)


# ----------------------------------------------------------------------
# Parsed-file context
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([\w,\-]+)")


@dataclass
class SourceFile:
    """One parsed first-party Python file."""

    path: Path
    rel_path: str  # repo-root-relative, forward slashes (stable in output)
    source: str
    tree: ast.Module
    #: line -> rule names disabled on that line (``all`` disables any rule).
    suppressions: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int) -> bool:
        names = self.suppressions.get(line)
        return bool(names) and (rule in names or "all" in names)


def _parse_suppressions(source: str) -> Dict[int, Tuple[str, ...]]:
    """Map line numbers to the rule names disabled there.

    ``# repro-lint: disable=<rule>[,<rule>...]`` suppresses matching
    violations on its own line; when the comment is the only thing on the
    line it applies to the next line instead (standalone form, for lines
    with no room for a trailing comment).
    """
    out: Dict[int, Tuple[str, ...]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        names = tuple(name for name in match.group(1).split(",") if name)
        target = lineno
        if text.lstrip().startswith("#"):
            target = lineno + 1
        merged = out.get(target, ()) + names
        out[target] = merged
    return out


class LintContext:
    """Every parsed file of the lint run, plus unparseable-file errors.

    Rules iterate :attr:`files`; path predicates work on ``rel_path`` so
    rule configuration (hot-path module sets, exempt files) is independent
    of where the repo is checked out.
    """

    def __init__(self, root: Path, files: List[SourceFile],
                 errors: Optional[List[str]] = None):
        self.root = root
        self.files = files
        self.errors: List[str] = errors or []

    @classmethod
    def load(cls, root: Path, paths: Sequence[Path]) -> "LintContext":
        files: List[SourceFile] = []
        errors: List[str] = []
        seen = set()
        for base in paths:
            candidates = [base] if base.is_file() else sorted(base.rglob("*.py"))
            for path in candidates:
                path = path.resolve()
                if path in seen or path.suffix != ".py":
                    continue
                seen.add(path)
                try:
                    source = path.read_text(encoding="utf-8")
                    tree = ast.parse(source, filename=str(path))
                except (OSError, SyntaxError, ValueError) as error:
                    errors.append(f"{path}: unparseable: {error}")
                    continue
                try:
                    rel = path.relative_to(root.resolve())
                    rel_path = rel.as_posix()
                except ValueError:
                    rel_path = path.as_posix()
                files.append(
                    SourceFile(
                        path=path,
                        rel_path=rel_path,
                        source=source,
                        tree=tree,
                        suppressions=_parse_suppressions(source),
                    )
                )
        return cls(root=root, files=files, errors=errors)

    def module_files(self, *rel_paths: str) -> List[SourceFile]:
        wanted = set(rel_paths)
        return [f for f in self.files if f.rel_path in wanted]
