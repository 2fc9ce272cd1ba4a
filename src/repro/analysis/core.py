"""Lint framework: findings, rule protocol, suppressions, file runner.

The framework is deliberately dependency-free (``ast`` + ``re``): it
reads source, never imports it, and runs inside the tier-1 suite.  Rules are
small classes registered by :func:`repro.analysis.rules.default_rules`;
each sees one parsed module at a time plus, optionally, a finalisation
pass over the whole scan for cross-file checks (the trace-event
catalogue needs to know every emitting site before it can report an
event as unemitted).

Code domains
============

Not every file plays by sim rules.  The config classifies each path as

* ``sim`` — simulation code whose behaviour feeds the trace.  All five
  rule families apply.  Default: everything under ``src/repro`` except
  the carve-outs below.
* ``tool`` — developer tooling (this package, ``scripts/``,
  ``benchmarks/``, ``tests/``), where wall-clock timing and ambient
  entropy are legitimate.  Only the trace-registry family applies.

``crypto/drbg.py`` is the one sim module allowed to touch
``os.urandom``: it *defines* the boundary between real entropy and the
deterministic world (``SystemRandomSource`` wraps the OS; everything
else must go through a seeded DRBG).

Suppressions
============

A finding on line N is silenced by a comment on line N (or a
comment-only line N-1)::

    for device in self.devices.values():  # repro: ignore[nondet-iter] -- order cannot reach the trace: ...

Strict mode also reports suppressions with no ``-- justification``
text, suppressions naming unknown rules, and suppressions that matched
no finding (so stale ignores cannot accumulate).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Matches suppression comments: ignore[...] with one or more
#: comma-separated rule names, then an optional ``--`` justification.
_SUPPRESSION = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[A-Za-z0-9_\-, ]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)

#: Paths classified as tooling inside the default repo layout.  The
#: bench package measures the simulation from outside (wall-clock
#: sampling, host fingerprints, git calls are its whole job); nothing
#: in it feeds a trace, so it plays by tool rules like the analysis
#: package itself.
DEFAULT_TOOL_GLOBS = (
    "src/repro/analysis/*",
    "src/repro/analysis/**/*",
    "src/repro/bench/*",
    "src/repro/bench/**/*",
    "scripts/*",
    "tests/*",
    "tests/**/*",
    "benchmarks/*",
    "examples/*",
    "setup.py",
)

#: Sim modules allowed to consume operating-system entropy.
DEFAULT_ENTROPY_ALLOWED = ("src/repro/crypto/drbg.py",)


@dataclass(frozen=True)
class Finding:
    """One lint hit, pinned to a file and line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: ignore[...]`` comment."""

    path: str
    line: int
    rules: Tuple[str, ...]
    reason: str

    def covers(self, finding: Finding) -> bool:
        return finding.path == self.path and finding.line == self.line and (
            finding.rule in self.rules
        )


@dataclass(frozen=True)
class LintConfig:
    """Path classification for one repository root."""

    root: Path
    tool_globs: Tuple[str, ...] = DEFAULT_TOOL_GLOBS
    entropy_allowed: Tuple[str, ...] = DEFAULT_ENTROPY_ALLOWED
    #: Directory whose full coverage arms the cross-file registry check
    #: (scanning a single file must not report every other event as
    #: unemitted).
    sim_root: str = "src/repro"

    def rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def domain_of(self, rel_path: str) -> str:
        for pattern in self.tool_globs:
            if fnmatch(rel_path, pattern):
                return "tool"
        return "sim"

    def allows_entropy(self, rel_path: str) -> bool:
        return any(fnmatch(rel_path, pattern) for pattern in self.entropy_allowed)


@dataclass
class ModuleContext:
    """One parsed module, handed to every rule."""

    rel_path: str
    domain: str
    source: str
    tree: ast.Module
    config: LintConfig
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @property
    def entropy_allowed(self) -> bool:
        return self.config.allows_entropy(self.rel_path)

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule.name,
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name` (the suppression identifier),
    :attr:`description` and :attr:`domains`, and implement
    :meth:`check`; cross-file rules may also implement
    :meth:`finalize`, which runs once after every module was checked.
    """

    name: str = ""
    description: str = ""
    #: Domains the rule applies to ("sim", "tool").
    domains: frozenset = frozenset({"sim"})

    @property
    def produces(self) -> Tuple[str, ...]:
        """Every finding name this rule can emit (suppression targets)."""
        return (self.name,)

    def applies_to(self, module: ModuleContext) -> bool:
        return module.domain in self.domains

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finalize(
        self, modules: Sequence[ModuleContext], full_sim_scan: bool
    ) -> Iterator[Finding]:
        return iter(())


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    suppressions: List[Suppression]
    files_scanned: int
    #: Strict-mode hygiene findings about the suppressions themselves.
    hygiene: List[Finding] = field(default_factory=list)

    def all_findings(self, strict: bool) -> List[Finding]:
        out = list(self.findings)
        if strict:
            out.extend(self.hygiene)
        return sorted(out, key=Finding.sort_key)

    def ok(self, strict: bool) -> bool:
        return not self.all_findings(strict)


def _comment_lines(source: str, lines: Sequence[str]) -> Iterator[Tuple[int, str]]:
    """(line number, comment text) for every real comment token.

    Tokenising (rather than regex-scanning raw lines) keeps suppression
    examples inside docstrings from being parsed as live suppressions.
    Falls back to the raw scan only if tokenisation fails — the file
    already parsed as Python by the time we get here, so it should not.
    """
    import io
    import tokenize

    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parsed OK upstream
        for number, line in enumerate(lines, start=1):
            yield number, line


def _parse_suppressions(
    rel_path: str, source: str, lines: Sequence[str]
) -> List[Suppression]:
    out = []
    for number, comment in _comment_lines(source, lines):
        match = _SUPPRESSION.search(comment)
        if match is None:
            continue
        rules = tuple(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        out.append(
            Suppression(
                path=rel_path,
                line=number,
                rules=rules,
                reason=(match.group("reason") or "").strip(),
            )
        )
    return out


def _suppression_lines(
    suppressions: Sequence[Suppression], lines: Sequence[str]
) -> Dict[int, Suppression]:
    """Map effective line -> suppression.

    A suppression on a comment-only line covers the next line of code,
    so long justifications can sit above the statement they silence.
    """
    by_line: Dict[int, Suppression] = {}
    for suppression in suppressions:
        index = suppression.line - 1
        text = lines[index] if index < len(lines) else ""
        if text.lstrip().startswith("#"):
            # Comment-only line: attach to the next non-blank line.
            target = suppression.line + 1
            while target <= len(lines) and not lines[target - 1].strip():
                target += 1
            by_line[target] = suppression
        else:
            by_line[suppression.line] = suppression
    return by_line


def _apply_suppressions(
    findings: Sequence[Finding],
    suppressions: Sequence[Suppression],
    lines_by_path: Dict[str, Sequence[str]],
) -> Tuple[List[Finding], List[Finding], Dict[Tuple[str, int], bool]]:
    """Split findings into (active, suppressed) and track suppression use."""
    by_path: Dict[str, Dict[int, Suppression]] = {}
    used: Dict[Tuple[str, int], bool] = {
        (s.path, s.line): False for s in suppressions
    }
    for suppression in suppressions:
        lines = lines_by_path.get(suppression.path, ())
        by_path.setdefault(suppression.path, {}).update(
            _suppression_lines([suppression], lines)
        )
    active: List[Finding] = []
    silenced: List[Finding] = []
    for finding in findings:
        suppression = by_path.get(finding.path, {}).get(finding.line)
        if suppression is not None and finding.rule in suppression.rules:
            silenced.append(finding)
            used[(suppression.path, suppression.line)] = True
        else:
            active.append(finding)
    return active, silenced, used


def _hygiene_findings(
    suppressions: Sequence[Suppression],
    used: Dict[Tuple[str, int], bool],
    known_rules: Iterable[str],
) -> List[Finding]:
    known = set(known_rules)
    out: List[Finding] = []
    for suppression in suppressions:
        if not suppression.reason:
            out.append(
                Finding(
                    rule="suppression-no-reason",
                    path=suppression.path,
                    line=suppression.line,
                    message="suppression must justify itself: "
                    "# repro: ignore[rule] -- why this is safe",
                )
            )
        for name in suppression.rules:
            if name not in known:
                out.append(
                    Finding(
                        rule="suppression-unknown-rule",
                        path=suppression.path,
                        line=suppression.line,
                        message=f"suppression names unknown rule {name!r}",
                    )
                )
        if not used.get((suppression.path, suppression.line), False):
            out.append(
                Finding(
                    rule="suppression-unused",
                    path=suppression.path,
                    line=suppression.line,
                    message="suppression matches no finding (stale ignore — "
                    "delete it or fix the rule name)",
                )
            )
    return out


#: Hygiene rule names, addressable from ``--list-rules`` and docs.
HYGIENE_RULES = (
    "suppression-no-reason",
    "suppression-unknown-rule",
    "suppression-unused",
)


def _iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def _load_module(
    path: Path, config: LintConfig
) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    rel_path = config.rel(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, Finding("parse-error", rel_path, 1, f"unreadable: {exc}")
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return None, Finding(
            "parse-error", rel_path, exc.lineno or 1, f"syntax error: {exc.msg}"
        )
    return (
        ModuleContext(
            rel_path=rel_path,
            domain=config.domain_of(rel_path),
            source=source,
            tree=tree,
            config=config,
        ),
        None,
    )


def _covers_sim_root(paths: Sequence[Path], config: LintConfig) -> bool:
    sim_root = (config.root / config.sim_root).resolve()
    for path in paths:
        resolved = path.resolve()
        if resolved == sim_root or sim_root.is_relative_to(resolved):
            return True
    return False


def lint_paths(
    paths: Sequence[Path],
    config: LintConfig,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with ``rules``.

    Returns a :class:`LintReport`; callers decide strictness at render
    time (`report.all_findings(strict=...)`), so one scan serves both
    the advisory and the CI behaviour.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()

    modules: List[ModuleContext] = []
    findings: List[Finding] = []
    suppressions: List[Suppression] = []
    lines_by_path: Dict[str, Sequence[str]] = {}
    for path in _iter_python_files(paths):
        module, error = _load_module(path, config)
        if error is not None:
            findings.append(error)
            continue
        assert module is not None
        modules.append(module)
        lines_by_path[module.rel_path] = module.lines
        suppressions.extend(
            _parse_suppressions(module.rel_path, module.source, module.lines)
        )
        for rule in rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module))

    full_sim_scan = _covers_sim_root(paths, config)
    for rule in rules:
        findings.extend(rule.finalize(modules, full_sim_scan))

    active, silenced, used = _apply_suppressions(
        findings, suppressions, lines_by_path
    )
    known_rules = [name for rule in rules for name in rule.produces]
    hygiene = _hygiene_findings(suppressions, used, known_rules)
    return LintReport(
        findings=sorted(active, key=Finding.sort_key),
        suppressed=sorted(silenced, key=Finding.sort_key),
        suppressions=suppressions,
        files_scanned=len(modules),
        hygiene=hygiene,
    )


def lint_source(
    source: str,
    rules: Optional[Sequence[Rule]] = None,
    rel_path: str = "src/repro/snippet.py",
    root: Optional[Path] = None,
) -> List[Finding]:
    """Lint a source string as if it lived at ``rel_path`` (test helper).

    Suppressions apply; returns the active findings only.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    config = LintConfig(root=root or Path("."))
    tree = ast.parse(source, filename=rel_path)
    module = ModuleContext(
        rel_path=rel_path,
        domain=config.domain_of(rel_path),
        source=source,
        tree=tree,
        config=config,
    )
    findings: List[Finding] = []
    for rule in rules:
        if rule.applies_to(module):
            findings.extend(rule.check(module))
    for rule in rules:
        findings.extend(rule.finalize([module], False))
    suppressions = _parse_suppressions(module.rel_path, module.source, module.lines)
    active, _, _ = _apply_suppressions(
        findings, suppressions, {module.rel_path: module.lines}
    )
    return sorted(active, key=Finding.sort_key)
