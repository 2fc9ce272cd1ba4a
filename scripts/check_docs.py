#!/usr/bin/env python3
"""Documentation checks: module doctests + markdown link integrity.

Run from the repo root (``tests/test_docs.py`` does)::

    PYTHONPATH=src python scripts/check_docs.py

Five passes, all dependency-free:

1. **doctests** — executes the runnable examples embedded in the
   documented module headers (``doctest.testmod`` on the imported
   modules; ``python -m doctest <file>`` would put ``src/repro/crypto``
   on ``sys.path`` and shadow stdlib modules like ``numbers``).
2. **links** — every relative markdown link / inline file reference in
   the user-facing docs must point at a path that exists, so the README
   cannot rot silently as the tree moves.
3. **trace catalogue** — ``docs/TRACE_EVENTS.md`` must match what
   ``scripts/gen_trace_docs.py`` would generate from the registry in
   ``src/repro/analysis/trace_registry.py`` (``repro lint`` closes the
   other half of the loop: registry vs. the emitting code).
4. **config names** — every ``ScenarioConfig.<name>`` and
   ``SosConfig.<name>`` the linked docs mention must be a live field or
   attribute, so a retired knob cannot stay documented.
5. **CLI flags** — every ``--flag`` in a ``repro <command> …`` invocation
   the linked docs show (in fenced blocks, ``\\`` continuations joined,
   and in inline code spans) must be an option of that command's parser
   in ``repro.cli.build_parser()``, so a retired flag cannot stay
   documented either.  Values and placeholders are not checked.
"""

from __future__ import annotations

import argparse
import doctest
import importlib
import re
import sys
from pathlib import Path

#: Modules whose headers carry runnable examples.
DOCTEST_MODULES = (
    "repro.crypto.session",
    "repro.crypto.drbg",
    "repro.pki.keystore",
    "repro.pki.provisioning",
)

#: User-facing documents whose links must resolve.
LINKED_DOCS = ("README.md", "docs/ARCHITECTURE.md", "EXPERIMENTS.md", "docs/TRACE_EVENTS.md")

_MD_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)\)")
_CODE_PATH = re.compile(r"`((?:src|docs|tests|benchmarks|examples|scripts)/[A-Za-z0-9_./-]+)`")
_CONFIG_NAME = re.compile(r"\b(ScenarioConfig|SosConfig)\.([A-Za-z_]\w*)")
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
#: Shell words that end an invocation.
_SHELL_BREAKS = {"|", "||", "&&", ";", ">", ">>", "<"}


def run_doctests() -> int:
    failures = 0
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        status = "ok" if result.failed == 0 else "FAILED"
        print(f"doctest {name}: {result.attempted} examples, {result.failed} failed [{status}]")
        if result.attempted == 0:
            print(f"doctest {name}: FAILED (no examples found — header example removed?)")
            failures += 1
        failures += result.failed
    return failures


def check_links(root: Path) -> int:
    failures = 0
    for doc in LINKED_DOCS:
        path = root / doc
        if not path.is_file():
            print(f"links {doc}: FAILED (document missing)")
            failures += 1
            continue
        text = path.read_text()
        targets = set(_MD_LINK.findall(text)) | set(_CODE_PATH.findall(text))
        broken = sorted(
            target
            for target in targets
            if "://" not in target and not (path.parent / target).exists()
            and not (root / target).exists()
        )
        status = "ok" if not broken else "FAILED"
        print(f"links {doc}: {len(targets)} targets, {len(broken)} broken [{status}]")
        for target in broken:
            print(f"  broken: {target}")
        failures += len(broken)
    return failures


def check_trace_catalogue(root: Path) -> int:
    """docs/TRACE_EVENTS.md must match the registry it is generated from."""
    from repro.analysis.trace_registry import render_markdown

    target = root / "docs" / "TRACE_EVENTS.md"
    expected = render_markdown() + "\n"
    if not target.is_file():
        print("trace catalogue docs/TRACE_EVENTS.md: FAILED (missing — run "
              "scripts/gen_trace_docs.py)")
        return 1
    if target.read_text() != expected:
        print("trace catalogue docs/TRACE_EVENTS.md: FAILED (stale — run "
              "scripts/gen_trace_docs.py after editing the registry)")
        return 1
    print("trace catalogue docs/TRACE_EVENTS.md: ok (matches registry)")
    return 0


def check_config_names(root: Path, docs=LINKED_DOCS) -> int:
    """Every ``ScenarioConfig.<name>`` / ``SosConfig.<name>`` in ``docs``
    must name a field or attribute the class still has."""
    from dataclasses import fields

    from repro.core.config import SosConfig
    from repro.experiments.scenario import ScenarioConfig

    live = {
        cls.__name__: {f.name for f in fields(cls)} | set(dir(cls))
        for cls in (ScenarioConfig, SosConfig)
    }
    failures = 0
    for doc in docs:
        path = root / doc
        if not path.is_file():
            continue  # check_links reports the missing document
        named = set(_CONFIG_NAME.findall(path.read_text()))
        stale = sorted(f"{owner}.{name}" for owner, name in named if name not in live[owner])
        status = "ok" if not stale else "FAILED"
        print(f"config names {doc}: {len(named)} named, {len(stale)} stale [{status}]")
        for name in stale:
            print(f"  stale: {name}")
        failures += len(stale)
    return failures


def _shell_snippets(text: str):
    """The lines of fenced code blocks (``\\`` continuations joined) and
    the inline code spans of the prose around them."""
    fenced, joined = False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced, joined = not fenced, ""
        elif fenced and line.rstrip().endswith("\\"):
            joined += line.rstrip()[:-1] + " "
        elif fenced:
            yield joined + line
            joined = ""
        else:
            yield from _INLINE_CODE.findall(line)


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _unknown_flags(snippet: str, top: argparse.ArgumentParser):
    """For each ``repro <command> …`` invocation in ``snippet``, yield the
    flags its command's parser does not define."""
    words = snippet.split()
    for start, word in enumerate(words):
        if word != "repro":
            continue
        parser, command, unknown = top, ["repro"], []
        for word in words[start + 1 :]:
            if word in _SHELL_BREAKS or word.startswith("#"):
                break
            subcommands = _subcommands(parser)
            if word in subcommands:
                parser = subcommands[word]
                command.append(word)
            elif word.startswith("--"):
                flag = word.split("=", 1)[0]
                if not any(flag in action.option_strings for action in parser._actions):
                    unknown.append(f"{' '.join(command)} {flag}")
        if len(command) > 1:  # prose "repro" without a command is no invocation
            yield unknown


def check_cli_flags(root: Path, docs=LINKED_DOCS) -> int:
    """Every ``--flag`` of a documented ``repro <command>`` invocation must
    be an option of that command."""
    from repro.cli import build_parser

    top = build_parser()
    failures = 0
    for doc in docs:
        path = root / doc
        if not path.is_file():
            continue  # check_links reports the missing document
        invocations, unknown = 0, []
        for snippet in _shell_snippets(path.read_text()):
            for flags in _unknown_flags(snippet, top):
                invocations += 1
                unknown.extend(flags)
        status = "ok" if not unknown else "FAILED"
        print(f"cli flags {doc}: {invocations} invocations, {len(unknown)} unknown [{status}]")
        for flag in unknown:
            print(f"  unknown: {flag}")
        failures += len(unknown)
    return failures


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = (
        run_doctests() + check_links(root) + check_trace_catalogue(root)
        + check_config_names(root) + check_cli_flags(root)
    )
    if failures:
        print(f"\n{failures} documentation check(s) failed")
        return 1
    print("\nall documentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
