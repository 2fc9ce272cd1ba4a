#!/usr/bin/env python3
"""Documentation checks: module doctests + markdown link integrity.

Run from the repo root (``tests/test_docs.py`` does)::

    PYTHONPATH=src python scripts/check_docs.py

Four passes, all dependency-free:

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
"""

from __future__ import annotations

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


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = (
        run_doctests() + check_links(root) + check_trace_catalogue(root)
        + check_config_names(root)
    )
    if failures:
        print(f"\n{failures} documentation check(s) failed")
        return 1
    print("\nall documentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
