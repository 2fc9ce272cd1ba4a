#!/usr/bin/env python3
"""Regenerate docs/TRACE_EVENTS.md from the trace-event registry.

Run from the repo root after editing
``src/repro/analysis/trace_registry.py``::

    PYTHONPATH=src python scripts/gen_trace_docs.py

``scripts/check_docs.py`` (run by ``tests/test_docs.py``) fails when the file on
disk differs from the registry, and ``repro lint`` fails when the
registry differs from the code, so the three can never drift apart
silently.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.trace_registry import render_markdown  # noqa: E402


def main() -> int:
    target = Path(__file__).resolve().parent.parent / "docs" / "TRACE_EVENTS.md"
    content = render_markdown() + "\n"
    if target.exists() and target.read_text() == content:
        print(f"{target} already up to date")
        return 0
    target.write_text(content)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
