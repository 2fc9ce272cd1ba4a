"""Canonical trace identity.

Every equivalence assertion in the repo compares traces rendered as
``time|category|kind|sorted(data)`` lines by :func:`trace_lines`, which
the tests and benches import (``tests/worldutil.trace_lines`` adds a
category filter).  The bench artifacts hash the same rendering with
sha256, so an artifact's ``trace_sha256`` is directly comparable with
the runtime determinism guard in ``tests/test_invariants.py``.
"""

from __future__ import annotations

import hashlib
from typing import List


def trace_lines(sim) -> List[str]:
    """Render a simulator's trace stream as canonical lines."""
    return [
        f"{event.time!r}|{event.category}|{event.kind}|{sorted(event.data.items())!r}"
        for event in sim.trace
    ]


def trace_sha256(sim) -> str:
    """sha256 hexdigest of the newline-joined canonical trace."""
    payload = "\n".join(trace_lines(sim)).encode()
    return hashlib.sha256(payload).hexdigest()
