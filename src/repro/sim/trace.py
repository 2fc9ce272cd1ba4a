"""Structured trace recording.

The evaluation harness reconstructs everything the paper reports — delay
CDFs, per-subscription delivery ratios, hop counts, the Fig. 4b map overlay
— from the trace stream, never from protocol internals.  That mirrors how
the real deployment measured AlleyOop Social: by logging application-level
events on each phone and post-processing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List


@dataclass(frozen=True)
class TraceEvent:
    """A single structured trace record.

    Attributes
    ----------
    time:
        Simulation time in seconds.
    category:
        Coarse namespace, e.g. ``"contact"``, ``"message"``, ``"mobility"``.
    kind:
        Event name within the category, e.g. ``"delivered"``.
    data:
        Free-form payload; keys are event-kind specific and documented at
        the emit sites.
    """

    time: float
    category: str
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Collects :class:`TraceEvent` records in emission order."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    def emit(self, time: float, category: str, kind: str, **data: Any) -> None:
        """Record one event."""
        event = TraceEvent(time=time, category=category, kind=kind, data=data)
        self._events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` for every subsequently emitted event."""
        self._subscribers.append(callback)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
