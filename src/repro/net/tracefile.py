"""Contact-trace export and replay.

The paper's stated goal is DTN evaluation that is "replicable, comparable,
and available to a variety of researchers" (§I).  Contact traces are the
lingua franca for that: a list of ``(start, end, node_a, node_b)``
intervals, as used by the ONE simulator's connectivity reports and the
CRAWDAD archives.  This module can

* export a finished run's contacts to that format
  (:func:`write_contact_trace`),
* parse such files (:func:`read_contact_trace`), and
* *replay* a trace as the ground truth of a new simulation
  (:class:`TraceMedium`) — the full SOS/AlleyOop stack runs unmodified on
  recorded contacts instead of synthetic mobility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, TextIO, Tuple

from repro.net.contact import Contact, pair_key
from repro.net.medium import Medium
from repro.net.radio import P2P_WIFI, RadioProfile
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ContactInterval:
    """One recorded contact: two node ids and a time interval."""

    node_a: str
    node_b: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"non-finite contact interval [{self.start}, {self.end}]")
        if self.end <= self.start:
            raise ValueError(f"empty contact interval [{self.start}, {self.end}]")
        if self.node_a == self.node_b:
            raise ValueError(f"self-contact for {self.node_a!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


def write_contact_trace(contacts: Iterable[Contact], fh: TextIO) -> int:
    """Write completed contacts as ``start end node_a node_b`` lines.

    Active (never-closed) contacts are skipped.  Returns the number of
    lines written.
    """
    written = 0
    for contact in sorted(contacts, key=lambda c: (c.start, c.key)):
        if contact.end is None:
            continue
        fh.write(
            f"{contact.start:.3f} {contact.end:.3f} "
            f"{contact.device_a} {contact.device_b}\n"
        )
        written += 1
    return written


def read_contact_trace(fh: TextIO) -> List[ContactInterval]:
    """Parse ``start end node_a node_b`` lines (``#`` comments allowed)."""
    intervals = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed contact line {lineno}: {line!r}")
        try:
            intervals.append(
                ContactInterval(
                    start=float(parts[0]),
                    end=float(parts[1]),
                    node_a=parts[2],
                    node_b=parts[3],
                )
            )
        except ValueError as exc:
            raise ValueError(f"bad contact line {lineno}: {line!r}: {exc}") from exc
    intervals.sort(key=lambda i: i.start)
    return intervals


class TraceMedium(Medium):
    """A :class:`~repro.net.medium.Medium` driven by a recorded contact
    trace instead of geometry.

    It starts no tick: :meth:`start` schedules the trace's up and down
    events, and links go up and down through the medium's own link
    bookkeeping, so callbacks, queries, the contact tracker and
    :meth:`~repro.net.medium.Medium.stop` behave as under geometry.  A
    pair stays linked until the last of its overlapping intervals ends.
    Devices still need (dummy) mobility; positions are irrelevant to
    trace-driven contacts.
    """

    def __init__(
        self,
        sim: Simulator,
        intervals: Iterable[ContactInterval],
        radio: RadioProfile = P2P_WIFI,
    ) -> None:
        super().__init__(sim)
        self.radio = radio
        self._intervals = list(intervals)
        #: pair key -> number of its intervals that have begun and not ended.
        self._open: Dict[Tuple[str, str], int] = {}

    def start(self) -> None:
        """Schedule every up/down event from the trace.

        At one instant, downs run before ups and each in sorted pair
        order, as within a tick, so a recorded trace replays to itself.
        """
        now = self.sim.now
        edges = []
        for interval in self._intervals:
            if interval.node_a not in self.devices or interval.node_b not in self.devices:
                continue  # trace mentions nodes we are not simulating
            if interval.end <= now:
                continue
            key = pair_key(interval.node_a, interval.node_b)
            edges.append((max(interval.start, now), True, key))
            edges.append((interval.end, False, key))
        for at, up, key in sorted(edges):
            if up:
                self.sim.schedule_at(at, self._interval_up, key, name="trace-up")
            else:
                self.sim.schedule_at(at, self._interval_down, key, name="trace-down")

    def _interval_up(self, key: Tuple[str, str]) -> None:
        self._open[key] = self._open.get(key, 0) + 1
        if key in self._linked:
            return
        a, b = self.devices.get(key[0]), self.devices.get(key[1])
        if a is not None and b is not None and a.powered_on and b.powered_on:
            self._raise_link(key, self.radio)

    def _interval_down(self, key: Tuple[str, str]) -> None:
        self._open[key] -= 1
        if not self._open[key]:
            del self._open[key]
            self._drop_link(key)
