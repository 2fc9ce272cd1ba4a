"""Trace-to-record extraction.

The collector walks the simulator's trace and produces flat records for
the delay/delivery/spatial analyses.  It also maintains the subscription
timeline (from ``social/follow`` trace events) so a delivery can be
attributed to the right subscription even when follows changed mid-study.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.trace import TraceRecorder


@dataclass(frozen=True)
class MessageRecord:
    """One created message."""

    author: str
    number: int
    created_at: float

    @property
    def key(self) -> Tuple[str, int]:
        return (self.author, self.number)


@dataclass(frozen=True)
class DeliveryRecord:
    """One device receiving one message copy."""

    owner: str
    author: str
    number: int
    received_at: float
    created_at: float
    hops: int
    interested: bool

    @property
    def key(self) -> Tuple[str, int]:
        return (self.author, self.number)

    @property
    def delay(self) -> float:
        return self.received_at - self.created_at


@dataclass
class SubscriptionWindow:
    """A (follower, followee) interest interval."""

    follower: str
    followee: str
    start: float
    end: Optional[float] = None

    def active_at(self, time: float) -> bool:
        return self.start <= time and (self.end is None or time < self.end)


class TraceCollector:
    """Extracts evaluation records from a finished run's trace."""

    def __init__(self, trace: TraceRecorder) -> None:
        self.messages: Dict[Tuple[str, int], MessageRecord] = {}
        self.deliveries: List[DeliveryRecord] = []
        self.subscription_windows: List[SubscriptionWindow] = []
        #: Injected-fault events by kind (``crash``, ``cloud_down``,
        #: ``frame_drop``, ...) — empty for a faultless run.
        self.fault_counts: Dict[str, int] = defaultdict(int)
        #: Resilient-sync events by kind (``sync_failed``, ``sync_retry``).
        self.cloud_counts: Dict[str, int] = defaultdict(int)
        open_windows: Dict[Tuple[str, str], SubscriptionWindow] = {}

        for event in trace:
            if event.category == "message" and event.kind == "created":
                record = MessageRecord(
                    author=event.data["author"],
                    number=event.data["number"],
                    created_at=event.time,
                )
                self.messages[record.key] = record
            elif event.category == "message" and event.kind == "received":
                self.deliveries.append(
                    DeliveryRecord(
                        owner=event.data["owner"],
                        author=event.data["author"],
                        number=event.data["number"],
                        received_at=event.time,
                        created_at=event.data["created_at"],
                        hops=event.data["hops"],
                        interested=event.data.get("interested", False),
                    )
                )
            elif event.category == "social" and event.kind == "follow":
                self._open_window(
                    open_windows, event.data["follower"], event.data["followee"],
                    event.time,
                )
            elif event.category == "social" and event.kind == "follow_many":
                # One aggregated bulk-bootstrap event stands in for a run
                # of per-edge follows; expand it to the identical
                # per-pair subscription windows, in the same order.
                follower = event.data["follower"]
                for followee in event.data["followees"]:
                    self._open_window(open_windows, follower, followee, event.time)
            elif event.category == "social" and event.kind == "unfollow":
                key = (event.data["follower"], event.data["followee"])
                window = open_windows.pop(key, None)
                if window is not None:
                    window.end = event.time
            elif event.category == "fault":
                self.fault_counts[event.kind] += 1
            elif event.category == "cloud":
                self.cloud_counts[event.kind] += 1

    def _open_window(
        self,
        open_windows: Dict[Tuple[str, str], SubscriptionWindow],
        follower: str,
        followee: str,
        time: float,
    ) -> None:
        key = (follower, followee)
        if key not in open_windows:
            window = SubscriptionWindow(follower=follower, followee=followee, start=time)
            open_windows[key] = window
            self.subscription_windows.append(window)

    # -- derived views -------------------------------------------------------------
    @property
    def unique_message_count(self) -> int:
        """The paper's "unique messages" count (259 in the field study)."""
        return len(self.messages)

    @property
    def dissemination_count(self) -> int:
        """User-to-user message transfers (967 in the field study)."""
        return len(self.deliveries)

    def interested_deliveries(self) -> List[DeliveryRecord]:
        """Deliveries to users subscribed to the author — the events the
        delay and delivery figures are computed from."""
        return [d for d in self.deliveries if d.interested]

    def first_deliveries(self) -> Dict[Tuple[str, str, int], DeliveryRecord]:
        """Earliest interested delivery per (receiver, author, number)."""
        firsts: Dict[Tuple[str, str, int], DeliveryRecord] = {}
        for delivery in self.interested_deliveries():
            key = (delivery.owner, delivery.author, delivery.number)
            current = firsts.get(key)
            if current is None or delivery.received_at < current.received_at:
                firsts[key] = delivery
        return firsts

    def messages_by_author(self) -> Dict[str, List[MessageRecord]]:
        by_author: Dict[str, List[MessageRecord]] = defaultdict(list)
        for record in self.messages.values():
            by_author[record.author].append(record)
        for records in by_author.values():
            records.sort(key=lambda r: r.number)
        return dict(by_author)
