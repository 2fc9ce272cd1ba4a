"""Contact bookkeeping.

A *contact* is a maximal interval during which two devices can exchange
data over some radio.  The tracker keeps the active and completed
contacts; the study reports their count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.radio import RadioProfile


def pair_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical unordered pair key."""
    return (a, b) if a <= b else (b, a)


@dataclass
class Contact:
    """One contact interval between two devices."""

    device_a: str
    device_b: str
    radio: RadioProfile
    start: float
    end: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def key(self) -> Tuple[str, str]:
        return pair_key(self.device_a, self.device_b)


class ContactTracker:
    """Collects contact intervals."""

    def __init__(self) -> None:
        self._active: Dict[Tuple[str, str], Contact] = {}
        self.completed: List[Contact] = []

    def contact_up(self, a: str, b: str, radio: RadioProfile, now: float) -> Contact:
        key = pair_key(a, b)
        if key in self._active:
            return self._active[key]  # already up (idempotent)
        contact = Contact(device_a=key[0], device_b=key[1], radio=radio, start=now)
        self._active[key] = contact
        return contact

    def contact_down(self, a: str, b: str, now: float) -> Optional[Contact]:
        key = pair_key(a, b)
        contact = self._active.pop(key, None)
        if contact is None:
            return None
        contact.end = now
        self.completed.append(contact)
        return contact

    def close_all(self, now: float) -> None:
        """End all active contacts (end of simulation)."""
        for key in list(self._active):
            self.contact_down(key[0], key[1], now)

    @property
    def active_count(self) -> int:
        return len(self._active)

    def is_active(self, a: str, b: str) -> bool:
        return pair_key(a, b) in self._active

    # -- statistics --------------------------------------------------------------
    def total_contacts(self) -> int:
        return len(self.completed) + len(self._active)
