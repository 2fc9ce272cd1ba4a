"""Certificate revocation lists.

The paper notes (§IV) that revocation is one of the operations that still
requires an Internet connection: a device that never syncs keeps trusting a
revoked certificate.  We model the CRL as a timestamped list that devices
copy *when they have connectivity*, so experiments can quantify the window
of exposure between revocation at the CA and propagation to devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class RevocationEntry:
    serial: int
    revoked_at: float
    reason: str


class RevocationList:
    """A monotonically growing set of revoked serial numbers."""

    def __init__(self) -> None:
        self._entries: Dict[int, RevocationEntry] = {}

    def revoke(self, serial: int, now: float, reason: str = "unspecified") -> None:
        if serial in self._entries:
            return  # idempotent
        self._entries[serial] = RevocationEntry(serial=serial, revoked_at=now, reason=reason)

    def is_revoked(self, serial: int) -> bool:
        return serial in self._entries

    def entry(self, serial: int) -> Optional[RevocationEntry]:
        return self._entries.get(serial)

    def snapshot(self) -> "RevocationList":
        """A device-side copy taken during a sync with infrastructure."""
        copy = RevocationList()
        copy._entries = dict(self._entries)
        return copy

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, serial: int) -> bool:
        return serial in self._entries
