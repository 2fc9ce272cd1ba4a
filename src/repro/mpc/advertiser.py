"""Service advertising (MCNearbyServiceAdvertiser analogue).

An advertiser broadcasts a *plain-text* discovery dictionary — in SOS this
is the UserID -> latest-MessageNumber table (paper §V-A) that lets a
browsing node decide whether a connection is worth requesting before any
session or cryptography exists.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.mpc.peer import PeerID
from repro.mpc.session import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpc.framework import MpcFramework


class Invitation:
    """A pending connection invitation delivered to an advertiser.

    The delegate answers by calling :meth:`accept` with the session that
    should host the new peer, or :meth:`decline`.  Answering twice is an
    error; an unanswered invitation dies with the link.
    """

    def __init__(
        self,
        framework: "MpcFramework",
        from_peer: PeerID,
        to_peer: PeerID,
        context: bytes,
        inviter_session: Session,
    ) -> None:
        self._framework = framework
        self.from_peer = from_peer
        self.to_peer = to_peer
        self.context = context
        self._inviter_session = inviter_session
        self._answered = False
        self.cancelled = False

    def accept(self, session: Session) -> None:
        if self._answered:
            raise RuntimeError("invitation already answered")
        self._answered = True
        if not self.cancelled:
            self._framework.complete_invitation(self, session)

    def decline(self) -> None:
        if self._answered:
            raise RuntimeError("invitation already answered")
        self._answered = True


class AdvertiserDelegate:
    """Callback interface for incoming invitations."""

    def advertiser_received_invitation(
        self, advertiser: "ServiceAdvertiser", invitation: Invitation
    ) -> None:
        """Answer via ``invitation.accept(session)`` / ``invitation.decline()``."""


class ServiceAdvertiser:
    """Advertises a service type plus a small plain-text info dictionary."""

    #: MPC limits the discovery dictionary to a small payload; we enforce
    #: a byte budget so routing layers keep advertisements compact.
    MAX_INFO_BYTES = 4096

    def __init__(
        self,
        framework: "MpcFramework",
        peer: PeerID,
        service_type: str,
        discovery_info: Optional[Dict[str, str]] = None,
        delegate: Optional[AdvertiserDelegate] = None,
    ) -> None:
        if not service_type:
            raise ValueError("service_type must be non-empty")
        self.framework = framework
        self.peer = peer
        self.service_type = service_type
        self._info: Dict[str, str] = {}
        self.delegate = delegate or AdvertiserDelegate()
        self.active = False
        if discovery_info:
            self.set_discovery_info(discovery_info)
        framework.register_advertiser(self)

    @property
    def discovery_info(self) -> Dict[str, str]:
        return dict(self._info)

    @staticmethod
    def info_size_bytes(info: Dict[str, str]) -> int:
        return sum(len(k.encode()) + len(v.encode()) for k, v in info.items())

    def set_discovery_info(self, info: Dict[str, str]) -> None:
        """Replace the advertised dictionary.

        Real MPC requires restarting the advertiser to change the
        dictionary; we model the restart implicitly and re-announce to
        in-range browsers so they observe the new MessageNumbers.
        """
        size = self.info_size_bytes(info)
        if size > self.MAX_INFO_BYTES:
            raise ValueError(
                f"discovery info too large ({size} > {self.MAX_INFO_BYTES} bytes); "
                "advertise a digest instead"
            )
        self._info = dict(info)
        if self.active:
            self.framework.reannounce(self)

    def start(self) -> None:
        if not self.active:
            self.active = True
            self.framework.advertiser_started(self)

    def stop(self) -> None:
        if self.active:
            self.active = False
            self.framework.advertiser_stopped(self)
