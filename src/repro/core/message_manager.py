"""The message manager (paper §III-C).

Sits between the routing manager and the ad hoc manager:

* "notifies the respective protocol used in the routing manager whenever
  a new peer has been discovered or lost",
* "is responsible for taking action whenever a connection state changes
  ... if the connection between two users is lost, the message manager
  knows what messages were not transferred",
* "translates messages between the routing manager and ad hoc manager in
  a common format for both layers to interpret" (the
  :class:`~repro.core.wire.SosPacket` frames).

It also implements :class:`~repro.core.routing.base.RouterServices` — the
narrow API routing protocols program against — and performs originator
verification of received DATA (certificate + signature of the *author*,
paper Fig. 3b) before any message reaches the routing layer or the app.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.adhoc import AdHocManager
from repro.core.delegates import SosDelegate
from repro.core.errors import SecurityError
from repro.core.routing.base import RouterServices, RoutingProtocol
from repro.core.wire import PacketKind, SosPacket, canonical_message_bytes
from repro.pki.certificate import Certificate, CertificateError
from repro.sim.engine import Simulator
from repro.storage.messagestore import MessageStore, StoredMessage


class MessageManager(RouterServices):
    """Routing/adhoc glue plus transfer bookkeeping."""

    #: Most recent failed transfers remembered (the §III-C "knows what
    #: messages were not transferred" record is a diagnosis aid, not an
    #: unbounded log).
    UNTRANSFERRED_LIMIT = 512

    def __init__(
        self,
        sim: Simulator,
        adhoc: AdHocManager,
        store: MessageStore,
        delegate: Optional[SosDelegate] = None,
    ) -> None:
        self._sim = sim
        self._adhoc = adhoc
        self._store = store
        self.delegate = delegate or SosDelegate()
        self._protocol: Optional[RoutingProtocol] = None
        self._subscriptions: Set[str] = set()
        self._known_peers: Set[str] = set()
        #: (peer, author, number) transfers in flight.
        self._in_flight: Set[Tuple[str, str, int]] = set()
        #: (author, number) -> expiry time of an outstanding request, so a
        #: node surrounded by several carriers of the same message asks
        #: exactly one of them (usually the first advertiser it saw — the
        #: author, when present) instead of racing duplicates.
        self._requested: Dict[Tuple[str, int], float] = {}
        #: How long an unanswered request suppresses re-requesting.
        self.request_timeout: float = 60.0
        #: Next time the expired ``_requested`` entries are swept (they
        #: used to accumulate forever when a request went unanswered).
        self._requested_sweep_due: float = 0.0
        #: Transfers that failed because the connection dropped — the
        #: §III-C "knows what messages were not transferred" record.
        self.untransferred: Deque[Tuple[str, str, int]] = deque(
            maxlen=self.UNTRANSFERRED_LIMIT
        )
        self.stats = {
            "messages_sent": 0,
            "messages_received": 0,
            "duplicates_dropped": 0,
            "originator_rejected": 0,
            "requests_served": 0,
        }
        adhoc.on_peer_discovered = self._peer_discovered
        adhoc.on_peer_secured = self._peer_secured
        adhoc.on_peer_lost = self._peer_lost
        adhoc.on_packet = self._packet_received
        adhoc.on_security_event = self._security_event

    # -- protocol management ----------------------------------------------------
    @property
    def protocol(self) -> Optional[RoutingProtocol]:
        return self._protocol

    def set_protocol(self, protocol: RoutingProtocol) -> None:
        """Install (or hot-swap) the routing protocol."""
        if self._protocol is not None:
            self._protocol.detach()
        self._protocol = protocol
        protocol.attach(self)
        self.refresh_advertisement()
        # Replay currently-secured peers so the new protocol can act.
        for peer_user in self._adhoc.secured_users():
            protocol.on_peer_discovered(peer_user, self._adhoc.advert_of(peer_user))
            protocol.on_peer_secured(peer_user)

    # -- RouterServices -----------------------------------------------------------
    @property
    def user_id(self) -> str:
        return self._adhoc.user_id

    @property
    def store(self) -> MessageStore:
        return self._store

    @property
    def subscriptions(self) -> FrozenSet[str]:
        return frozenset(self._subscriptions)

    def set_subscriptions(self, user_ids: Set[str]) -> None:
        """Update the interest set (called by the application when the
        user follows/unfollows)."""
        self._subscriptions = set(user_ids)

    def now(self) -> float:
        return self._sim.now

    def connect(self, peer_user: str) -> bool:
        return self._adhoc.connect(peer_user)

    def _prune_requested(self, now: float) -> None:
        """Drop expired request-suppression entries (answered ones are
        popped on receipt; unanswered ones used to leak forever)."""
        if now < self._requested_sweep_due:
            return
        self._requested_sweep_due = now + self.request_timeout
        expired = [key for key, expiry in self._requested.items() if expiry <= now]
        for key in expired:
            del self._requested[key]

    def request_messages(self, peer_user: str, author_id: str, numbers: List[int]) -> None:
        now = self._sim.now
        self._prune_requested(now)
        fresh = [
            n
            for n in numbers
            if self._requested.get((author_id, n), -1.0) < now
            and not self._store.has(author_id, n)
        ]
        if not fresh:
            return
        for n in fresh:
            self._requested[(author_id, n)] = now + self.request_timeout
        packet = SosPacket.request(self.user_id, author_id, sorted(fresh))
        try:
            self._adhoc.send_packet(peer_user, packet)
        except SecurityError:
            for n in fresh:
                self._requested.pop((author_id, n), None)

    def send_message(
        self,
        peer_user: str,
        message: StoredMessage,
        on_complete: Callable[[bool], None] = None,
    ) -> None:
        key = (peer_user, message.author_id, message.number)
        self._in_flight.add(key)

        def _done(ok: bool) -> None:
            self._in_flight.discard(key)
            if ok:
                self.stats["messages_sent"] += 1
            else:
                self.untransferred.append(key)
            if on_complete is not None:
                on_complete(ok)

        packet = SosPacket.data(self.user_id, message)
        try:
            self._adhoc.send_packet(peer_user, packet, on_complete=_done)
        except SecurityError:
            _done(False)

    def send_control(self, peer_user: str, payload: bytes) -> None:
        if self._protocol is None:
            return
        packet = SosPacket.control(self.user_id, self._protocol.name, payload)
        try:
            self._adhoc.send_packet(peer_user, packet)
        except SecurityError as exc:
            # The peer desecured between the protocol's decision and the
            # send (lost link, failed rekey).  Harmless for correctness —
            # control payloads are advisory — but a silent drop also hides
            # real wiring bugs, so record the diagnostic.
            self._sim.trace.emit(
                self._sim.now,
                "router",
                "control_send_failed",
                owner=self.user_id,
                peer=peer_user,
                protocol=self._protocol.name,
                reason=str(exc),
            )

    def secured_peers(self) -> List[str]:
        return self._adhoc.secured_users()

    def defer(self, delay: float, callback) -> None:
        self._sim.schedule_in(delay, callback, name="router-defer")

    @property
    def relay_request_grace(self) -> float:
        return self._adhoc.config.relay_request_grace

    def reset_volatile(self) -> None:
        """Crash support: drop everything that lives only in RAM.

        In-flight transfer bookkeeping, request suppression, the
        untransferred record and the known-peer set are all
        reconstructible; the message store (disk) is not touched."""
        self._in_flight.clear()
        self._requested.clear()
        self._requested_sweep_due = 0.0
        self.untransferred.clear()
        self._known_peers.clear()

    # -- advertisement ----------------------------------------------------------------
    def refresh_advertisement(self) -> None:
        """Re-publish the discovery dictionary from the router's marks."""
        if self._protocol is None:
            return
        self._adhoc.set_advertisement(self._protocol.advertisement_marks())

    # -- peer lifecycle -----------------------------------------------------------------
    def _peer_discovered(self, peer_user: str, advert: Dict[str, int]) -> None:
        newly = peer_user not in self._known_peers
        self._known_peers.add(peer_user)
        if self._protocol is not None:
            self._protocol.on_peer_discovered(peer_user, advert)
        if newly:
            self.delegate.sos_surrounding_users_changed(sorted(self._known_peers))

    def _peer_secured(self, peer_user: str) -> None:
        self.delegate.sos_peer_verified(peer_user)
        if self._protocol is not None:
            self._protocol.on_peer_secured(peer_user)

    def _peer_lost(self, peer_user: str) -> None:
        if peer_user in self._known_peers:
            self._known_peers.discard(peer_user)
            self.delegate.sos_surrounding_users_changed(sorted(self._known_peers))
        # Transfers to this peer die with the connection; the MPC layer's
        # failure callbacks record them in ``untransferred``.
        if self._protocol is not None:
            self._protocol.on_peer_lost(peer_user)

    def _security_event(self, peer_user: str, reason: str) -> None:
        self.delegate.sos_security_event(peer_user, reason)

    # -- packet dispatch -----------------------------------------------------------------
    def _packet_received(self, packet: SosPacket, from_user: str) -> None:
        if packet.kind is PacketKind.REQUEST:
            self._serve_request(packet, from_user)
        elif packet.kind is PacketKind.DATA:
            self._receive_data(packet, from_user)
        elif packet.kind is PacketKind.CONTROL:
            if self._protocol is not None and packet.fields["protocol"] == self._protocol.name:
                self._protocol.on_control(from_user, packet.fields["payload"])

    def _serve_request(self, packet: SosPacket, from_user: str) -> None:
        if self._protocol is None:
            return
        author_id = packet.fields["author_id"]
        numbers = packet.fields["numbers"]
        messages = self._protocol.serve_request(from_user, author_id, numbers)
        self.stats["requests_served"] += 1
        for message in messages:
            self.send_message(from_user, message)

    def _receive_data(self, packet: SosPacket, from_user: str) -> None:
        message: StoredMessage = packet.fields["message"]
        if self._store.has(message.author_id, message.number):
            self.stats["duplicates_dropped"] += 1
            return
        if not self._verify_originator(message, from_user):
            return
        if self._protocol is None or not self._protocol.on_message_received(message, from_user):
            return
        copy = message.forwarded_copy(received_at=self._sim.now)
        if not self._store.add(copy):
            self.stats["duplicates_dropped"] += 1
            return
        self._requested.pop((message.author_id, message.number), None)
        self.stats["messages_received"] += 1
        self._sim.trace.emit(
            self._sim.now,
            "message",
            "received",
            owner=self.user_id,
            author=message.author_id,
            number=message.number,
            hops=copy.hops,
            created_at=message.created_at,
            from_user=from_user,
            interested=message.author_id in self._subscriptions,
        )
        self.refresh_advertisement()
        self.delegate.sos_message_received(copy, from_user)

    def _verify_originator(self, message: StoredMessage, from_user: str) -> bool:
        """Paper Fig. 3b: validate the *author's* forwarded certificate and
        the author's signature, so tampering at any forwarder is caught."""
        try:
            author_cert = Certificate.decode(message.author_cert)
        except CertificateError:
            self.stats["originator_rejected"] += 1
            self.delegate.sos_security_event(from_user, "undecodable originator certificate")
            return False
        result = self._adhoc.keystore.validate_and_cache(
            author_cert, self._sim.now, expected_user_id=message.author_id
        )
        if not result.ok:
            self.stats["originator_rejected"] += 1
            self.delegate.sos_security_event(
                from_user, f"originator certificate rejected: {result.value}"
            )
            return False
        canonical = canonical_message_bytes(
            message.author_id, message.number, message.created_at, message.body
        )
        if not author_cert.public_key.verify(canonical, message.signature):
            self.stats["originator_rejected"] += 1
            self.delegate.sos_security_event(from_user, "originator signature invalid")
            return False
        return True
