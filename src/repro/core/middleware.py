"""The SOSMiddleware facade (paper §III-A's API surface).

"The SOS Middleware provides a number of API's for sending/receiving
data, surrounding user notification, routing protocol selection, and
security and privacy preferences.  Existing mobile applications can
simply add the SOS middleware as a framework and start using the
aforementioned API's."

One instance runs inside each application (per-app instance, §III).  The
application supplies provisioned credentials (from the one-time sign-up,
:mod:`repro.alleyoop.signup`), a device binding, and a delegate; it then:

* calls :meth:`SOSMiddleware.send` to publish data opportunistically,
* receives verified data via ``delegate.sos_message_received``,
* reads/watches nearby users via :meth:`surrounding_users` and
  ``delegate.sos_surrounding_users_changed``,
* toggles schemes at runtime via :meth:`select_protocol`,
* updates the interest set via :meth:`set_interests` (AlleyOop wires its
  follow list here, which is what interest-based routing consumes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.adhoc import AdHocManager
from repro.core.config import SosConfig
from repro.core.delegates import SosDelegate
from repro.core.errors import NotSignedUpError
from repro.core.message_manager import MessageManager
from repro.core.routing.registry import RoutingRegistry
from repro.core.wire import canonical_message_bytes
from repro.crypto.drbg import RandomSource
from repro.mpc.framework import MpcFramework
from repro.pki.keystore import KeyStore
from repro.sim.engine import Simulator
from repro.storage.messagestore import MessageStore, StoredMessage

#: Message-store budget for *forwarded* copies (a device's own posts are
#: never evicted).
BUFFER_CAPACITY_BYTES = 16 * 1024 * 1024

#: The shipped protocols: one name -> factory table for the process.
PROTOCOLS = RoutingRegistry.with_builtins()


class SOSMiddleware:
    """The embeddable middleware instance."""

    def __init__(
        self,
        sim: Simulator,
        framework: MpcFramework,
        device_id: str,
        user_id: str,
        keystore: KeyStore,
        rng: RandomSource,
        config: Optional[SosConfig] = None,
        delegate: Optional[SosDelegate] = None,
    ) -> None:
        if not keystore.provisioned:
            raise NotSignedUpError(
                "complete the one-time sign-up (repro.alleyoop.signup) before "
                "creating the middleware"
            )
        self.sim = sim
        self.config = config or SosConfig()
        self.user_id = user_id
        self.store = MessageStore(capacity_bytes=BUFFER_CAPACITY_BYTES)
        self.adhoc = AdHocManager(
            sim=sim,
            framework=framework,
            device_id=device_id,
            user_id=user_id,
            keystore=keystore,
            config=self.config,
            rng=rng,
        )
        self.messages = MessageManager(sim, self.adhoc, self.store, delegate=delegate)
        self._started = False
        self.select_protocol(self.config.routing_protocol)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Go on-air: begin advertising and browsing."""
        if not self._started:
            self._started = True
            self.adhoc.start()
            self.messages.refresh_advertisement()

    def stop(self) -> None:
        if self._started:
            self._started = False
            self.adhoc.stop()

    def crash(self) -> None:
        """Abrupt device loss (fault injection): volatile state is gone,
        durable state (keystore, message store) survives for reboot."""
        self._started = False
        self.adhoc.crash()
        self.messages.reset_volatile()

    def reboot(self) -> None:
        """Come back up after :meth:`crash`: go on-air again and republish
        the advertisement from the (durable) message store."""
        self.start()

    # -- routing protocol selection -------------------------------------------------
    @property
    def protocol_name(self) -> str:
        return self.messages.protocol.name

    def available_protocols(self) -> List[str]:
        return PROTOCOLS.names()

    def select_protocol(self, name: str) -> None:
        """Runtime scheme toggle (paper §VII)."""
        self.messages.set_protocol(PROTOCOLS.create(name))

    # -- interests --------------------------------------------------------------------
    def set_interests(self, user_ids: Set[str]) -> None:
        """Set the users whose content this node wants (IB routing's
        subscription set).

        The call replaces the whole set, so bulk subscription changes
        (AlleyOop's ``follow_many`` bootstrap path) cost one call rather
        than one per edge — at N=2000 the per-edge pattern spends
        O(sum of squared degrees) copying ever-larger interest sets.
        """
        self.messages.set_subscriptions(set(user_ids))

    @property
    def interests(self) -> frozenset:
        return self.messages.subscriptions

    # -- sending ------------------------------------------------------------------------
    def send(self, body: bytes) -> StoredMessage:
        """Publish data opportunistically.

        Assigns the next MessageNumber, signs the canonical bytes with the
        user's private key, attaches the user's certificate (so forwarders
        can prove provenance, Fig. 3b), stores locally and re-advertises.
        Dissemination then happens automatically on encounters.
        """
        keystore = self.adhoc.keystore
        number = self.store.highest_number(self.user_id) + 1
        created_at = self.sim.now
        canonical = canonical_message_bytes(self.user_id, number, created_at, body)
        message = StoredMessage(
            author_id=self.user_id,
            number=number,
            created_at=created_at,
            body=body,
            signature=keystore.private_key.sign(canonical),
            author_cert=keystore.own_certificate.encode(),
            hops=0,
            received_at=created_at,
        )
        if not self.store.add(message):
            raise RuntimeError(f"message number collision at {number}")
        # Protocols with copy budgets (spray-and-wait) learn about the new
        # message here; duck-typed so the core stays protocol-agnostic.
        grant = getattr(self.messages.protocol, "grant_initial_tokens", None)
        if grant is not None:
            grant(self.user_id, number)
        self.sim.trace.emit(
            created_at,
            "message",
            "created",
            owner=self.user_id,
            author=self.user_id,
            number=number,
            size=len(body),
        )
        if self._started:
            self.messages.refresh_advertisement()
        return message

    # -- surrounding users -----------------------------------------------------------------
    def surrounding_users(self) -> List[str]:
        """Nearby users currently discovered (paper's surrounding-user
        notification API; change events arrive via the delegate)."""
        return self.adhoc.surrounding_users()

    def verified_users(self) -> List[str]:
        """Nearby users that completed the certificate handshake."""
        return self.adhoc.secured_users()

    # -- security -----------------------------------------------------------------------------
    @property
    def security_stats(self) -> Dict[str, int]:
        return self.adhoc.stats_snapshot()
