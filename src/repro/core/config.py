"""SOS middleware configuration.

One :class:`SosConfig` instance parameterises a middleware instance; the
defaults reproduce the deployment configuration of the field study.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper fixes user identifiers at 10 bytes (§V-A).
USER_ID_LENGTH = 10


@dataclass
class SosConfig:
    """Tunable middleware parameters.

    Attributes
    ----------
    service_type:
        MPC service type string; apps with different service types never
        discover each other (per-app middleware isolation).
    routing_protocol:
        Name of the initially selected routing protocol (user-toggleable
        at runtime, §VII).
    buffer_capacity_bytes:
        Message-store budget for *forwarded* copies; ``None`` = unbounded.
    advertisement_limit:
        Maximum number of (UserID, MessageNumber) entries advertised; the
        freshest authors win when the store knows more (MPC's discovery
        payload is small).
    require_encryption:
        Security preference: refuse plaintext payload exchange.  The field
        study ran with encryption on; turning it off is only for the
        security-cost ablation bench.
    session_crypto:
        Use the per-link secure-session layer (RSA once per link
        direction, ChaCha20+HMAC per packet — see
        :mod:`repro.crypto.session`).  Off selects the legacy per-packet
        hybrid-RSA pipeline, kept as the reference oracle; both modes
        produce byte-identical delivery/delay traces for a fixed seed.
    session_rekey_interval:
        Seconds a session sending key may stay in use before the next
        packet establishes a fresh one.
    session_rekey_packets:
        Packets a session sending key may protect before rekeying.
    certificate_exchange_timeout:
        Seconds to wait for the peer's certificate before dropping the
        session.
    reconnect_backoff:
        Seconds to ignore a peer after a failed security handshake.
    relay_request_grace:
        Seconds a node waits before pulling content from a *relay* when
        the same content might arrive from its author directly (origin
        preference; see routing/base.py).  0 disables the preference.
    """

    service_type: str = "sos-alleyoop"
    routing_protocol: str = "interest"
    buffer_capacity_bytes: int = 16 * 1024 * 1024
    advertisement_limit: int = 64
    require_encryption: bool = True
    session_crypto: bool = True
    session_rekey_interval: float = 3600.0
    session_rekey_packets: int = 4096
    certificate_exchange_timeout: float = 20.0
    reconnect_backoff: float = 300.0
    relay_request_grace: float = 90.0
    #: Disseminate follow/unfollow actions as (system) messages — §V's
    #: "performs an action such as follow/unfollow of a user".  Gossiped
    #: subscription knowledge feeds destination-aware protocols
    #: (spray-and-wait, PRoPHET, BubbleRap) via their subscriber_hints.
    #: DTN delivery reorders freely, so receivers apply gossip in *action*
    #: order — AlleyOop keeps a per-(follower, followee) stamp of the
    #: newest applied action and ignores older gossip, so a late-arriving
    #: stale unfollow cannot clobber a newer follow.
    #: Off by default: the calibrated field-study reproduction measures
    #: post dissemination only.
    gossip_follows: bool = False

    def __post_init__(self) -> None:
        if self.advertisement_limit < 1:
            raise ValueError("advertisement_limit must be at least 1")
        if self.certificate_exchange_timeout <= 0:
            raise ValueError("certificate_exchange_timeout must be positive")
        if self.session_rekey_interval <= 0:
            raise ValueError("session_rekey_interval must be positive")
        if self.session_rekey_packets < 1:
            raise ValueError("session_rekey_packets must be at least 1")
