"""SOS middleware configuration.

One :class:`SosConfig` instance parameterises a middleware instance; the
defaults reproduce the deployment configuration of the field study.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper fixes user identifiers at 10 bytes (§V-A).
USER_ID_LENGTH = 10


@dataclass(frozen=True)
class SosConfig:
    """The settings an app embedding the middleware chooses (§III-A's
    routing-protocol selection and security preferences); frozen, so a
    study shares one instance across its devices.  Fixed protocol values
    (buffer budget, timeouts, advertisement size, rekey budgets) are
    constants in the modules that read them.

    Attributes
    ----------
    service_type:
        MPC service type string; apps with different service types never
        discover each other (per-app middleware isolation).
    routing_protocol:
        Name of the initially selected routing protocol (user-toggleable
        at runtime, §VII).
    require_encryption:
        Security preference: refuse plaintext payload exchange.  The field
        study ran with encryption on; turning it off is only for the
        security-cost ablation bench.
    relay_request_grace:
        Seconds a node waits before pulling content from a *relay* when
        the same content might arrive from its author directly (origin
        preference; see routing/base.py).  0 disables the preference.
    """

    service_type: str = "sos-alleyoop"
    routing_protocol: str = "interest"
    require_encryption: bool = True
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
