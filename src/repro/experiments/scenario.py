"""Scenario configuration.

One dataclass captures every scenario axis a study, sweep, command or
benchmark sets, with defaults equal to the field study's published
parameters.  The one-value calibration the paper does not publish
(posting-time distribution, venues, meetups, duty-cycle windows) lives
where it is read: named constants in ``repro.experiments.gainesville``
and the ``DailySchedule`` / ``SyntheticCity.gainesville_like`` defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.middleware import PROTOCOLS
from repro.faults.plan import FaultPlan
from repro.pki.provisioning import PROVISIONING_MODES
from repro.social.generators import resolve_social_graph_kind

#: Paper §VI: "~11km x 8km area".
STUDY_WIDTH_M = 11_000.0
STUDY_HEIGHT_M = 8_000.0

#: Paper §VI: 7-day TestFlight beta, 10 active users, 259 unique messages.
STUDY_DAYS = 7
STUDY_USERS = 10
STUDY_POSTS = 259


@dataclass
class ScenarioConfig:
    """All knobs of a deployment run."""

    seed: int = 2017
    num_users: int = STUDY_USERS
    duration_days: int = STUDY_DAYS
    area: Tuple[float, float] = (STUDY_WIDTH_M, STUDY_HEIGHT_M)
    total_posts: int = STUDY_POSTS
    routing_protocol: str = "interest"

    # -- contact detection (not published; see EXPERIMENTS.md) --------------------
    medium_tick_s: float = 30.0

    # -- social graph ------------------------------------------------------------------
    #: Follow-graph generator family (see repro.social.generators):
    #: ``"auto"`` keeps the historical dispatch — the exact Fig. 4a
    #: reconstruction at N=10, ``hub_and_cluster`` otherwise.  The sparse
    #: families (``degree_bounded``, ``powerlaw_cluster``) keep expected
    #: per-user degree independent of N, opening large-N sweeps that the
    #: O(N²)-dense hub_and_cluster generator cannot reach.
    social_graph: str = "auto"

    # -- coordinated friend meetups ----------------------------------------------------
    #: Mean number of arranged friend meetups per day across the whole
    #: population (friends coordinate lunches/coffee; this is what makes
    #: author->subscriber contacts dominate, matching the study's 82.6%
    #: 1-hop share).
    meetups_per_day: float = 2.6

    # -- app duty cycle ------------------------------------------------------------------
    #: iOS Multipeer Connectivity only runs while the app is foregrounded.
    #: When True, a device's radios are on during the user's meetups plus
    #: a few random foreground sessions per day, and off otherwise.  This
    #: is what keeps incidental relay transfers rare in vivo.
    duty_cycle: bool = True

    # -- middleware --------------------------------------------------------------------
    #: Origin-preference grace (see SosConfig.relay_request_grace).
    relay_request_grace: float = 2100.0

    # -- security ----------------------------------------------------------------------
    key_bits: int = 1024
    require_encryption: bool = True
    #: Identity provisioning strategy: ``"eager"`` (on-device keygen at
    #: sign-up — the paper's flow and the reference oracle), ``"pooled"``
    #: (key pairs from a deterministic ``repro.pki.provisioning.KeypairPool``,
    #: optionally cached on disk under ``key_cache_dir``) or ``"lazy"``
    #: (placeholder sign-up; keygen deferred to first secured use).  All
    #: three yield byte-identical traces for a fixed seed; pooled/lazy
    #: exist to make large-N secured world builds tractable.
    provisioning: str = "eager"
    #: On-disk keypair-pool directory for ``provisioning="pooled"``/"lazy",
    #: holding every user's key pair and the CA's, so a build over a warm
    #: cache generates no key; ``None`` keeps the pool in memory only.
    #: The one way to name a key cache, so the config records whether a
    #: build could hit one.
    key_cache_dir: Optional[str] = None

    # -- fault injection ----------------------------------------------------------------
    #: Fault plan spec (see repro.faults.plan.FaultPlan.parse): ``"none"``
    #: (default — the whole subsystem stays out of the run and traces are
    #: byte-identical to a faultless build), a preset name (``"mild"``,
    #: ``"harsh"``), optionally with ``key=value`` overrides, or a bare
    #: override list.  When active, every app also gets the plan's
    #: retry/backoff policy for cloud sync.
    faults: str = "none"
    #: Seed for the fault DRBG substreams; ``None`` derives one from
    #: ``seed`` so fault schedules stay independent of the sim's streams.
    fault_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_users < 2:
            raise ValueError("need at least two users")
        if self.duration_days < 1:
            raise ValueError("need at least one day")
        if self.total_posts < 0:
            raise ValueError("total_posts must be non-negative")
        # Chained comparisons, so NaN (every comparison false) fails too.
        if len(self.area) != 2 or not all(0 < side < math.inf for side in self.area):
            raise ValueError(f"area must be two finite positive sides, got {self.area!r}")
        if not 0 < self.medium_tick_s < math.inf:
            raise ValueError(f"medium_tick_s must be finite and positive, got {self.medium_tick_s}")
        for name in ("meetups_per_day", "relay_request_grace"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.routing_protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown routing protocol {self.routing_protocol!r}; "
                f"available: {', '.join(PROTOCOLS.names())}"
            )
        if self.provisioning not in PROVISIONING_MODES:
            raise ValueError(
                f"provisioning must be one of {PROVISIONING_MODES}, "
                f"got {self.provisioning!r}"
            )
        # Unknown kinds and the figure4a/num_users constraint are
        # rejected by the knob's single validation point.
        resolve_social_graph_kind(self.social_graph, self.num_users)
        # Same discipline for the fault spec: reject bad plans at config
        # time, not mid-build.
        FaultPlan.parse(self.faults)

    def fault_plan(self) -> FaultPlan:
        """The parsed fault plan for this scenario."""
        return FaultPlan.parse(self.faults)

    def resolved_fault_seed(self) -> int:
        """The fault-DRBG seed: explicit, or derived from ``seed`` (a
        fixed affine map keeps it distinct from every other seed the
        simulator derives)."""
        if self.fault_seed is not None:
            return self.fault_seed
        return self.seed * 6_700_417 + 3

    @property
    def duration_seconds(self) -> float:
        return self.duration_days * 86_400.0
