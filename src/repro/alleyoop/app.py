"""The AlleyOop Social application.

Composes the SOS middleware with the app-level concerns the paper assigns
to the application layer (§III-A, §V): the local database (action log),
cloud sync when online, the follow list (wired into the middleware as the
interest set), and the feed.

Every user interaction follows §V's two-step rule:

1. save the action to the local database,
2. queue it for cloud sync (delivered whenever the Internet is next
   available) — and, independently, let the DTN disseminate it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.alleyoop.cloud import CloudError, CloudService
from repro.alleyoop.feed import Feed, FeedEntry
from repro.alleyoop.post import Post, PostFormatError
from repro.core.config import SosConfig
from repro.core.delegates import SosDelegate
from repro.core.middleware import SOSMiddleware
from repro.crypto.drbg import RandomSource
# Imported from the dependency-free module, not the repro.faults package,
# so attaching a retry policy never drags the injector into this import graph.
from repro.faults.retry import RetryPolicy
from repro.mpc.framework import MpcFramework
from repro.pki.keystore import KeyStore
from repro.sim.engine import Event, Simulator
from repro.storage.actionlog import ActionKind, ActionLog
from repro.storage.messagestore import StoredMessage
from repro.storage.syncqueue import SyncQueue


class AlleyOopApp(SosDelegate):
    """One user's AlleyOop Social instance on one device."""

    def __init__(
        self,
        sim: Simulator,
        framework: MpcFramework,
        device_id: str,
        user_id: str,
        username: str,
        keystore: KeyStore,
        cloud: CloudService,
        rng: RandomSource,
        config: Optional[SosConfig] = None,
        resilience: Optional[RetryPolicy] = None,
    ) -> None:
        self.sim = sim
        self.user_id = user_id
        self.username = username
        self.cloud = cloud
        self.actions = ActionLog()
        self.sync_queue = SyncQueue(self.actions)
        self.feed = Feed()
        #: Retry schedule for failed cloud syncs; None keeps the seed's
        #: fire-and-forget behaviour (no retry events, no trace emissions).
        self.resilience = resilience
        #: Failed sync attempts over this app's lifetime (counts always,
        #: with or without a retry policy).
        self.sync_failures = 0
        self._sync_attempt = 0
        self._retry_event: Optional[Event] = None
        # Jitter draws come from a named sim stream so a fixed seed fully
        # determines the retry schedule; created only when resilience is
        # on, keeping faults=none runs byte-identical to the seed.
        self._retry_rng = (
            sim.streams.get(f"sync-retry:{user_id}") if resilience is not None else None
        )
        self.follows: Set[str] = set()
        #: Subscription knowledge gossiped by other users (author ->
        #: followee set), maintained when gossip_follows is enabled.
        self.social_map: dict = {}
        #: Latest applied gossip action per (follower, followee), as the
        #: (created_at, message number) pair of the action message.  A
        #: user's actions are totally ordered by their message number, so
        #: gossip arriving out of order (a stale unfollow overtaken by a
        #: newer follow) is detected and ignored instead of clobbering
        #: the social map and the routing hints derived from it.
        self._gossip_applied: Dict[Tuple[str, str], Tuple[float, int]] = {}
        self._notifications: List[str] = []
        self.sos = SOSMiddleware(
            sim=sim,
            framework=framework,
            device_id=device_id,
            user_id=user_id,
            keystore=keystore,
            rng=rng,
            config=config,
            delegate=self,
        )

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        self.sos.start()

    def stop(self) -> None:
        self.sos.stop()

    # -- user actions (§V: local save + cloud sync + dissemination) -----------------
    def post(self, text: str, topic: Optional[str] = None) -> StoredMessage:
        """Publish a post."""
        body = Post(text=text, topic=topic).encode()
        message = self.sos.send(body)
        self.actions.append(
            ActionKind.POST,
            actor=self.user_id,
            created_at=self.sim.now,
            number=message.number,
            text=text,
        )
        self.try_cloud_sync()
        return message

    def follow(self, user_id: str) -> None:
        """Subscribe to another user's posts."""
        if user_id == self.user_id:
            raise ValueError("cannot follow yourself")
        if user_id in self.follows:
            return
        self.follows.add(user_id)
        self.sos.set_interests(self.follows)
        self.actions.append(
            ActionKind.FOLLOW, actor=self.user_id, created_at=self.sim.now, target=user_id
        )
        self.sim.trace.emit(self.sim.now, "social", "follow", follower=self.user_id, followee=user_id)
        self._gossip_action("follow", user_id)
        self.try_cloud_sync()

    def follow_many(self, user_ids: Iterable[str]) -> int:
        """Bulk-subscribe to several users in one round (bootstrap path).

        Semantically equivalent to calling :meth:`follow` once per id —
        same resulting follow set and interest set, same subscription
        windows in the analysis — but the aggregate work is O(1) records
        instead of O(edges): the middleware interest set is updated
        *once*; the local log gains one compact
        :attr:`~repro.storage.actionlog.ActionKind.FOLLOW_MANY` action
        whose payload carries the ordered target tuple (the per-edge
        path logs one FOLLOW per target — the oracle for what the batch
        record must expand to); one aggregated ``social``/``follow_many``
        trace event stands in for the per-edge ``follow`` events (the
        trace collector expands it to the identical per-pair
        subscription windows); and the pending suffix is flushed through
        the cloud's bulk sync endpoint
        (:meth:`repro.alleyoop.cloud.CloudService.sync_batch`) in a
        single round instead of one round per edge.

        Subscription gossip is deliberately suppressed: this is the
        day-0 world-bootstrap semantics (the initial follow graph
        predates any encounter, so there is no one to gossip to), which
        matches what the per-edge wiring does in every shipped scenario
        (``gossip_follows`` is off during world construction).

        Returns the number of *new* follows (already-followed ids and
        duplicates in the input are skipped, like :meth:`follow`).
        """
        new_ids: List[str] = []
        seen: Set[str] = set()
        for user_id in user_ids:
            if user_id == self.user_id:
                raise ValueError("cannot follow yourself")
            if user_id in self.follows or user_id in seen:
                continue
            seen.add(user_id)
            new_ids.append(user_id)
        if not new_ids:
            return 0
        self.follows.update(new_ids)
        self.sos.set_interests(self.follows)
        now = self.sim.now
        targets = tuple(new_ids)
        self.actions.append(
            ActionKind.FOLLOW_MANY, actor=self.user_id, created_at=now,
            targets=targets,
        )
        self.sim.trace.emit(
            now, "social", "follow_many", follower=self.user_id, followees=targets
        )
        self.try_cloud_sync()
        return len(new_ids)

    def unfollow(self, user_id: str) -> None:
        if user_id not in self.follows:
            return
        self.follows.discard(user_id)
        self.sos.set_interests(self.follows)
        self.actions.append(
            ActionKind.UNFOLLOW, actor=self.user_id, created_at=self.sim.now, target=user_id
        )
        self.sim.trace.emit(self.sim.now, "social", "unfollow", follower=self.user_id, followee=user_id)
        self._gossip_action("unfollow", user_id)
        self.try_cloud_sync()

    def _gossip_action(self, action: str, target: str) -> None:
        """Publish a follow/unfollow as a system message (§V), when the
        middleware is configured to gossip subscription changes."""
        if not self.sos.config.gossip_follows:
            return
        body = Post(
            text="", topic="sys:subscription",
            attributes={"action": action, "followee": target},
        ).encode()
        self.sos.send(body)

    def select_routing(self, name: str) -> None:
        """The in-app scheme toggle (§VII)."""
        self.sos.select_protocol(name)

    # -- lifecycle under faults ---------------------------------------------------------
    def crash(self) -> None:
        """Abrupt device loss.  Volatile state — the feed, notifications,
        the retry timer and attempt counter, every middleware cache and
        secure channel — is gone; durable state — the action log, the
        acknowledged sync prefix, the keystore and its anti-replay
        record — survives for :meth:`reboot`."""
        self._cancel_retry()
        self._sync_attempt = 0
        self.feed = Feed()
        self._notifications.clear()
        self.sos.crash()

    def reboot(self) -> None:
        """Come back up after :meth:`crash`: go on-air again and, when a
        retry policy is attached, immediately re-attempt the sync of the
        surviving unacknowledged suffix (§V's "when the Internet becomes
        available" applies across restarts too)."""
        self.sos.reboot()
        if self.resilience is not None and self.sync_queue.pending_count:
            self.try_cloud_sync()

    # -- cloud --------------------------------------------------------------------------
    def try_cloud_sync(self) -> int:
        """Opportunistically sync pending actions; 0 when the sync failed.

        Failures always increment :attr:`sync_failures`.  With a
        :class:`~repro.faults.retry.RetryPolicy` attached, a failure also
        emits a ``cloud/sync_failed`` trace event and schedules a single
        outstanding retry with exponential backoff + jitter; without one
        (the seed configuration — whose default study runs with the cloud
        offline, failing every post-time sync) the failure stays silent so
        ``faults=none`` traces remain byte-identical to the seed.
        """
        try:
            newly = self.sync_queue.sync(self.cloud.sync_uplink(self.user_id))
        except CloudError as exc:
            self.sync_failures += 1
            if self.resilience is not None:
                self.sim.trace.emit(
                    self.sim.now,
                    "cloud",
                    "sync_failed",
                    owner=self.user_id,
                    pending=self.sync_queue.pending_count,
                    attempt=self._sync_attempt,
                    error=str(exc),
                )
                self._schedule_retry()
            return 0
        if newly > 0:
            self._sync_attempt = 0
        if self.resilience is not None:
            if self.sync_queue.pending_count:
                # Partial acceptance: the unacknowledged suffix needs
                # another round (backoff still grows if no progress).
                self._schedule_retry()
            else:
                self._cancel_retry()
        return newly

    def _schedule_retry(self) -> None:
        """Keep exactly one outstanding retry; backoff grows per attempt."""
        if self._retry_event is not None:
            return
        delay = self.resilience.schedule(self._sync_attempt, self._retry_rng.random)
        self._sync_attempt += 1
        self._retry_event = self.sim.schedule_in(
            delay, self._retry_sync, name=f"sync-retry:{self.user_id}"
        )
        self.sim.trace.emit(
            self.sim.now,
            "cloud",
            "sync_retry",
            owner=self.user_id,
            attempt=self._sync_attempt,
            delay=round(delay, 3),
        )

    def _retry_sync(self) -> None:
        self._retry_event = None
        self.try_cloud_sync()

    def _cancel_retry(self) -> None:
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None

    def refresh_revocations(self) -> bool:
        """Pull the CA's CRL — only works with infrastructure (§IV)."""
        if not self.cloud.online:
            return False
        self.sos.adhoc.keystore.sync_revocations(self.cloud.ca.revocations)
        return True

    # -- SosDelegate --------------------------------------------------------------------
    def sos_message_received(self, message: StoredMessage, from_user: str) -> None:
        if self._maybe_apply_subscription_gossip(message):
            return
        if message.author_id in self.follows or message.author_id == self.user_id:
            entry = self.feed.ingest(message)
            if entry is not None:
                self.sim.trace.emit(
                    self.sim.now,
                    "app",
                    "feed",
                    owner=self.user_id,
                    author=message.author_id,
                    number=message.number,
                    hops=message.hops,
                    delay=entry.delay,
                )

    def _maybe_apply_subscription_gossip(self, message: StoredMessage) -> bool:
        """Apply a gossiped follow/unfollow action (returns True when the
        message was subscription gossip, which never enters the feed).

        DTN delivery reorders freely, so follow/unfollow actions by the
        same author can arrive in any order.  Actions are applied in
        *action* order, not arrival order: each (follower, followee) pair
        remembers the newest applied action's (created_at, number) stamp
        and older gossip is acknowledged but not applied.
        """
        try:
            post = Post.from_message(message)
        except PostFormatError as exc:
            # The message passed originator verification but its body is
            # not an AlleyOop post at all.  That is evidence of a buggy
            # or hostile sender — record it instead of silently moving
            # on (the old bare ``except`` also masked our own bugs).
            self.sim.trace.emit(
                self.sim.now,
                "app",
                "malformed_payload",
                owner=self.user_id,
                author=message.author_id,
                number=message.number,
                error=str(exc),
            )
            return False
        if post.topic != "sys:subscription":
            return False
        action = post.attributes.get("action")
        followee = post.attributes.get("followee")
        # Attribute *values* are sender-controlled too: a non-string
        # followee must not crash the pair lookup (lists are unhashable)
        # or pollute the social map with non-user keys.
        if not isinstance(followee, str) or not followee:
            return True
        if not isinstance(action, str):
            return True
        if action in ("follow", "unfollow"):
            pair = (message.author_id, followee)
            stamp = (message.created_at, message.number)
            if stamp <= self._gossip_applied.get(pair, (float("-inf"), -1)):
                return True  # stale: a newer action for this pair already applied
            self._gossip_applied[pair] = stamp
        followers = self.social_map.setdefault(followee, set())
        if action == "follow":
            followers.add(message.author_id)
        elif action == "unfollow":
            followers.discard(message.author_id)
        # Feed destination knowledge to hint-aware routing protocols.
        protocol = self.sos.messages.protocol
        hints = getattr(protocol, "subscriber_hints", None)
        if hints is not None:
            hints[followee] = set(followers)
        return True

    def sos_surrounding_users_changed(self, user_ids: List[str]) -> None:
        self._notifications.append(f"nearby: {', '.join(user_ids) if user_ids else '(none)'}")

    def sos_peer_verified(self, user_id: str) -> None:
        self._notifications.append(f"verified: {user_id}")

    def sos_security_event(self, user_id: str, reason: str) -> None:
        self._notifications.append(f"security: {user_id}: {reason}")

    # -- views ---------------------------------------------------------------------------
    @property
    def notifications(self) -> List[str]:
        return list(self._notifications)

    def timeline(self) -> List[FeedEntry]:
        return self.feed.entries()

    def own_post_count(self) -> int:
        return self.sos.store.highest_number(self.user_id)
