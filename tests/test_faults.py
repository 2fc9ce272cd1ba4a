"""Deterministic fault-injection subsystem (ISSUE 7).

Unit coverage for every layer the injector touches: the declarative
:class:`FaultPlan` and its spec parser, the pure retry policy, the DRBG
randomness helpers, simulator event ownership (bulk cancellation), the
medium's forced link drops, cloud connectivity windows and the per-call
sync-fault gate, frame drop/corruption (which must surface as security
diagnostics, never crashes), device crash/reboot volatile-vs-durable
semantics, and the resilient retry/backoff path in the app.

The satellite regression tests ride along here too: the KV-store
``BaseException`` rollback, the ``SyncQueue`` exception-safety contract,
the ``router/control_send_failed`` diagnostic and the ``sync_failures``
counter / gated ``cloud/sync_failed`` trace event.
"""

import pytest

from repro.alleyoop.cloud import CloudError, CloudService
from repro.core.config import SosConfig
from repro.crypto.drbg import HmacDrbg
from repro.faults import (
    CloudFaultGate,
    ConnectivityModel,
    FaultInjector,
    FaultPlan,
    PRESETS,
    RetryPolicy,
)
from repro.faults.randomness import choice_index, expovariate, uniform, uniform_in
from repro.geo.point import Point
from repro.sim.engine import Simulator
from repro.storage.actionlog import ActionKind, ActionLog
from repro.storage.syncqueue import SyncQueue
from tests.worldutil import World, trace_lines


@pytest.fixture()
def world(ca, keypair_pool):
    return World(ca, keypair_pool)


def fault_events(sim, kind=None):
    return [
        e for e in sim.trace
        if e.category == "fault" and (kind is None or e.kind == kind)
    ]


def cloud_events(sim, kind=None):
    return [
        e for e in sim.trace
        if e.category == "cloud" and (kind is None or e.kind == kind)
    ]


# -- the plan and its spec language ------------------------------------------------


class TestFaultPlan:
    def test_none_is_inert(self):
        plan = FaultPlan.parse("none")
        assert plan.is_none
        assert plan == FaultPlan.none() == FaultPlan.parse("") == FaultPlan.parse("  ")

    def test_presets_are_active_and_valid(self):
        for name, plan in PRESETS.items():
            assert FaultPlan.parse(name) == plan
            if name != "none":
                assert not plan.is_none

    def test_preset_with_overrides(self):
        plan = FaultPlan.parse("mild,frame_drop_prob=0.2, cloud_rate_limit=7")
        assert plan.frame_drop_prob == 0.2
        assert plan.cloud_rate_limit == 7
        # Untouched fields keep the preset's values.
        assert plan.cloud_mean_up_s == PRESETS["mild"].cloud_mean_up_s

    def test_bare_override_list_starts_from_inert(self):
        plan = FaultPlan.parse("frame_drop_prob=0.1,crash_rate_per_day=2")
        assert plan.frame_drop_prob == 0.1
        assert plan.crash_rate_per_day == 2.0
        assert not plan.has_cloud_outages and not plan.has_cloud_gate

    def test_reboot_window_spec(self):
        plan = FaultPlan.parse("crash_rate_per_day=1,reboot_delay_s=5:20")
        assert plan.reboot_delay_s == (5.0, 20.0)

    @pytest.mark.parametrize("spec", [
        "gentle",                       # unknown preset
        "no_such_field=1",              # unknown field
        "frame_drop_prob=1.5",          # out of [0, 1]
        "frame_drop_prob=0.7,frame_corrupt_prob=0.7",  # sum > 1
        "cloud_mean_up_s=100",          # up without down
        "reboot_delay_s=30:10",         # inverted window
        "cloud_rate_limit=-1",
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_non_finite_values_rejected(self):
        for key in ("crash_rate_per_day", "link_flap_rate_per_hour",
                    "frame_drop_prob", "retry_base_s"):
            for raw in ("nan", "inf"):
                with pytest.raises(ValueError, match="finite"):
                    FaultPlan.parse(f"{key}={raw}")
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.parse("crash_rate_per_day=1,reboot_delay_s=0:inf")

    def test_activity_flags(self):
        assert FaultPlan.parse("cloud_timeout_prob=0.1").has_cloud_gate
        assert FaultPlan.parse("cloud_rate_limit=3").has_cloud_gate
        assert FaultPlan.parse("link_flap_rate_per_hour=1").has_link_flaps
        assert FaultPlan.parse("frame_corrupt_prob=0.1").has_frame_faults
        assert FaultPlan.parse("crash_rate_per_day=1").has_device_faults

    def test_sample_is_deterministic_and_active(self):
        assert FaultPlan.sample(5) == FaultPlan.sample(5)
        assert FaultPlan.sample(5) != FaultPlan.sample(6)
        plan = FaultPlan.sample(5)
        assert not plan.is_none
        assert plan.has_cloud_outages  # every sampled plan windows the cloud

    def test_retry_policy_carries_plan_fields(self):
        plan = FaultPlan.parse("retry_base_s=10,retry_cap_s=100,retry_jitter=0.5")
        policy = plan.retry_policy()
        assert (policy.base_s, policy.cap_s, policy.jitter) == (10.0, 100.0, 0.5)


class TestRetryPolicy:
    def test_exponential_growth_then_cap(self):
        policy = RetryPolicy(base_s=10.0, cap_s=100.0, jitter=0.0)
        assert [policy.delay(a) for a in range(6)] == [10, 20, 40, 80, 100, 100]

    def test_huge_attempt_does_not_overflow(self):
        policy = RetryPolicy(base_s=10.0, cap_s=100.0, jitter=0.0)
        assert policy.delay(10_000) == 100.0

    def test_jitter_is_multiplicative_and_bounded(self):
        policy = RetryPolicy(base_s=10.0, cap_s=100.0, jitter=0.25)
        assert policy.delay(0, 0.0) == 10.0
        assert policy.delay(0, 0.5) == pytest.approx(11.25)
        # u is strictly below 1, so the delay stays below base * (1 + jitter).
        assert policy.delay(0, 0.999999) < 10.0 * 1.25

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=10.0, cap_s=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        policy = RetryPolicy()
        with pytest.raises(ValueError):
            policy.delay(-1)
        with pytest.raises(ValueError):
            policy.delay(0, 1.0)

    def test_schedule_skips_the_draw_without_jitter(self):
        def forbidden():
            raise AssertionError("jitter-free schedule must not draw")

        assert RetryPolicy(jitter=0.0).schedule(2, forbidden) == 120.0
        draws = iter([0.5])
        assert RetryPolicy(base_s=10, cap_s=100, jitter=0.2).schedule(
            0, lambda: next(draws)
        ) == pytest.approx(11.0)


class TestFaultRandomness:
    def test_uniform_range_and_determinism(self):
        a, b = HmacDrbg.from_int(1), HmacDrbg.from_int(1)
        draws = [uniform(a) for _ in range(200)]
        assert draws == [uniform(b) for _ in range(200)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_uniform_in_window(self):
        drbg = HmacDrbg.from_int(2)
        assert all(5.0 <= uniform_in(drbg, 5.0, 8.0) < 8.0 for _ in range(100))

    def test_expovariate_positive_with_sane_mean(self):
        drbg = HmacDrbg.from_int(3)
        draws = [expovariate(drbg, 100.0) for _ in range(400)]
        assert all(d > 0 for d in draws)
        assert 60.0 < sum(draws) / len(draws) < 160.0

    def test_choice_index_covers_range(self):
        drbg = HmacDrbg.from_int(4)
        picks = {choice_index(drbg, 5) for _ in range(200)}
        assert picks == {0, 1, 2, 3, 4}


# -- simulator event ownership ------------------------------------------------------


class TestEventOwnership:
    def test_cancel_owned_cancels_exactly_the_tagged_events(self):
        sim = Simulator(seed=1)
        fired = []
        owner = object()
        sim.schedule_in(10.0, lambda: fired.append("owned-1"), owner=owner)
        sim.schedule_in(20.0, lambda: fired.append("free"))
        sim.schedule_in(30.0, lambda: fired.append("owned-2"), owner=owner)
        sim.schedule_in(40.0, lambda: fired.append("other"), owner=object())
        assert sim.cancel_owned(owner) == 2
        # Idempotent: nothing left to cancel for this owner.
        assert sim.cancel_owned(owner) == 0
        sim.run(until=100.0)
        assert fired == ["free", "other"]


# -- forced link drops (medium) -----------------------------------------------------


class TestMediumForcedDrops:
    def _linked_world(self, world):
        alice = world.add_user("alice", position=Point(100, 100))
        bob = world.add_user("bob", position=Point(120, 100))
        world.start()
        world.run(60.0)
        assert world.medium.active_link_keys()  # in range, linked
        return alice, bob

    def test_force_drop_then_relink_next_tick(self, world):
        self._linked_world(world)
        (key,) = world.medium.active_link_keys()
        downs_before = sum(
            1 for e in world.sim.trace
            if e.category == "contact" and e.kind == "down"
        )
        assert world.medium.force_drop(*key) is True
        assert world.medium.active_link_keys() == []
        assert world.medium.force_drop(*key) is False  # nothing left to drop
        downs_after = sum(
            1 for e in world.sim.trace
            if e.category == "contact" and e.kind == "down"
        )
        assert downs_after == downs_before + 1
        # A flap: the pair is still in range, so the next sweep re-links.
        world.run(world.sim.now + 30.0)
        assert world.medium.active_link_keys() == [key]

    def test_drop_links_of_clears_every_link_of_a_device(self, world):
        world.add_user("alice", position=Point(100, 100))
        world.add_user("bob", position=Point(120, 100))
        world.add_user("carol", position=Point(140, 100))
        world.start()
        world.run(60.0)
        bob_dev = world.devices["bob"].device_id
        bob_links = [k for k in world.medium.active_link_keys() if bob_dev in k]
        assert len(bob_links) >= 2
        assert world.medium.drop_links_of(bob_dev) == len(bob_links)
        assert all(bob_dev not in k for k in world.medium.active_link_keys())


# -- cloud connectivity windows and the sync-fault gate -----------------------------


class TestConnectivityModel:
    def _run(self, seed):
        sim = Simulator(seed=1)
        cloud = CloudService()
        cloud.online = False
        plan = FaultPlan.parse("cloud_mean_up_s=600,cloud_mean_down_s=300")
        model = ConnectivityModel(sim, cloud, plan, HmacDrbg.from_int(seed))
        model.start()
        assert cloud.online  # the model owns the flag from the start
        sim.run(until=86_400.0)
        return sim, cloud, model

    def test_windows_alternate_and_trace(self):
        sim, cloud, model = self._run(seed=7)
        downs = fault_events(sim, "cloud_down")
        ups = fault_events(sim, "cloud_up")
        assert model.transitions == len(downs) + len(ups)
        assert model.transitions > 10
        # Strict alternation, starting with an outage.
        kinds = [e.kind for e in fault_events(sim)]
        assert kinds[0] == "cloud_down"
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert cloud.online == (kinds[-1] == "cloud_up")

    def test_same_stream_seed_same_schedule(self):
        lines_a = trace_lines(self._run(seed=7)[0])
        lines_b = trace_lines(self._run(seed=7)[0])
        assert lines_a == lines_b
        assert lines_a != trace_lines(self._run(seed=8)[0])

    def test_requires_windows_configured(self):
        with pytest.raises(ValueError, match="no connectivity windows"):
            ConnectivityModel(
                Simulator(seed=1), CloudService(), FaultPlan.none(),
                HmacDrbg.from_int(1),
            )


class TestCloudFaultGate:
    def _gate(self, spec, seed=1):
        sim = Simulator(seed=1)
        return sim, CloudFaultGate(sim, FaultPlan.parse(spec), HmacDrbg.from_int(seed))

    def _batch(self, n):
        log = ActionLog()
        for i in range(n):
            log.append(ActionKind.POST, actor="u", created_at=0.0, number=i + 1, text="x")
        return log.since(0)

    def test_certain_timeout(self):
        sim, gate = self._gate("cloud_timeout_prob=1.0")
        with pytest.raises(CloudError, match="transient timeout"):
            gate.admit("u1", self._batch(2))
        assert gate.stats["timeouts"] == 1
        assert fault_events(sim, "cloud_timeout")

    def test_rate_limit_window(self):
        sim, gate = self._gate("cloud_rate_limit=2,cloud_rate_window_s=60")
        batch = self._batch(1)
        gate.admit("u1", batch)
        gate.admit("u1", batch)
        with pytest.raises(CloudError, match="rate limited"):
            gate.admit("u1", batch)
        assert gate.stats["rate_limited"] == 1
        # A fresh accounting window admits again.
        sim.run(until=61.0)
        assert gate.admit("u1", batch) == batch

    def test_partial_acceptance_is_a_proper_prefix(self):
        _, gate = self._gate("cloud_partial_prob=1.0")
        batch = self._batch(5)
        kept = gate.admit("u1", batch)
        assert len(kept) < len(batch)
        assert kept == batch[: len(kept)]
        assert gate.stats["partial"] == 1

    def test_inert_gate_passes_batches_through(self):
        _, gate = self._gate("cloud_partial_prob=0.0,cloud_timeout_prob=0.0")
        batch = self._batch(3)
        assert gate.admit("u1", batch) == batch

    def test_partial_acceptance_replays_to_convergence_end_to_end(self):
        """The at-least-once contract: a cloud that keeps truncating
        batches still converges, each action applied exactly once."""
        sim = Simulator(seed=1)
        cloud = CloudService()
        account = cloud.create_account("zoe", now=0.0)
        gate = CloudFaultGate(
            sim, FaultPlan.parse("cloud_partial_prob=0.7"), HmacDrbg.from_int(3)
        )
        cloud.sync_faults = gate.admit
        log = ActionLog()
        for i in range(6):
            log.append(ActionKind.POST, actor=account.user_id,
                       created_at=0.0, number=i + 1, text="x")
        queue = SyncQueue(log)
        uplink = cloud.sync_uplink(account.user_id)
        for _ in range(100):
            if queue.pending_count == 0:
                break
            queue.sync(uplink)
        assert queue.pending_count == 0
        assert [a.seq for a in account.synced_actions] == [1, 2, 3, 4, 5, 6]
        assert gate.stats["partial"] > 0


# -- frame faults: drops and corruption ---------------------------------------------


class TestFrameFaults:
    def _injected_pair(self, world, spec, fault_seed=5):
        config = SosConfig(relay_request_grace=0.0)
        alice = world.add_user("alice", position=Point(100, 100), config=config)
        bob = world.add_user("bob", position=Point(120, 100), config=config)
        bob.follow(alice.user_id)
        injector = FaultInjector(world.sim, FaultPlan.parse(spec), seed=fault_seed)
        injector.install(
            world.cloud, world.medium, world.framework, list(world.apps.values())
        )
        world.start()
        return alice, bob, injector

    def test_certain_drop_starves_the_receiver_without_crashing(self, world):
        alice, bob, injector = self._injected_pair(world, "frame_drop_prob=1.0")
        alice.post("lost to the ether")
        world.run(600.0)
        assert bob.timeline() == []
        assert injector.stats["frames_dropped"] > 0
        assert fault_events(world.sim, "frame_drop")
        assert world.framework.stats["transfers_failed"] >= injector.stats["frames_dropped"]

    def test_corruption_surfaces_as_security_diagnostic(self, world):
        alice, bob, injector = self._injected_pair(world, "frame_corrupt_prob=1.0")
        alice.post("mangled in flight")
        world.run(600.0)
        # Every delivered frame was corrupted: the receivers log security
        # failures (bad MAC / bad handshake), nothing ever raises out of
        # the event loop, and no post goes through.
        assert bob.timeline() == []
        assert injector.stats["frames_corrupted"] > 0
        assert fault_events(world.sim, "frame_corrupt")
        failures = (
            alice.sos.adhoc.stats["security_failures"]
            + bob.sos.adhoc.stats["security_failures"]
        )
        assert failures > 0

    def test_quiesce_detaches_the_hook_and_traffic_recovers(self, world):
        alice, bob, injector = self._injected_pair(world, "frame_drop_prob=1.0")
        alice.post("one")
        world.run(600.0)
        assert bob.timeline() == []
        injector.quiesce()
        assert world.framework.frame_fault is None
        alice.post("two")
        world.run(1800.0)
        assert "two" in {e.post.text for e in bob.timeline()}


# -- device crash / reboot ----------------------------------------------------------


class TestCrashReboot:
    def _secured_pair(self, world, **add_user_kwargs):
        config = SosConfig(relay_request_grace=0.0)
        alice = world.add_user(
            "alice", position=Point(100, 100), config=config, **add_user_kwargs
        )
        bob = world.add_user(
            "bob", position=Point(120, 100), config=config, **add_user_kwargs
        )
        bob.follow(alice.user_id)
        world.start()
        alice.post("before the crash")
        world.run(120.0)
        assert bob.sos.adhoc.is_secured(alice.user_id)
        assert [e.post.text for e in bob.timeline()] == ["before the crash"]
        return alice, bob

    def test_volatile_lost_durable_survives(self, world):
        alice, bob = self._secured_pair(world)
        bob.follow_many([])  # no-op; keeps the log purely organic
        log_before = list(bob.actions)
        acked_before = bob.sync_queue.acked_seq
        keys = bob.sos.adhoc._session_keys
        held_before = dict(keys.held)
        assert len(held_before) >= 1 and keys.sent
        bob.crash()
        # Volatile: the feed, the notifications, every secure channel.
        assert bob.timeline() == []
        assert bob.notifications == []
        assert bob.sos.adhoc._peers == {}
        assert not bob.sos.adhoc.is_secured(alice.user_id)
        # ...and the masters bob could resume with, so his next key pays RSA.
        assert keys.sent == {}
        # Durable: the action log, the acked prefix, the keystore and the
        # anti-replay record of held masters (the same records, not copies).
        assert list(bob.actions) == log_before
        assert bob.sync_queue.acked_seq == acked_before
        assert bob.sos.adhoc.keystore.private_key is not None
        assert bob.sos.adhoc._session_keys is keys
        assert keys.held == held_before

    def test_reboot_resecures_and_new_posts_flow(self, world):
        alice, bob = self._secured_pair(world)
        device = world.devices["bob"]
        world.medium.drop_links_of(device.device_id)
        device.power_off()
        bob.crash()
        world.run(world.sim.now + 60.0)
        device.power_on()
        bob.reboot()
        alice.post("after the reboot")
        world.run(world.sim.now + 600.0)
        assert bob.sos.adhoc.is_secured(alice.user_id)
        # The pre-crash feed is gone for good; the new post arrives.
        assert {e.post.text for e in bob.timeline()} == {"after the reboot"}

    def test_injector_crash_cycle_traces_and_restores(self, world):
        config = SosConfig(relay_request_grace=0.0)
        world.add_user("alice", position=Point(100, 100), config=config)
        world.add_user("bob", position=Point(120, 100), config=config)
        injector = FaultInjector(
            world.sim,
            FaultPlan.parse("crash_rate_per_day=50,reboot_delay_s=10:30"),
            seed=11,
        )
        injector.install(
            world.cloud, world.medium, world.framework, list(world.apps.values())
        )
        world.start()
        world.run(6 * 3600.0)
        assert injector.stats["crashes"] > 0
        crashes = fault_events(world.sim, "crash")
        reboots = fault_events(world.sim, "reboot")
        assert len(crashes) == injector.stats["crashes"]
        # Reboots trail crashes by at most the currently-down set.
        assert len(crashes) - len(reboots) in (0, 1, 2)
        injector.quiesce()
        assert injector._down == {}
        for device in world.devices.values():
            assert device.powered_on

    def test_install_is_single_shot(self, world):
        world.add_user("alice")
        world.add_user("bob")
        injector = FaultInjector(world.sim, FaultPlan.parse("mild"), seed=1)
        injector.install(
            world.cloud, world.medium, world.framework, list(world.apps.values())
        )
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install(
                world.cloud, world.medium, world.framework, list(world.apps.values())
            )


# -- resilient cloud sync (retry/backoff) -------------------------------------------


class TestResilientSync:
    def test_failure_counts_but_stays_silent_without_policy(self, world):
        alice = world.add_user("alice")
        world.add_user("bob")
        world.cloud.online = False
        world.start()
        alice.post("queued")
        assert alice.sync_failures == 1
        assert alice.sync_queue.pending_count > 0
        # Seed behaviour: no trace events, no retry machinery.
        assert cloud_events(world.sim) == []
        assert alice._retry_event is None

    def test_retry_backoff_until_cloud_returns(self, world):
        policy = RetryPolicy(base_s=10.0, cap_s=80.0, jitter=0.25)
        alice = world.add_user("alice", resilience=policy)
        world.add_user("bob", resilience=policy)
        world.cloud.online = False
        world.start()
        alice.post("will get there")
        assert alice.sync_failures == 1
        assert cloud_events(world.sim, "sync_failed")
        assert alice._retry_event is not None
        world.run(300.0)  # several retries fail against the offline cloud
        retries = cloud_events(world.sim, "sync_retry")
        assert len(retries) >= 3
        delays = [e.data["delay"] for e in retries]
        # Exponential growth (within jitter): every later delay exceeds
        # its predecessor until the cap region.
        assert delays[1] > delays[0]
        assert all(d <= 80.0 * 1.25 for d in delays)
        world.cloud.online = True
        world.run(world.sim.now + 2 * 80.0 * 1.25)
        assert alice.sync_queue.pending_count == 0
        assert alice._retry_event is None
        assert alice._sync_attempt == 0  # success resets the backoff
        account = world.cloud.account_by_user_id(alice.user_id)
        assert [a.seq for a in account.synced_actions] == [
            a.seq for a in alice.actions
        ]

    def test_single_outstanding_retry(self, world):
        policy = RetryPolicy(base_s=50.0, cap_s=400.0, jitter=0.0)
        alice = world.add_user("alice", resilience=policy)
        world.add_user("bob", resilience=policy)
        world.cloud.online = False
        world.start()
        alice.post("one")
        alice.post("two")
        alice.post("three")
        assert alice.sync_failures == 3
        # Three failures, but only the first scheduled a retry.
        assert len(cloud_events(world.sim, "sync_retry")) == 1

    def test_crash_resets_backoff_and_reboot_resyncs(self, world):
        policy = RetryPolicy(base_s=10.0, cap_s=80.0, jitter=0.0)
        alice = world.add_user("alice", resilience=policy)
        world.add_user("bob", resilience=policy)
        world.cloud.online = False
        world.start()
        alice.post("persisted")
        world.run(100.0)
        assert alice._sync_attempt > 1
        alice.crash()
        assert alice._retry_event is None
        assert alice._sync_attempt == 0
        world.cloud.online = True
        alice.reboot()
        # Reboot re-attempts the surviving unacked suffix immediately.
        assert alice.sync_queue.pending_count == 0

    def test_retry_schedule_is_seed_deterministic(self, ca, keypair_pool):
        def run_once():
            world = World(ca, keypair_pool, seed=3)
            policy = RetryPolicy(base_s=10.0, cap_s=80.0, jitter=0.25)
            alice = world.add_user("alice", resilience=policy)
            world.add_user("bob", resilience=policy)
            world.cloud.online = False
            world.start()
            alice.post("jittered")
            world.run(400.0)
            return [e.data["delay"] for e in cloud_events(world.sim, "sync_retry")]

        first = run_once()
        assert len(first) >= 3
        assert first == run_once()


# -- satellite regressions ----------------------------------------------------------


class TestSyncQueueExceptionSafety:
    def _queue(self, n=3):
        log = ActionLog()
        for i in range(n):
            log.append(ActionKind.POST, actor="u", created_at=0.0, number=i + 1, text="x")
        return SyncQueue(log)

    def test_uplink_raising_mid_batch_leaves_state_consistent(self):
        queue = self._queue(3)
        seen = []

        def exploding_uplink(batch):
            seen.append([a.seq for a in batch])
            raise RuntimeError("uplink died mid-batch")

        with pytest.raises(RuntimeError):
            queue.sync(exploding_uplink)
        # Nothing acknowledged, no round counted; max_batch records the
        # *attempted* batch (its documented meaning).
        assert queue.acked_seq == 0
        assert queue.sync_count == 0
        assert queue.max_batch == 3
        assert queue.pending_count == 3
        # The next opportunity replays the identical full batch.
        assert queue.sync(lambda batch: batch[-1].seq) == 3
        assert seen == [[1, 2, 3]]
        assert queue.acked_seq == 3
        assert queue.sync_count == 1
        assert queue.pending_count == 0

    def test_out_of_range_ack_rejected_without_state_change(self):
        queue = self._queue(2)
        with pytest.raises(ValueError, match="valid range"):
            queue.sync(lambda batch: 99)
        assert queue.acked_seq == 0
        assert queue.sync_count == 0
        assert queue.pending_count == 2


class TestControlSendDiagnostic:
    def test_failed_control_send_is_traced_not_swallowed(self, world):
        alice = world.add_user("alice")
        bob = world.add_user("bob")
        world.start()
        # Bob was never secured, so the send fails at the security layer;
        # the old code passed silently, now it leaves a diagnostic.
        alice.sos.messages.send_control(bob.user_id, b"advisory")
        events = [
            e for e in world.sim.trace
            if e.category == "router" and e.kind == "control_send_failed"
        ]
        assert len(events) == 1
        assert events[0].data["owner"] == alice.user_id
        assert events[0].data["peer"] == bob.user_id
        assert events[0].data["reason"]
