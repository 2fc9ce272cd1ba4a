"""Chaos tests: randomized fault plans must leave the system consistent.

Each case samples a :meth:`FaultPlan.sample` plan (every axis active:
cloud outages, timeouts, rate limits, partial acceptance, device
crash/reboot churn, frame drops/corruption, link flaps), runs a
miniature world under it with users posting throughout, then calls
:meth:`FaultInjector.quiesce` and lets the retry machinery converge
through a quiet period.  The convergence contract (ISSUE 7):

* every app's sync queue drains — all logs fully acknowledged once
  connectivity returns,
* the cloud applied each action exactly once, in order (no duplicates,
  no gaps, despite at-least-once replays against a truncating backend),
* a fixed (sim seed, fault seed) pair reproduces the run byte-for-byte,
* anti-replay holds across crash/reconnect: a recorded handshake or
  resume frame replayed after the victim crashes and reboots is rejected
  as a security diagnostic, never accepted and never a crash.
"""

import pytest

from repro.core.config import SosConfig
from repro.faults import FaultInjector, FaultPlan
from repro.geo.point import Point
from repro.mpc.peer import PeerID
from tests.worldutil import World, trace_lines

#: Chaos phase length, then a quiet period long enough for the last
#: scheduled retry (sampled cap 120 s, jitter 0.25) plus a reconnect.
CHAOS_S = 3600.0
QUIET_S = 1200.0
USERS = ("ann", "bea", "cal", "dan")
POSTS_PER_USER = 6


def _build(ca, keypair_pool, fault_seed, sim_seed=41):
    plan = FaultPlan.sample(fault_seed)
    policy = plan.retry_policy()
    world = World(ca, keypair_pool, tick=10.0, seed=sim_seed)
    config = SosConfig(relay_request_grace=0.0)
    for i, name in enumerate(USERS):
        world.add_user(
            name, position=Point(100.0 + 20.0 * i, 100.0),
            config=config, resilience=policy,
        )
    for i, name in enumerate(USERS):
        world.apps[name].follow(world.uid(USERS[(i + 1) % len(USERS)]))
    injector = FaultInjector(world.sim, plan, seed=fault_seed)
    injector.install(
        world.cloud, world.medium, world.framework, list(world.apps.values())
    )
    world.start()

    def make_post(name, k):
        def _post():
            # A crashed phone takes no input; the schedule itself is
            # fixed, so determinism is unaffected.
            if world.devices[name].powered_on:
                world.apps[name].post(f"{name} says {k}")

        return _post

    for i, name in enumerate(USERS):
        for k in range(POSTS_PER_USER):
            world.sim.schedule_at(
                300.0 + 400.0 * k + 50.0 * i, make_post(name, k),
                name=f"chaos-post:{name}",
            )
    return world, injector, plan


def _run_to_convergence(world, injector):
    world.run(CHAOS_S)
    injector.quiesce()
    world.run(CHAOS_S + QUIET_S)


class TestChaosConvergence:
    @pytest.mark.parametrize("fault_seed", [1, 2, 3, 4, 5])
    def test_logs_fully_acked_and_applied_exactly_once(
        self, ca, keypair_pool, fault_seed
    ):
        world, injector, plan = _build(ca, keypair_pool, fault_seed)
        _run_to_convergence(world, injector)
        # The plan actually did something to this world.
        activity = sum(injector.stats.values())
        if injector.connectivity is not None:
            activity += injector.connectivity.transitions
        if injector.gate is not None:
            activity += sum(injector.gate.stats.values())
        assert activity > 0
        for name in USERS:
            app = world.apps[name]
            # Convergence: nothing left pending once the world healed.
            assert app.sync_queue.pending_count == 0, (
                f"{name} still has {app.sync_queue.pending_count} pending "
                f"under plan {plan}"
            )
            # Exactly-once at the cloud: the synced log is precisely the
            # app's action log — contiguous seqs, no duplicates, no gaps —
            # even though at-least-once replays offered many duplicates.
            account = world.cloud.account_by_user_id(app.user_id)
            synced = [a.seq for a in account.synced_actions]
            assert synced == [a.seq for a in app.actions]
            assert synced == list(range(1, len(synced) + 1))

    def test_fixed_seeds_reproduce_the_run_byte_for_byte(self, ca, keypair_pool):
        def run_once(fault_seed):
            world, injector, _ = _build(ca, keypair_pool, fault_seed)
            _run_to_convergence(world, injector)
            return trace_lines(world.sim)

        first = run_once(fault_seed=2)
        assert first == run_once(fault_seed=2)
        assert first != run_once(fault_seed=3)


class TestAntiReplayAcrossCrash:
    def test_recorded_handshake_rejected_after_crash_and_reboot(
        self, ca, keypair_pool
    ):
        """Crash wipes every secure channel but *not* the anti-replay
        record of held masters and their resume counters; a handshake or
        resume frame recorded before the crash must be rejected after
        reboot + re-handshake."""
        world = World(ca, keypair_pool, seed=17)
        config = SosConfig(relay_request_grace=0.0)
        alice = world.add_user("alice", position=Point(100, 100), config=config)
        bob = world.add_user("bob", position=Point(120, 100), config=config)
        bob.follow(alice.user_id)

        recorded = []

        def tap(pair, data):
            if data[:1] in (b"K", b"R"):
                recorded.append(bytes(data))
            return data

        world.framework.frame_fault = tap
        world.start()
        alice.post("first session")
        world.run(60.0)
        alice.post("first session, again")  # the data frames ack both keys
        world.run(120.0)
        world.medium.force_drop("dev-alice", "dev-bob")  # a flap: the reconnect resumes
        world.run(200.0)
        alice.post("resumed session")
        world.run(300.0)
        assert bob.sos.adhoc.is_secured(alice.user_id)
        resumes = [frame for frame in recorded if frame[:1] == b"R"]
        handshakes = [frame for frame in recorded if frame[:1] == b"K"]
        assert resumes, "no resume frames crossed the link"
        assert handshakes, "no handshake frames crossed the link"
        world.framework.frame_fault = None

        # Crash bob mid-life; the channels die, the held masters persist.
        device = world.devices["bob"]
        world.medium.drop_links_of(device.device_id)
        device.power_off()
        bob.crash()
        world.run(world.sim.now + 60.0)
        device.power_on()
        bob.reboot()
        alice.post("second session")  # traffic drives the re-handshake
        world.run(world.sim.now + 300.0)
        assert bob.sos.adhoc.is_secured(alice.user_id)  # fresh handshake

        # The tap saw both directions; replay alice's resumes (of masters
        # bob holds) first, while bob's re-handshaken channel is live.
        held = bob.sos.adhoc._session_keys.held
        resumes.sort(key=lambda frame: frame[1:33] not in held)
        assert resumes[0][1:33] in held
        failures_before = bob.sos.adhoc.stats["security_failures"]
        events_before = len(world.sim.trace)
        for frame in resumes + handshakes:
            # Every recorded frame must bounce: replayed resume counters and
            # session keys from before the crash, or frames signed by the
            # wrong side — all security diagnostics, never an accepted key,
            # never a crash.
            bob.sos.adhoc.session_received_data(
                bob.sos.adhoc.session, frame,
                PeerID(alice.user_id, world.devices["alice"].device_id),
            )
        assert (
            bob.sos.adhoc.stats["security_failures"]
            == failures_before + len(recorded)
        )
        # The first replay met the live re-handshaken channel, which
        # refused it on the durable counter, not for lack of a session.
        first = list(world.sim.trace)[events_before]
        assert (first.category, first.kind) == ("security", "failure")
        assert first.data["reason"].startswith(
            "session decryption failed: replayed resume frame"
        )
