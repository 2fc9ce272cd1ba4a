"""Tests for contact-trace export/replay and the trace-driven medium."""

import io

import pytest

from repro.geo.point import Point
from repro.geo.region import Region
from repro.mobility import RandomWaypoint
from repro.mobility.base import StationaryModel
from repro.net import Device, Medium
from repro.net.contact import Contact
from repro.net.radio import BLUETOOTH, P2P_WIFI
from repro.net.tracefile import (
    ContactInterval,
    TraceMedium,
    read_contact_trace,
    write_contact_trace,
)
from repro.sim import Simulator


class TestContactInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContactInterval("a", "b", 10.0, 10.0)
        with pytest.raises(ValueError):
            ContactInterval("a", "a", 0.0, 10.0)

    def test_duration(self):
        assert ContactInterval("a", "b", 5.0, 25.0).duration == 20.0

    @pytest.mark.parametrize(
        "start, end",
        [(float("nan"), 5.0), (0.0, float("inf")), (float("-inf"), 5.0), (0.0, float("nan"))],
        ids=["nan-start", "inf-end", "minus-inf-start", "nan-end"],
    )
    def test_non_finite_times_rejected(self, start, end):
        with pytest.raises(ValueError, match="non-finite"):
            ContactInterval("a", "b", start, end)


class TestFileRoundtrip:
    def test_write_and_read(self):
        contacts = [
            Contact("a", "b", P2P_WIFI, start=10.0, end=50.0),
            Contact("b", "c", BLUETOOTH, start=20.0, end=30.0),
        ]
        buffer = io.StringIO()
        assert write_contact_trace(contacts, buffer) == 2
        buffer.seek(0)
        intervals = read_contact_trace(buffer)
        assert len(intervals) == 2
        assert intervals[0].node_a == "a" and intervals[0].end == 50.0

    def test_active_contacts_skipped(self):
        contacts = [Contact("a", "b", P2P_WIFI, start=10.0, end=None)]
        buffer = io.StringIO()
        assert write_contact_trace(contacts, buffer) == 0

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n1.0 2.0 x y\n"
        intervals = read_contact_trace(io.StringIO(text))
        assert len(intervals) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            read_contact_trace(io.StringIO("1.0 2.0 onlythree\n"))

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("1 x a b\n", 1),
            ("# header\n0 5 a b\nnan 5 a b\n", 3),
            ("0 5 a b\n7 7 a b\n", 2),
            ("3 9 a a\n", 1),
        ],
        ids=["bad-number", "non-finite", "empty-interval", "self-contact"],
    )
    def test_bad_line_is_named(self, text, lineno):
        with pytest.raises(ValueError, match=f"line {lineno}:"):
            read_contact_trace(io.StringIO(text))

    def test_sorted_by_start(self):
        text = "50 60 a b\n1 2 c d\n"
        intervals = read_contact_trace(io.StringIO(text))
        assert intervals[0].start == 1.0


class TestTraceMedium:
    def _device(self, name):
        return Device(name, StationaryModel(Point(0, 0)))

    def test_replays_links(self):
        sim = Simulator()
        medium = TraceMedium(sim, [ContactInterval("a", "b", 10.0, 50.0)])
        medium.add_device(self._device("a"))
        medium.add_device(self._device("b"))
        ups, downs = [], []
        medium.on_link_up(lambda a, b, r: ups.append(sim.now))
        medium.on_link_down(lambda a, b, r: downs.append(sim.now))
        medium.start()
        sim.run(until=100.0)
        assert ups == [10.0] and downs == [50.0]
        assert medium.contacts.completed[0].duration == 40.0

    def test_link_between_during_interval(self):
        sim = Simulator()
        medium = TraceMedium(sim, [ContactInterval("a", "b", 10.0, 50.0)])
        medium.add_device(self._device("a"))
        medium.add_device(self._device("b"))
        medium.start()
        sim.run(until=20.0)
        assert medium.link_between("a", "b") is not None
        assert medium.neighbours_of("a") == ["b"]
        sim.run(until=60.0)
        assert medium.link_between("a", "b") is None

    def test_unknown_nodes_ignored(self):
        sim = Simulator()
        medium = TraceMedium(sim, [ContactInterval("a", "ghost", 0.5, 5.0)])
        medium.add_device(self._device("a"))
        medium.start()
        sim.run(until=10.0)
        assert medium.active_links == 0

    def test_powered_off_device_skips_contact(self):
        sim = Simulator()
        medium = TraceMedium(sim, [ContactInterval("a", "b", 10.0, 50.0)])
        device_a = self._device("a")
        device_a.power_off()
        medium.add_device(device_a)
        medium.add_device(self._device("b"))
        medium.start()
        sim.run(until=20.0)
        assert medium.active_links == 0

    def test_removed_device_is_not_relinked(self):
        sim = Simulator()
        medium = TraceMedium(sim, [
            ContactInterval("a", "b", 10.0, 20.0),
            ContactInterval("a", "b", 30.0, 40.0),
        ])
        medium.add_device(self._device("a"))
        medium.add_device(self._device("b"))
        medium.start()
        sim.run(until=15.0)
        medium.remove_device("b")
        sim.run(until=50.0)
        assert medium.active_links == 0
        assert [(c.start, c.end) for c in medium.contacts.completed] == [(10.0, 15.0)]

    def test_overlapping_intervals_keep_the_pair_linked(self):
        sim = Simulator()
        medium = TraceMedium(sim, [
            ContactInterval("a", "b", 0.0, 50.0),
            ContactInterval("b", "a", 40.0, 100.0),
        ])
        medium.add_device(self._device("a"))
        medium.add_device(self._device("b"))
        ups, downs = [], []
        medium.on_link_up(lambda a, b, r: ups.append(sim.now))
        medium.on_link_down(lambda a, b, r: downs.append(sim.now))
        medium.start()
        sim.run(until=60.0)
        assert medium.link_between("a", "b") is P2P_WIFI
        sim.run(until=200.0)
        assert ups == [0.0] and downs == [100.0]
        assert [c.duration for c in medium.contacts.completed] == [100.0]

    def test_stop_drops_links_in_sorted_pair_order(self):
        sim = Simulator()
        medium = TraceMedium(sim, [
            ContactInterval("c", "d", 0.0, 100.0),
            ContactInterval("b", "a", 5.0, 100.0),
        ])
        for name in "abcd":
            medium.add_device(self._device(name))
        downs = []
        medium.on_link_down(lambda a, b, r: downs.append((a.device_id, b.device_id)))
        medium.start()
        sim.run(until=50.0)
        medium.stop()
        assert downs == [("a", "b"), ("c", "d")]
        assert medium.active_links == 0

    @pytest.mark.parametrize(
        "devices, side, tick, until, contacts",
        [(6, 800.0, 15.0, 6 * 3600.0, 89), (20, 600.0, 30.0, 2 * 3600.0 - 1.0, 503)],
        ids=["trace-replay-example", "simultaneous-changes"],
    )
    def test_a_recorded_trace_replays_to_itself(self, devices, side, tick, until, contacts):
        """Record a geometric run, then replay its trace: the replay's
        trace text and its ordered ``contact`` events are the
        recording's, also where several links change at one tick."""

        def contact_events(sim):
            return [
                (e.time, e.kind, e.data["a"], e.data["b"], e.data["radio"])
                for e in sim.trace
                if e.category == "contact"
            ]

        def export(medium):
            buffer = io.StringIO()
            write_contact_trace(medium.contacts.completed, buffer)
            return buffer.getvalue()

        sim = Simulator(seed=99)
        medium = Medium(sim, tick_interval=tick)
        region = Region(0, 0, side, side)
        for i in range(devices):
            mobility = RandomWaypoint(region, sim.streams.get(f"m{i}"), pause_range=(60.0, 600.0))
            medium.add_device(Device(f"node-{i:02d}", mobility))
        medium.start()
        sim.run(until=until)
        medium.stop()
        recorded = export(medium)

        replay_sim = Simulator(seed=1)
        replay = TraceMedium(replay_sim, read_contact_trace(io.StringIO(recorded)))
        for i in range(devices):
            replay.add_device(self._device(f"node-{i:02d}"))
        replay.start()
        replay_sim.run(until=until)
        replay.stop()

        assert recorded.count("\n") == contacts
        assert export(replay) == recorded
        assert len(contact_events(sim)) == 2 * contacts
        assert contact_events(replay_sim) == contact_events(sim)

    def test_full_stack_over_recorded_contacts(self, ca, keypair_pool):
        """Record contacts from a geometric run, then replay them through
        the complete AlleyOop stack: deliveries must still happen."""
        import io as _io

        from repro.mpc import MpcFramework
        from tests.worldutil import World

        # 1. Record a short geometric run.
        world = World(ca, keypair_pool)
        world.add_user("alice")
        world.add_user("bob")
        world.start()
        world.run(120.0)
        world.medium.stop()
        buffer = _io.StringIO()
        write_contact_trace(world.medium.contacts.completed, buffer)
        buffer.seek(0)
        intervals = read_contact_trace(buffer)
        assert intervals, "the recording phase produced no contacts"

        # 2. Replay through a fresh stack (trace node ids are device ids).
        from repro.alleyoop import AlleyOopApp, CloudService
        from repro.core.config import SosConfig
        from repro.crypto.drbg import HmacDrbg
        from repro.pki.certificate import DistinguishedName
        from repro.pki.csr import CertificateSigningRequest
        from repro.pki.keystore import KeyStore

        sim = Simulator(seed=3)
        medium = TraceMedium(sim, intervals)
        framework = MpcFramework(sim, medium)
        cloud = CloudService(ca=ca)
        apps = {}
        for i, name in enumerate(["alice", "bob"]):
            account = cloud.create_account(name, now=0.0)
            keypair = keypair_pool[i]
            csr = CertificateSigningRequest.create(
                DistinguishedName(name), keypair.private, account.user_id
            )
            cert = cloud.request_certificate(name, csr, now=0.0)
            keystore = KeyStore()
            keystore.provision(keypair.private, cert, cloud.root_certificate)
            device = Device(f"dev-{name}", StationaryModel(Point(0, 0)))
            medium.add_device(device)
            apps[name] = AlleyOopApp(
                sim, framework, f"dev-{name}", account.user_id, name, keystore,
                cloud, rng=HmacDrbg.from_int(40 + i),
                config=SosConfig(relay_request_grace=0.0),
            )
        apps["bob"].follow(apps["alice"].user_id)
        for app in apps.values():
            app.start()
        medium.start()
        apps["alice"].post("over recorded contacts")
        sim.run(until=intervals[-1].end + 10.0)
        assert [e.post.text for e in apps["bob"].timeline()] == ["over recorded contacts"]
