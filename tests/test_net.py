"""Tests for radios, devices, the medium and contact tracking."""

import pytest

from repro.geo.point import Point
from repro.mobility.base import MobilityModel, StationaryModel
from repro.net import (
    BLUETOOTH,
    ContactTracker,
    Device,
    INFRA_WIFI,
    Medium,
    P2P_WIFI,
    transfer_duration,
)
from repro.net.radio import best_common_radio
from repro.sim import Simulator


class _Script(MobilityModel):
    """Position follows a scripted piecewise table."""

    def __init__(self, waypoints):
        self._waypoints = sorted(waypoints)

    def position_at(self, now):
        position = self._waypoints[0][1]
        for t, p in self._waypoints:
            if t <= now:
                position = p
        return position


def make_world(tick=10.0):
    sim = Simulator(seed=1)
    medium = Medium(sim, tick_interval=tick)
    return sim, medium


class TestRadios:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BLUETOOTH.__class__(
                technology=BLUETOOTH.technology, range_m=-1,
                throughput_bps=1, setup_latency_s=0,
            )

    def test_best_common_radio_prefers_throughput(self):
        assert best_common_radio([BLUETOOTH, P2P_WIFI], [P2P_WIFI, BLUETOOTH]) is P2P_WIFI

    def test_no_common_radio(self):
        assert best_common_radio([BLUETOOTH], [INFRA_WIFI]) is None

    def test_single_common(self):
        assert best_common_radio([BLUETOOTH, P2P_WIFI], [BLUETOOTH]) is BLUETOOTH


class TestBandwidth:
    def test_transfer_duration_scales_with_size(self):
        small = transfer_duration(1_000, BLUETOOTH)
        large = transfer_duration(1_000_000, BLUETOOTH)
        assert large > small > 0

    def test_faster_radio_is_faster(self):
        assert transfer_duration(10_000, P2P_WIFI) < transfer_duration(10_000, BLUETOOTH)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            transfer_duration(-1, BLUETOOTH)


class TestDevice:
    def test_duplicate_id_rejected(self):
        sim, medium = make_world()
        medium.add_device(Device("d", StationaryModel(Point(0, 0))))
        with pytest.raises(ValueError):
            medium.add_device(Device("d", StationaryModel(Point(1, 1))))

    def test_requires_radio(self):
        with pytest.raises(ValueError):
            Device("d", StationaryModel(Point(0, 0)), radios=())

    def test_equality_by_id(self):
        a = Device("d", StationaryModel(Point(0, 0)))
        b = Device("d", StationaryModel(Point(9, 9)))
        assert a == b and hash(a) == hash(b)


class TestMediumLinks:
    def test_link_up_within_range(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", StationaryModel(Point(30, 0))))
        ups = []
        medium.on_link_up(lambda a, b, r: ups.append((a.device_id, b.device_id, r.technology)))
        medium.start()
        sim.run(until=20.0)
        assert len(ups) == 1
        assert medium.link_between("a", "b") is P2P_WIFI

    def test_no_link_out_of_range(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", StationaryModel(Point(100, 0))))
        medium.start()
        sim.run(until=20.0)
        assert medium.link_between("a", "b") is None

    def test_link_down_when_separating(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(
            Device("b", _Script([(0.0, Point(30, 0)), (50.0, Point(500, 0))]))
        )
        downs = []
        medium.on_link_down(lambda a, b, r: downs.append((a.device_id, b.device_id)))
        medium.start()
        sim.run(until=100.0)
        assert downs
        assert medium.link_between("a", "b") is None

    def test_hysteresis_keeps_marginal_link(self):
        sim, medium = make_world()
        # b moves from 50m to 64m: beyond P2P range (60) but within the
        # 1.1 hysteresis margin (66) -> link must survive.
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", _Script([(0.0, Point(50, 0)), (30.0, Point(64, 0))])))
        medium.start()
        sim.run(until=100.0)
        assert medium.link_between("a", "b") is P2P_WIFI

    def test_powered_off_device_has_no_links(self):
        sim, medium = make_world()
        a = Device("a", StationaryModel(Point(0, 0)))
        b = Device("b", StationaryModel(Point(30, 0)))
        medium.add_device(a)
        medium.add_device(b)
        b.power_off()
        medium.start()
        sim.run(until=20.0)
        assert medium.link_between("a", "b") is None

    def test_power_off_drops_existing_link(self):
        sim, medium = make_world()
        a = Device("a", StationaryModel(Point(0, 0)))
        b = Device("b", StationaryModel(Point(30, 0)))
        medium.add_device(a)
        medium.add_device(b)
        medium.start()
        sim.schedule_at(30.0, b.power_off)
        sim.run(until=60.0)
        assert medium.link_between("a", "b") is None

    def test_bluetooth_only_pair_uses_bluetooth_range(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0)), radios=(BLUETOOTH,)))
        medium.add_device(Device("b", StationaryModel(Point(30, 0)), radios=(BLUETOOTH,)))
        medium.start()
        sim.run(until=20.0)
        assert medium.link_between("a", "b") is None  # 30m > 10m BT range

    def test_neighbours_of(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", StationaryModel(Point(30, 0))))
        medium.add_device(Device("c", StationaryModel(Point(0, 30))))
        medium.start()
        sim.run(until=20.0)
        assert sorted(medium.neighbours_of("a")) == ["b", "c"]

    def test_remove_device_drops_links(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", StationaryModel(Point(30, 0))))
        medium.start()
        sim.run(until=20.0)
        medium.remove_device("b")
        assert medium.link_between("a", "b") is None
        assert medium.active_links == 0

    def test_trace_records_contacts(self):
        sim, medium = make_world()
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", StationaryModel(Point(30, 0))))
        medium.start()
        sim.run(until=20.0)
        medium.stop()
        kinds = [e.kind for e in sim.trace if e.category == "contact"]
        assert kinds == ["up", "down"]  # down: closed by stop()


class TestContactTracker:
    def test_contact_lifecycle(self):
        tracker = ContactTracker()
        tracker.contact_up("a", "b", P2P_WIFI, now=10.0)
        assert tracker.is_active("a", "b")
        contact = tracker.contact_down("b", "a", now=25.0)  # order-insensitive
        assert contact.duration == 15.0
        assert not tracker.is_active("a", "b")

    def test_idempotent_up(self):
        tracker = ContactTracker()
        first = tracker.contact_up("a", "b", P2P_WIFI, now=10.0)
        second = tracker.contact_up("a", "b", P2P_WIFI, now=12.0)
        assert first is second

    def test_down_without_up_is_none(self):
        assert ContactTracker().contact_down("a", "b", now=1.0) is None

    def test_statistics(self):
        tracker = ContactTracker()
        tracker.contact_up("a", "b", P2P_WIFI, 0.0)
        tracker.contact_down("a", "b", 10.0)
        tracker.contact_up("a", "b", P2P_WIFI, 30.0)
        tracker.contact_down("a", "b", 50.0)
        tracker.contact_up("a", "c", P2P_WIFI, 5.0)
        tracker.contact_down("a", "c", 6.0)
        assert tracker.total_contacts() == 3

    def test_close_all(self):
        tracker = ContactTracker()
        tracker.contact_up("a", "b", P2P_WIFI, 0.0)
        tracker.contact_up("a", "c", P2P_WIFI, 0.0)
        tracker.close_all(now=9.0)
        assert tracker.active_count == 0
        assert all(c.duration == 9.0 for c in tracker.completed)
