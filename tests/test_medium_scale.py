"""Regression tests for the batched contact-detection tick and the
link-lifecycle bugfix sweep that rode along with it:

* ``Medium.remove_device`` fires link-down callbacks (it used to pop the
  device first and silently skip them),
* hysteresis survival is keyed to the radio the link was *raised* on,
* ``SpatialHashIndex`` serves the ``update_many`` / ``pairs_within``
  batch APIs,
* ``Simulator`` compacts cancelled events out of the heap,
* BubbleRap's encounter window is a deque (O(1) expiry),
* the batched tick and the per-device oracle (``tests/medium_oracle.py``)
  produce byte-identical traces.
"""

import importlib
import pkgutil
import random

import pytest

import repro.mobility
from repro.core.routing import BubbleRapRouting
from repro.geo.point import Point
from repro.geo.region import Region
from repro.geo.spatial_index import SpatialHashIndex
from repro.mobility.base import MobilityModel, StationaryModel
from repro.mobility.random_waypoint import RandomWaypoint
from repro.net.device import Device
from repro.net.medium import Medium
from repro.net.radio import BLUETOOTH, DEFAULT_RADIO_SET, P2P_WIFI
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from tests.medium_oracle import PerDeviceMedium
from tests.test_routing_protocols import ALICE, BOB, CAROL, FakeServices
from tests.worldutil import trace_lines


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


def make_medium(sim, tick, batched):
    """The batched ``Medium`` or the per-device oracle."""
    return (Medium if batched else PerDeviceMedium)(sim, tick_interval=tick)


def make_world(tick=10.0, batched=True):
    sim = Simulator(seed=1)
    return sim, make_medium(sim, tick, batched)


class TestRemoveDeviceCallbacks:
    @pytest.mark.parametrize("batched", [True, False])
    def test_remove_device_fires_link_down_callbacks(self, batched):
        """Seed bug: the device was popped from ``devices`` before
        ``_drop_link``, so down-callbacks could not resolve both Device
        objects and were silently skipped — AdHocManager and routing
        leaked peer state for departed devices."""
        sim, medium = make_world(batched=batched)
        a = Device("a", StationaryModel(Point(0, 0)))
        b = Device("b", StationaryModel(Point(30, 0)))
        medium.add_device(a)
        medium.add_device(b)
        downs = []
        medium.on_link_down(lambda x, y, r: downs.append((x.device_id, y.device_id, r)))
        medium.start()
        sim.run(until=20.0)
        assert medium.link_between("a", "b") is P2P_WIFI
        medium.remove_device("b")
        assert downs == [("a", "b", P2P_WIFI)]
        assert medium.active_links == 0
        # The contact interval was closed, too.
        assert medium.contacts.active_count == 0
        assert medium.contacts.total_contacts() == 1
        # Later ticks no longer see b: no link to it comes back.
        sim.run(until=40.0)
        assert medium.neighbours_of("a") == []
        assert medium.contacts.total_contacts() == 1
        assert downs == [("a", "b", P2P_WIFI)]

    @pytest.mark.parametrize("batched", [True, False])
    def test_remove_unknown_device_is_noop(self, batched):
        _, medium = make_world(batched=batched)
        medium.remove_device("ghost")  # must not raise


class TestHysteresisRadioKeying:
    @pytest.mark.parametrize("batched", [True, False])
    def test_survival_uses_raised_radio_not_current_best(self, batched):
        """Seed bug: the survival check used the freshly recomputed best
        common radio; if that resolution changed mid-contact the drop
        threshold silently switched.  The link must ride the hysteresis
        margin of the radio it was raised on."""
        sim, medium = make_world(batched=batched)
        a = Device("a", StationaryModel(Point(0, 0)))
        b = Device(
            "b",
            _Script(
                [(0.0, Point(50, 0)), (25.0, Point(64, 0)), (90.0, Point(70, 0))]
            ),
        )
        medium.add_device(a)
        medium.add_device(b)
        downs = []
        medium.on_link_down(lambda x, y, r: downs.append((x.device_id, y.device_id)))
        medium.start()
        sim.run(until=15.0)
        assert medium.link_between("a", "b") is P2P_WIFI  # raised at 50 m
        # Mid-contact, b's WiFi goes away (user toggles it off): the best
        # common technology now resolves to Bluetooth (10 m).  At 64 m the
        # seed code would compare against 10 * 1.1 and drop the link.
        b.radios = (BLUETOOTH,)
        sim.run(until=60.0)
        assert medium.link_between("a", "b") is P2P_WIFI
        assert downs == []
        # Beyond the raised radio's own margin (66 m) the link does drop.
        sim.run(until=150.0)
        assert medium.link_between("a", "b") is None
        assert downs == [("a", "b")]

    @pytest.mark.parametrize("batched", [True, False])
    def test_asymmetric_radio_sets_link_on_common_radio(self, batched):
        sim, medium = make_world(batched=batched)
        medium.add_device(Device("a", StationaryModel(Point(0, 0)), radios=(BLUETOOTH,)))
        medium.add_device(
            Device("b", StationaryModel(Point(8, 0)), radios=DEFAULT_RADIO_SET)
        )
        medium.start()
        sim.run(until=20.0)
        assert medium.link_between("a", "b") is BLUETOOTH


class TestSpatialIndexCellLeak:
    """The snapshot index's pair sweep against brute force, and its
    per-item reach cutoff."""

    def test_pairs_within_matches_per_item_queries(self):
        index = SpatialHashIndex(cell_size=60.0)
        rng = random.Random(3)
        points = {i: Point(rng.uniform(0, 800), rng.uniform(0, 800)) for i in range(120)}
        index.update_many(points.items())
        radius = 75.0
        swept = {(min(a, b), max(a, b)) for a, b, _ in index.pairs_within(radius)}
        expected = {
            (a, b)
            for a in points
            for b in points
            if a < b and points[a].distance_to(points[b]) <= radius
        }
        assert swept == expected

    def test_pairs_within_per_item_reach(self):
        index = SpatialHashIndex(cell_size=60.0)
        index.update_many(
            [("near", Point(0, 0)), ("far", Point(40, 0)), ("close", Point(5, 0))]
        )
        reach = {"near": 10.0, "far": 100.0, "close": 10.0}
        pairs = {(min(a, b), max(a, b)) for a, b, _ in index.pairs_within(100.0, reach_of=reach)}
        # near-far capped by near's 10 m reach; near-close within both.
        assert pairs == {("close", "near")}


class TestSimulatorHeapCompaction:
    def test_cancelled_timer_churn_keeps_heap_bounded(self):
        """Seed behaviour: lazily-cancelled events stayed in the heap
        until their (possibly far-future) due time — timer-heavy runs
        grew the queue without bound."""
        sim = Simulator(seed=0)
        timer = Timer(sim, lambda: None, name="connection-timeout")
        peak = [0]

        def churn(i):
            timer.start(1e9)  # re-arming cancels the previous event
            peak[0] = max(peak[0], len(sim._heap))
            if i < 5000:
                sim.schedule_in(0.01, churn, i + 1)

        sim.schedule_in(0.0, churn, 0)
        sim.run()
        # 5000 cancelled far-future timeouts would have sat in the seed's
        # heap; compaction keeps the peak bounded by the trigger level.
        assert peak[0] <= Simulator.COMPACT_MIN_CANCELLED * 2 + 8

    def test_compaction_preserves_execution_order(self):
        sim = Simulator(seed=0)
        sim.COMPACT_MIN_CANCELLED = 8  # force aggressive compaction
        fired = []
        keepers = [
            sim.schedule_at(100.0 + i, fired.append, i, name=f"keep-{i}")
            for i in range(20)
        ]
        doomed = [sim.schedule_at(50.0, fired.append, -1) for _ in range(64)]
        for event in doomed:
            event.cancel()
        sim.run()
        assert fired == list(range(20))
        assert all(not k.cancelled for k in keepers)

    def test_cancel_remains_idempotent_with_counter(self):
        sim = Simulator(seed=0)
        event = sim.schedule_in(10.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim._cancelled_in_heap == 1


class TestBubbleEncounterWindow:
    def test_encounter_window_is_deque_and_expires_left(self):
        router = BubbleRapRouting()
        services = FakeServices(user_id=BOB)
        router.attach(services)
        from collections import deque

        assert isinstance(router._encounters, deque)
        services._now = 0.0
        router.on_peer_secured(ALICE)
        services._now = router.WINDOW / 2
        router.on_peer_secured(CAROL)
        assert router.centrality() == 2
        # ALICE's encounter ages out of the window; CAROL's survives.
        services._now = router.WINDOW + 60.0
        router.on_peer_secured("dave")
        assert router.centrality() == 2  # carol + dave
        assert all(t >= services._now - router.WINDOW for t, _ in router._encounters)

    def test_many_encounters_window_stays_small(self):
        router = BubbleRapRouting()
        services = FakeServices(user_id=BOB)
        router.attach(services)
        for i in range(5000):
            services._now = float(i)
            router._note_encounter(f"peer-{i % 7}")
        assert len(router._encounters) <= router.WINDOW + 1


class TestMobilityBatchApi:
    def test_base_class_fallback_loops_position_at(self):
        region = Region(0, 0, 1000, 1000)
        models = [RandomWaypoint(region, random.Random(i)) for i in range(5)]
        control = [RandomWaypoint(region, random.Random(i)) for i in range(5)]
        batch = RandomWaypoint.positions_at(models, 120.0)
        loop = [m.position_at(120.0) for m in control]
        assert batch == loop

    def test_no_model_overrides_the_batch_api(self):
        # The tick calls MobilityModel.positions_at for the whole
        # population, so an override on a subclass would never run.
        for info in pkgutil.iter_modules(repro.mobility.__path__):
            importlib.import_module(f"repro.mobility.{info.name}")
        found, pending = [], list(MobilityModel.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls.__module__.startswith("repro.") and "positions_at" in vars(cls):
                found.append(cls.__qualname__)
        assert found == []


class TestEngineEquivalence:
    def test_batched_and_per_device_traces_identical(self):
        def run(batched):
            sim = Simulator(seed=11)
            medium = make_medium(sim, 30.0, batched)
            region = Region(0, 0, 1500, 1500)
            for i in range(60):
                rng = random.Random(1000 + i)
                mobility = (
                    StationaryModel(region.random_point(rng))
                    if i % 5 == 0
                    else RandomWaypoint(region, rng)
                )
                radios = (DEFAULT_RADIO_SET, (BLUETOOTH,))[i % 2]
                medium.add_device(Device(f"d{i:03d}", mobility, radios=radios))
            medium.start()
            sim.schedule_at(95.0, medium.devices["d001"].power_off)
            sim.schedule_at(215.0, medium.devices["d001"].power_on)
            sim.schedule_at(155.0, medium.remove_device, "d007")
            # A mid-run add: a latecomer parked 5 m from the stationary
            # d000 links, then leaves at t=400 s.  The link only drops
            # if the tick's roster took the latecomer in.
            anchor = medium.devices["d000"].last_position
            latecomer = Device(
                "d_late",
                _Script(
                    [
                        (0.0, Point(anchor.x + 5.0, anchor.y)),
                        (400.0, Point(anchor.x + 500.0, anchor.y)),
                    ]
                ),
            )
            sim.schedule_at(245.0, medium.add_device, latecomer)
            # A radio switched off mid-contact: d000 powers off while its
            # link to the latecomer is up, so the link drops because an
            # end went dark, then comes back once d000 is on again.
            sim.schedule_at(310.0, medium.devices["d000"].power_off)
            sim.schedule_at(335.0, medium.devices["d000"].power_on)
            sim.run(until=600.0)
            medium.stop()
            return [
                (e.time, e.category, e.kind, tuple(sorted(e.data.items())))
                for e in sim.trace
            ]

        batched = run(True)
        reference = run(False)
        assert batched == reference
        assert any(event[1] == "contact" for event in batched)
        latecomer_events = [
            event[:3] for event in batched if "d_late" in dict(event[3]).values()
        ]
        assert latecomer_events == [
            (270.0, "contact", "up"),
            (330.0, "contact", "down"),
            (360.0, "contact", "up"),
            (420.0, "contact", "down"),
        ]

    def test_drifter_links_on_approach(self):
        """A device closing on a stationary one, under a model that
        knows nothing of its own speed, is a candidate out of range at
        t=140 s (65 m: inside the 66 m sweep, beyond the 60 m WiFi range)
        and links on the next tick, under both media."""

        class Drifter(MobilityModel):
            def position_at(self, now):
                return Point(205.0 - now, 0.0)

        def run(batched):
            sim, medium = make_world(batched=batched)
            medium.add_device(Device("a", StationaryModel(Point(0, 0))))
            medium.add_device(Device("b", Drifter()))
            medium.start()
            sim.run(until=250.0)
            assert medium.link_between("a", "b") is P2P_WIFI
            return trace_lines(sim)

        batched = run(True)
        assert batched == run(False)
        assert [line for line in batched if "|contact|" in line] == [
            "150.0|contact|up|[('a', 'a'), ('b', 'b'), ('radio', 'p2p_wifi')]"
        ]

    @pytest.mark.parametrize("batched", [True, False])
    def test_dark_radios_are_not_swept(self, batched):
        """Duty cycling: 20 stationary devices 1 m apart share one index
        cell, but only d00-d02 are on.  The tick sweeps those three alone
        (3 distance checks; sweeping all 20 would be 190).  A link drops
        at the first tick after an end powers off, including when one
        radio is left on with a link up and there is no pair to sweep."""
        sim, medium = make_world(batched=batched)
        for i in range(20):
            medium.add_device(
                Device(f"d{i:02d}", StationaryModel(Point(float(i), 0.0)), powered_on=i < 3)
            )
        medium.start()
        if batched:
            assert medium.distance_checks == 3
        assert medium.active_link_keys() == [("d00", "d01"), ("d00", "d02"), ("d01", "d02")]
        sim.schedule_at(15.0, medium.devices["d01"].power_off)
        sim.schedule_at(25.0, medium.devices["d00"].power_off)
        sim.schedule_at(45.0, medium.devices["d07"].power_on)
        sim.run(until=60.0)
        medium.stop()

        def contact(t, kind, a, b):
            return f"{t!r}|contact|{kind}|[('a', '{a}'), ('b', '{b}'), ('radio', 'p2p_wifi')]"

        assert [line for line in trace_lines(sim) if "|contact|" in line] == [
            contact(0.0, "up", "d00", "d01"),
            contact(0.0, "up", "d00", "d02"),
            contact(0.0, "up", "d01", "d02"),
            # d01 went dark at 15 s: both its links drop on the next tick.
            contact(20.0, "down", "d00", "d01"),
            contact(20.0, "down", "d01", "d02"),
            # d00 went dark at 25 s: d02 is the only radio on, so nothing
            # is swept, but the diff still drops the link.
            contact(30.0, "down", "d00", "d02"),
            contact(50.0, "up", "d02", "d07"),
            contact(60.0, "down", "d02", "d07"),
        ]

    def test_batched_engine_compresses_distance_checks(self):
        def run(batched):
            sim = Simulator(seed=3)
            medium = make_medium(sim, 30.0, batched)
            region = Region(0, 0, 1200, 1200)
            for i in range(80):
                rng = random.Random(500 + i)
                medium.add_device(
                    Device(f"d{i:03d}", RandomWaypoint(region, rng))
                )
            medium.start()
            sim.run(until=300.0)
            return medium

        batched = run(True)
        reference = run(False)
        # The sweep visits each candidate pair once; the per-device path
        # visits every pair from both ends.
        assert batched.distance_checks == 3793
        assert batched.distance_checks < reference.distance_checks
