"""Tests for mobility models."""

import random

import pytest

from repro.geo.places import PlaceKind
from repro.geo.point import Point
from repro.geo.region import Region
from repro.mobility import (
    DailySchedule,
    RandomWaypoint,
    StationaryModel,
    SyntheticCity,
    WorkingDayMovement,
)

REGION = Region(0, 0, 1000, 1000)
DAY = 86_400.0
HOUR = 3_600.0


class TestStationary:
    def test_never_moves(self):
        model = StationaryModel(Point(5, 5))
        assert model.position_at(0.0) == Point(5, 5)
        assert model.position_at(1e6) == Point(5, 5)


class TestRandomWaypoint:
    def test_stays_in_region(self):
        model = RandomWaypoint(REGION, random.Random(1))
        for t in range(0, 7200, 60):
            assert REGION.contains(model.position_at(float(t)))

    def test_actually_moves(self):
        model = RandomWaypoint(REGION, random.Random(2), pause_range=(0.0, 0.0))
        p0 = model.position_at(0.0)
        p1 = model.position_at(3600.0)
        assert p0.distance_to(p1) > 0

    def test_speed_bound_respected(self):
        model = RandomWaypoint(REGION, random.Random(3), speed_range=(1.0, 2.0), pause_range=(0.0, 0.0))
        last = model.position_at(0.0)
        for t in range(10, 600, 10):
            current = model.position_at(float(t))
            assert last.distance_to(current) <= 2.0 * 10 + 1e-6
            last = current

    def test_time_going_backwards_raises(self):
        model = RandomWaypoint(REGION, random.Random(4))
        model.position_at(100.0)
        with pytest.raises(ValueError):
            model.position_at(50.0)

    def test_query_same_time_is_stable(self):
        model = RandomWaypoint(REGION, random.Random(5))
        assert model.position_at(60.0) == model.position_at(60.0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypoint(REGION, random.Random(1), speed_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypoint(REGION, random.Random(1), pause_range=(5.0, 1.0))

    def test_determinism(self):
        a = RandomWaypoint(REGION, random.Random(6))
        b = RandomWaypoint(REGION, random.Random(6))
        for t in (60.0, 120.0, 3600.0):
            assert a.position_at(t) == b.position_at(t)


def _make_schedule(rng=None, **overrides):
    city_rng = rng or random.Random(10)
    region = Region(0, 0, 11000, 8000)
    city = SyntheticCity.gainesville_like(region, city_rng, num_homes=3)
    defaults = dict(
        home=city.homes[0], work=city.campus, social_places=city.social_venues
    )
    defaults.update(overrides)
    return DailySchedule(**defaults), city


class TestWorkingDay:
    def test_night_time_is_at_home(self):
        schedule, _ = _make_schedule()
        model = WorkingDayMovement(schedule, random.Random(11))
        for day in range(3):
            # 3 AM: everyone is asleep at home.
            p = model.position_at(day * DAY + 3 * HOUR)
            assert p.distance_to(schedule.home.location) <= schedule.home.radius + 1.0

    def test_weekday_reaches_campus(self):
        schedule, _ = _make_schedule(weekday_attendance=1.0, weekday_social_prob=0.0)
        model = WorkingDayMovement(schedule, random.Random(12))
        on_campus = 0
        for hour in range(9, 18):
            p = model.position_at(hour * HOUR)
            if p.distance_to(schedule.work.location) <= schedule.work.radius + 1.0:
                on_campus += 1
        assert on_campus >= 2

    def test_sleep_stationarity_5_to_8_hours(self):
        """Paper §VI-B: nodes stationary at least 5-8 h/day (sleep)."""
        schedule, _ = _make_schedule()
        model = WorkingDayMovement(schedule, random.Random(13))
        for day in range(5):
            assert model.stationary_hours_in_day(day) >= 5.0

    def test_appointment_is_honoured(self):
        schedule, city = _make_schedule(weekday_attendance=0.0, weekend_outing_prob=0.0)
        model = WorkingDayMovement(schedule, random.Random(14))
        venue = city.social_venues[0]
        start = 13 * HOUR
        model.add_appointment(start, venue, 2 * HOUR)
        p = model.position_at(start + HOUR)
        assert p.distance_to(venue.location) <= venue.radius + 1.0
        # Back home by night.
        p_night = model.position_at(23.5 * HOUR)
        assert p_night.distance_to(schedule.home.location) <= schedule.home.radius + 1.0

    def test_appointment_after_generation_rejected(self):
        schedule, city = _make_schedule()
        model = WorkingDayMovement(schedule, random.Random(15))
        model.position_at(1.0)  # generates day 0
        with pytest.raises(ValueError):
            model.add_appointment(2 * HOUR, city.social_venues[0], HOUR)

    def test_two_participants_meet_at_shared_appointment(self):
        rng = random.Random(16)
        schedule_a, city = _make_schedule(rng=rng, weekday_attendance=0.0, weekend_outing_prob=0.0)
        schedule_b = DailySchedule(
            home=city.homes[1], work=city.campus, social_places=city.social_venues,
            weekday_attendance=0.0, weekend_outing_prob=0.0,
        )
        a = WorkingDayMovement(schedule_a, random.Random(17))
        b = WorkingDayMovement(schedule_b, random.Random(18))
        venue = city.social_venues[0]
        for model in (a, b):
            model.add_appointment(12 * HOUR, venue, 2 * HOUR)
        # Mid-meetup, both are within the venue: distance bounded by its
        # diameter, i.e. within radio range of each other.
        pa = a.position_at(13 * HOUR)
        pb = b.position_at(13 * HOUR)
        assert pa.distance_to(pb) <= 2 * venue.radius + 2.0

    def test_current_place_reports_stay(self):
        schedule, _ = _make_schedule()
        model = WorkingDayMovement(schedule, random.Random(19))
        assert model.current_place(3 * HOUR) is schedule.home


class TestSyntheticCity:
    def test_layout_counts(self):
        region = Region(0, 0, 11000, 8000)
        city = SyntheticCity.gainesville_like(region, random.Random(20), num_homes=10, num_venues=6)
        assert len(city.homes) == 10
        assert len(city.social_venues) == 6
        assert len(city.all_places()) == 17

    def test_homes_avoid_campus_core(self):
        region = Region(0, 0, 11000, 8000)
        city = SyntheticCity.gainesville_like(region, random.Random(21), campus_radius=400)
        for home in city.homes:
            assert home.location.distance_to(city.campus.location) > 400 * 1.5

    @pytest.mark.parametrize("side", [500.0], ids=["small"])
    def test_region_inside_the_campus_core_rejected(self, side):
        # No point lies beyond 1.5 campus radii of the campus, so home
        # placement has nowhere to go.  (Region itself rejects a NaN
        # side: tests/test_geo.py.)
        with pytest.raises(ValueError, match="no room for homes"):
            SyntheticCity.gainesville_like(Region(0, 0, side, 500.0), random.Random(24))

    def test_all_places_inside_region(self):
        region = Region(0, 0, 11000, 8000)
        city = SyntheticCity.gainesville_like(region, random.Random(22))
        for place in city.all_places():
            assert region.contains(place.location)

    def test_kinds(self):
        region = Region(0, 0, 11000, 8000)
        city = SyntheticCity.gainesville_like(region, random.Random(23))
        assert city.campus.kind is PlaceKind.WORK
        assert all(h.kind is PlaceKind.HOME for h in city.homes)
        assert all(v.kind is PlaceKind.SOCIAL for v in city.social_venues)
