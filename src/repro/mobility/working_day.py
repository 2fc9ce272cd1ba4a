"""Working-day mobility: the model behind the Gainesville reproduction.

The ten field-study participants were students: they slept at home
(stationary "at least 5-8 hours a day", §VI-B), spent weekdays on a shared
campus, and sometimes met at social venues.  This model generates exactly
that structure, one agenda per simulated day:

* wake at home (~06:45 with per-day jitter),
* weekdays: leave for the work/campus place in a staggered class-time
  window, optional lunch outing, stay a class or two,
* optional evening social-venue visit (probability differs weekday vs
  weekend),
* return home and sleep until the next wake.

While "at" a venue the node wanders slowly inside the venue footprint, so
co-located users drift in and out of Bluetooth range instead of being
pinned at one coordinate — that intermittency is what makes short-range
D2D contacts bursty in the real deployment.

Movement between places is a straight line at walking speed, or driving
speed beyond a threshold distance (students cross an 88 km^2 city by car
or bus, not on foot).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.geo.places import Place
from repro.geo.point import Point
from repro.mobility.base import MobilityModel

_DAY = 86_400.0
_HOUR = 3_600.0


@dataclass
class DailySchedule:
    """Per-user schedule parameters (times in hours-of-day).

    Defaults are calibrated so that the emergent contact pattern matches
    the paper's published delay/delivery shape: most deliveries within one
    hop at recurring campus meetings, a long tail of 2-4 day delays from
    users who skip campus some days.
    """

    home: Place
    work: Place
    social_places: List[Place] = field(default_factory=list)
    wake_hour: float = 6.75
    wake_jitter: float = 0.75
    #: Campus visits start uniformly in this hour-of-day window (staggered
    #: class times), but never before wake.
    depart_window_hours: Tuple[float, float] = (8.5, 14.0)
    #: The campus stay lasts uniform(lo, hi) hours (students attend a
    #: class or two, not a nine-to-five shift).
    work_stay_hours: Tuple[float, float] = (2.0, 5.0)
    lunch_probability: float = 0.45
    weekday_attendance: float = 0.5  # probability a weekday includes campus
    weekday_social_prob: float = 0.40
    weekend_outing_prob: float = 0.55
    social_visit_hours: Tuple[float, float] = (1.0, 3.0)
    bedtime_hour: float = 23.0
    bedtime_jitter: float = 1.0
    walk_speed: Tuple[float, float] = (1.1, 1.6)
    drive_speed: Tuple[float, float] = (7.0, 13.0)
    drive_threshold: float = 1_500.0

    def speed_for(self, dist: float, rng: random.Random) -> float:
        """Travel speed for a leg of ``dist`` metres."""
        if dist > self.drive_threshold:
            return rng.uniform(*self.drive_speed)
        return rng.uniform(*self.walk_speed)


@dataclass
class _Segment:
    """One contiguous piece of a node's day."""

    start: float
    end: float
    kind: str  # "stay" | "move"
    place: Optional[Place] = None
    from_point: Optional[Point] = None
    to_point: Optional[Point] = None


class _VenueWander:
    """Slow random waypoint inside one venue disc."""

    def __init__(self, place: Place, rng: random.Random, start: Point, start_time: float) -> None:
        self._place = place
        self._rng = rng
        self._position = start
        self._time = start_time
        self._target = start
        self._speed = 1.0
        self._pause_end: Optional[float] = start_time

    def position_at(self, now: float) -> Point:
        while self._time < now:
            if self._pause_end is not None:
                if self._pause_end >= now:
                    self._time = now
                    break
                self._time = self._pause_end
                self._target = self._place.jittered_position(self._rng)
                self._speed = self._rng.uniform(0.4, 1.2)
                self._pause_end = None
            else:
                d = self._position.distance_to(self._target)
                arrival = self._time + (d / self._speed if d else 0.0)
                if d and arrival > now:
                    self._position = self._position.moved_towards(
                        self._target, (now - self._time) * self._speed
                    )
                    self._time = now
                    break
                self._position = self._target
                self._time = arrival if d else self._time
                # Dwell at the spot for 2-15 minutes before drifting again.
                self._pause_end = self._time + self._rng.uniform(120.0, 900.0)
        return self._position


class WorkingDayMovement(MobilityModel):
    """Agenda-driven daily mobility between home, campus and venues."""

    def __init__(self, schedule: DailySchedule, rng: random.Random) -> None:
        self.schedule = schedule
        self._rng = rng
        self._segments: List[_Segment] = []
        self._generated_days = 0
        self._seg_idx = 0
        self._position = schedule.home.jittered_position(rng)
        self._wander: Optional[_VenueWander] = None
        self._wander_seg: int = -1
        #: day -> [(start, place, duration_s)] externally arranged meetings.
        self._appointments: dict = {}

    def add_appointment(self, start: float, place: Place, duration: float) -> None:
        """Arrange a coordinated visit (a meetup with friends).

        Appointments must be added before the day's agenda is generated —
        i.e. before any position query at or past that day.  The node
        travels to ``place`` at ``start``, stays ``duration`` seconds,
        then returns home (unless its regular agenda takes over first).
        """
        day = int(start // _DAY)
        if day < self._generated_days:
            raise ValueError(
                f"day {day} agenda already generated; appointments must be "
                "arranged in advance"
            )
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self._appointments.setdefault(day, []).append((start, place, duration))

    # -- agenda generation ----------------------------------------------------
    def _is_weekday(self, day: int) -> bool:
        """Days 0-4 of each week are weekdays (study started on a Monday)."""
        return day % 7 < 5

    def _generate_day(self, day: int) -> None:
        """Append the (departure_time, place) agenda for ``day`` as segments."""
        s = self.schedule
        rng = self._rng
        t0 = day * _DAY
        wake = t0 + (s.wake_hour + rng.uniform(-s.wake_jitter, s.wake_jitter)) * _HOUR
        departures: List[Tuple[float, Place]] = []

        if self._is_weekday(day) and rng.random() < s.weekday_attendance:
            leave_home = max(wake, t0 + rng.uniform(*s.depart_window_hours) * _HOUR)
            departures.append((leave_home, s.work))
            leave_work = leave_home + rng.uniform(*s.work_stay_hours) * _HOUR
            if s.social_places and rng.random() < s.lunch_probability:
                lunch_out = t0 + rng.uniform(11.5, 13.0) * _HOUR
                lunch_back = lunch_out + rng.uniform(0.5, 1.2) * _HOUR
                if lunch_out > leave_home and lunch_back < leave_work:
                    departures.append((lunch_out, rng.choice(s.social_places)))
                    departures.append((lunch_back, s.work))
            if s.social_places and rng.random() < s.weekday_social_prob:
                venue = rng.choice(s.social_places)
                departures.append((leave_work, venue))
                visit = rng.uniform(*s.social_visit_hours) * _HOUR
                departures.append((leave_work + visit, s.home))
            else:
                departures.append((leave_work, s.home))
        else:
            # Weekend / skipped day: maybe one outing, otherwise home all day.
            if s.social_places and rng.random() < s.weekend_outing_prob:
                out = t0 + rng.uniform(10.0, 16.0) * _HOUR
                back = out + rng.uniform(*s.social_visit_hours) * _HOUR
                departures.append((out, rng.choice(s.social_places)))
                departures.append((back, s.home))

        appointments = self._appointments.pop(day, ())
        if appointments:
            # Arranged meetings take precedence: drop regular departures
            # that would pull the node away mid-appointment (including the
            # travel lead-in).
            def _conflicts(when: float) -> bool:
                return any(
                    start - 1800.0 <= when <= start + duration
                    for start, _, duration in appointments
                )

            departures = [d for d in departures if not _conflicts(d[0])]
            for start, place, duration in appointments:
                departures.append((start, place))
                departures.append((start + duration, s.home))

        departures.sort(key=lambda item: item[0])
        self._append_segments(t0 + _DAY, departures)
        self._generated_days = day + 1

    def _append_segments(self, day_end: float, departures: List[Tuple[float, Place]]) -> None:
        """Convert a departure agenda into contiguous stay/move segments."""
        s = self.schedule
        # Where the previous segment left the node (home, at day start).
        if self._segments:
            cursor_time = self._segments[-1].end
            current_place = self._segments[-1].place or s.home
            current_point = self._segments[-1].to_point or self._segments[-1].place.location
        else:
            cursor_time = 0.0
            current_place = s.home
            current_point = self._position

        for depart, target in departures:
            depart = max(depart, cursor_time)
            if depart > cursor_time:
                self._segments.append(
                    _Segment(start=cursor_time, end=depart, kind="stay", place=current_place)
                )
            target_point = target.jittered_position(self._rng)
            dist = current_point.distance_to(target_point)
            speed = s.speed_for(dist, self._rng)
            arrival = depart + (dist / speed if speed > 0 else 0.0)
            self._segments.append(
                _Segment(
                    start=depart,
                    end=arrival,
                    kind="move",
                    place=target,
                    from_point=current_point,
                    to_point=target_point,
                )
            )
            cursor_time = arrival
            current_place = target
            current_point = target_point

        # Sleep/idle at the final place until the end of the day.
        if cursor_time < day_end:
            self._segments.append(
                _Segment(start=cursor_time, end=day_end, kind="stay", place=current_place)
            )

    def _ensure_time_covered(self, now: float) -> None:
        while not self._segments or self._segments[-1].end <= now:
            self._generate_day(self._generated_days)

    # -- querying ----------------------------------------------------------------
    def position_at(self, now: float) -> Point:
        self._ensure_time_covered(now)
        while self._seg_idx < len(self._segments) - 1 and self._segments[self._seg_idx].end <= now:
            self._seg_idx += 1
        seg = self._segments[self._seg_idx]
        if seg.kind == "move":
            span = seg.end - seg.start
            frac = 0.0 if span <= 0 else min(1.0, max(0.0, (now - seg.start) / span))
            self._position = Point(
                seg.from_point.x + (seg.to_point.x - seg.from_point.x) * frac,
                seg.from_point.y + (seg.to_point.y - seg.from_point.y) * frac,
            )
            self._wander = None
            self._wander_seg = -1
        else:
            if self._wander_seg != self._seg_idx:
                anchor = self._position
                # Keep the wander inside the venue: snap the anchor to it.
                if anchor.distance_to(seg.place.location) > seg.place.radius:
                    anchor = seg.place.jittered_position(self._rng)
                self._wander = _VenueWander(seg.place, self._rng, anchor, max(seg.start, 0.0))
                self._wander_seg = self._seg_idx
            self._position = self._wander.position_at(now)
        return self._position

    # -- introspection (used by tests and the Fig. 4b bench) ---------------------
    def current_place(self, now: float) -> Optional[Place]:
        """The venue occupied at ``now`` (None while travelling)."""
        self._ensure_time_covered(now)
        idx = self._seg_idx
        while idx < len(self._segments) - 1 and self._segments[idx].end <= now:
            idx += 1
        seg = self._segments[idx]
        return seg.place if seg.kind == "stay" else None

    def stationary_hours_in_day(self, day: int) -> float:
        """Hours spent in 'stay' segments at home during ``day`` — used to
        verify the paper's 5-8 h/day sleep-stationarity claim."""
        self._ensure_time_covered((day + 1) * _DAY)
        t0, t1 = day * _DAY, (day + 1) * _DAY
        total = 0.0
        for seg in self._segments:
            if seg.kind != "stay" or seg.place is not self.schedule.home:
                continue
            lo = max(seg.start, t0)
            hi = min(seg.end, t1)
            if hi > lo:
                total += hi - lo
        return total / _HOUR
