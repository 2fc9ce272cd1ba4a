"""Random waypoint mobility (the standard DTN simulation baseline).

A node repeatedly: picks a uniform destination in the region, travels to
it in a straight line at a uniform-random speed, pauses, repeats.  Used by
the ablation benches to contrast the paper's realistic conditions with the
"50 to 100 nodes in 0.25-4 km^2" settings §VI criticises.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.geo.point import Point
from repro.geo.region import Region
from repro.mobility.base import MobilityModel


class RandomWaypoint(MobilityModel):
    """Classic random-waypoint movement as a two-state machine
    (paused-at-waypoint / moving-to-waypoint) advanced lazily on query.

    Parameters
    ----------
    region:
        The movement area.
    rng:
        Random stream (one per node for independence).
    speed_range:
        Uniform speed bounds in m/s; default spans walking to cycling.
    pause_range:
        Uniform pause bounds at each waypoint, in seconds.
    start:
        Initial position (uniform random when omitted).
    """

    def __init__(
        self,
        region: Region,
        rng: random.Random,
        speed_range: Tuple[float, float] = (0.8, 4.0),
        pause_range: Tuple[float, float] = (0.0, 300.0),
        start: Optional[Point] = None,
    ) -> None:
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ValueError(f"invalid speed range {speed_range!r}")
        if pause_range[0] < 0 or pause_range[1] < pause_range[0]:
            raise ValueError(f"invalid pause range {pause_range!r}")
        self.region = region
        self._rng = rng
        self.speed_range = speed_range
        self.pause_range = pause_range
        self._position = start if start is not None else region.random_point(rng)
        self._time = 0.0
        # State: either paused until _pause_end, or moving to _target.
        self._pause_end: Optional[float] = 0.0  # start by immediately picking a leg
        self._target: Optional[Point] = None
        self._speed = 1.0

    def _begin_move(self) -> None:
        self._target = self.region.random_point(self._rng)
        self._speed = self._rng.uniform(*self.speed_range)
        self._pause_end = None

    def _begin_pause(self) -> None:
        self._pause_end = self._time + self._rng.uniform(*self.pause_range)
        self._target = None

    def position_at(self, now: float) -> Point:
        if now < self._time:
            raise ValueError(f"time moved backwards: {now} < {self._time}")
        while self._time < now:
            if self._pause_end is not None:
                if self._pause_end >= now:
                    self._time = now
                    break
                self._time = self._pause_end
                self._begin_move()
            else:
                travel_time = self._position.distance_to(self._target) / self._speed
                arrival = self._time + travel_time
                if arrival > now:
                    self._position = self._position.moved_towards(
                        self._target, (now - self._time) * self._speed
                    )
                    self._time = now
                    break
                self._position = self._target
                self._time = arrival
                self._begin_pause()
        return self._position
