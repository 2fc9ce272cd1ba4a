"""Levy-walk mobility.

Human displacement statistics are heavy-tailed: many short hops, rare long
excursions (Rhee et al., "On the Levy-walk nature of human mobility").  The
model draws step lengths from a truncated Pareto distribution and pause
times from a bounded uniform, giving super-diffusive movement that stresses
DTN routing differently from random waypoint.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.geo.point import Point
from repro.geo.region import Region
from repro.mobility.base import MobilityModel


class LevyWalk(MobilityModel):
    """Truncated-Pareto step-length walk within a bounded region.

    Parameters
    ----------
    alpha:
        Pareto tail exponent; smaller -> heavier tail -> longer flights.
    min_step / max_step:
        Truncation bounds on flight length, in metres.
    """

    def __init__(
        self,
        region: Region,
        rng: random.Random,
        alpha: float = 1.6,
        min_step: float = 10.0,
        max_step: float = 5_000.0,
        speed_range: Tuple[float, float] = (0.8, 3.0),
        pause_range: Tuple[float, float] = (0.0, 600.0),
        start: Optional[Point] = None,
    ) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0 < min_step <= max_step:
            raise ValueError(f"invalid step bounds [{min_step}, {max_step}]")
        self.region = region
        self._rng = rng
        self.alpha = alpha
        self.min_step = min_step
        self.max_step = max_step
        self.speed_range = speed_range
        self.pause_range = pause_range
        self._position = start if start is not None else region.random_point(rng)
        self._time = 0.0
        self._pause_end: Optional[float] = 0.0
        self._target: Optional[Point] = None
        self._speed = 1.0

    def _draw_step_length(self) -> float:
        """Inverse-CDF sample from a Pareto truncated to [min, max]."""
        u = self._rng.random()
        a = self.alpha
        lo, hi = self.min_step, self.max_step
        # CDF of truncated Pareto: (lo^-a - x^-a) / (lo^-a - hi^-a)
        lo_a = lo ** (-a)
        hi_a = hi ** (-a)
        return (lo_a - u * (lo_a - hi_a)) ** (-1.0 / a)

    def _begin_move(self) -> None:
        length = self._draw_step_length()
        angle = self._rng.uniform(0.0, 2.0 * math.pi)
        raw = self._position.offset(length * math.cos(angle), length * math.sin(angle))
        self._target = self.region.clamp(raw)
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
                d = self._position.distance_to(self._target)
                if d == 0.0:
                    self._begin_pause()
                    continue
                arrival = self._time + d / self._speed
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
