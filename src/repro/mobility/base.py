"""Mobility model interface.

Models are *pull-driven*: the radio medium ticks at a fixed cadence and
asks each model for its position at the current simulation time via
:meth:`MobilityModel.position_at`.  Calls must be made with non-decreasing
times; models may keep internal waypoint state between calls.

The medium's tick advances the whole population at once through the
class-level :meth:`MobilityModel.positions_at` hook: one call per tick on
the base class, with every model in registration order.  It loops
:meth:`position_at`, so a model's behaviour lives there alone; a
subclass that overrode ``positions_at`` would be skipped by the tick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.geo.point import Point


class MobilityModel(ABC):
    """Produces a node's position as a function of simulation time."""

    @abstractmethod
    def position_at(self, now: float) -> Point:
        """Position at time ``now`` (seconds).  ``now`` must not decrease
        across calls."""

    @classmethod
    def positions_at(cls, models: Sequence["MobilityModel"], now: float) -> List[Point]:
        """Batch API: positions of many models, of any classes, at ``now``,
        in the order given."""
        return [model.position_at(now) for model in models]


class StationaryModel(MobilityModel):
    """A node that never moves (infrastructure WiFi hotspots, kiosks)."""

    def __init__(self, position: Point) -> None:
        self._position = position

    def position_at(self, now: float) -> Point:
        return self._position
