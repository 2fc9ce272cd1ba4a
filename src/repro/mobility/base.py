"""Mobility model interface.

Models are *pull-driven*: the radio medium ticks at a fixed cadence and
asks each model for its position at the current simulation time via
:meth:`MobilityModel.position_at`.  Calls must be made with non-decreasing
times; models may keep internal waypoint state between calls.

The medium's batched tick advances whole populations at once through the
class-level :meth:`MobilityModel.positions_at` hook: it groups devices by
mobility class and issues one call per class.  The base implementation
just loops :meth:`position_at`; subclasses whose state allows it (e.g.
:class:`StationaryModel`) answer for the whole group without a per-node
Python call.
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
        """Batch API: positions of many models of this class at ``now``.

        The fallback loops :meth:`position_at`; override when a whole
        population can be advanced more cheaply than node-by-node.
        """
        return [model.position_at(now) for model in models]


class StationaryModel(MobilityModel):
    """A node that never moves (infrastructure WiFi hotspots, kiosks)."""

    def __init__(self, position: Point) -> None:
        self._position = position

    def position_at(self, now: float) -> Point:
        return self._position

    @classmethod
    def positions_at(cls, models: Sequence["MobilityModel"], now: float) -> List[Point]:
        if cls.position_at is not StationaryModel.position_at:
            # A subclass overrode the scalar query (jitter, delayed
            # placement, ...): honour it instead of the _position shortcut.
            return [model.position_at(now) for model in models]
        return [model._position for model in models]
