"""Points and basic metric operations (units: metres)."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """An immutable point in the planar city coordinate system."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def moved_towards(self, target: "Point", amount: float) -> "Point":
        """The point ``amount`` metres from ``self`` along the segment to
        ``target`` (clamped at ``target``)."""
        d = self.distance_to(target)
        if d == 0.0 or amount >= d:
            return target
        f = amount / d
        return Point(self.x + (target.x - self.x) * f, self.y + (target.y - self.y) * f)

    def offset(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def __str__(self) -> str:
        return f"({self.x:.1f}m, {self.y:.1f}m)"


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points, in metres."""
    return a.distance_to(b)


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
