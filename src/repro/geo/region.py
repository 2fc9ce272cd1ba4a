"""Axis-aligned rectangular regions."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.geo.point import Point


@dataclass(frozen=True)
class Region:
    """A rectangle ``[x0, x1] x [y0, y1]`` in metres.

    The Gainesville study area is ``Region(0, 0, 11_000, 8_000)``.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        finite = all(math.isfinite(b) for b in (self.x0, self.y0, self.x1, self.y1))
        # Test for the good case: NaN compares false both ways.
        if not (finite and self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate region {self!r}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Area in square metres."""
        return self.width * self.height

    @property
    def area_km2(self) -> float:
        """Area in square kilometres (the paper quotes 88 km^2)."""
        return self.area / 1e6

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, p: Point) -> bool:
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

    def clamp(self, p: Point) -> Point:
        """Project ``p`` onto the region."""
        return Point(
            min(max(p.x, self.x0), self.x1),
            min(max(p.y, self.y0), self.y1),
        )

    def random_point(self, rng: random.Random) -> Point:
        return Point(rng.uniform(self.x0, self.x1), rng.uniform(self.y0, self.y1))

    def subregion(self, fx0: float, fy0: float, fx1: float, fy1: float) -> "Region":
        """Fractional sub-rectangle, e.g. ``subregion(0, 0, .5, .5)`` is the
        lower-left quadrant."""
        return Region(
            self.x0 + fx0 * self.width,
            self.y0 + fy0 * self.height,
            self.x0 + fx1 * self.width,
            self.y0 + fy1 * self.height,
        )


#: The paper's deployment area: ~11 km x 8 km of Gainesville, FL (88 km^2).
GAINESVILLE_AREA = Region(0.0, 0.0, 11_000.0, 8_000.0)
