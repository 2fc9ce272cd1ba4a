"""Spatial overlay — Fig. 4b.

The paper's map shows "where users created messages (blue) and passed
messages (red)" over the ~11 km x 8 km study area.  We reproduce the
overlay as point sets plus grid-cell occupancy statistics (coverage area,
creation/dissemination centroids, hot cells) — the quantities a text
harness can assert on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.geo.point import Point
from repro.geo.region import Region


@dataclass(frozen=True)
class SpatialEvent:
    """A message event pinned to a map location."""

    kind: str  # "created" (blue) | "disseminated" (red)
    time: float
    position: Point
    user: str


class MapOverlay:
    """Accumulates spatial events and derives Fig. 4b statistics."""

    CREATED = "created"
    DISSEMINATED = "disseminated"

    def __init__(self, region: Region, cell_size: float = 500.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.region = region
        self.cell_size = float(cell_size)
        self.events: List[SpatialEvent] = []

    def add(self, kind: str, time: float, position: Point, user: str) -> None:
        if kind not in (self.CREATED, self.DISSEMINATED):
            raise ValueError(f"unknown spatial event kind {kind!r}")
        self.events.append(SpatialEvent(kind=kind, time=time, position=position, user=user))

    # -- views ---------------------------------------------------------------------
    def points(self, kind: str) -> List[Point]:
        return [e.position for e in self.events if e.kind == kind]

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (int(math.floor(p.x / self.cell_size)), int(math.floor(p.y / self.cell_size)))

    def occupied_cells(self, kind: str) -> Dict[Tuple[int, int], int]:
        return dict(Counter(self._cell_of(p) for p in self.points(kind)))

    def coverage_km2(self, kind: str) -> float:
        """Area of grid cells touched by events of this kind."""
        return len(self.occupied_cells(kind)) * (self.cell_size ** 2) / 1e6

    def centroid(self, kind: str) -> Point:
        pts = self.points(kind)
        if not pts:
            raise ValueError(f"no {kind!r} events recorded")
        return Point(sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts))

    def hot_cells(self, kind: str, top: int = 5) -> List[Tuple[Tuple[int, int], int]]:
        cells = self.occupied_cells(kind)
        return sorted(cells.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    def ascii_map(self, width: int = 44, height: int = 32) -> str:
        """A terminal rendering of Fig. 4b: '.' empty, 'b' creation,
        'r' dissemination, 'x' both in the same cell."""
        created = set()
        disseminated = set()
        for event in self.events:
            gx = int((event.position.x - self.region.x0) / self.region.width * (width - 1))
            gy = int((event.position.y - self.region.y0) / self.region.height * (height - 1))
            gx = min(max(gx, 0), width - 1)
            gy = min(max(gy, 0), height - 1)
            (created if event.kind == self.CREATED else disseminated).add((gx, gy))
        rows = []
        for gy in range(height - 1, -1, -1):
            row = []
            for gx in range(width):
                cell = (gx, gy)
                if cell in created and cell in disseminated:
                    row.append("x")
                elif cell in created:
                    row.append("b")
                elif cell in disseminated:
                    row.append("r")
                else:
                    row.append(".")
            rows.append("".join(row))
        return "\n".join(rows)
