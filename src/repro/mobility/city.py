"""Synthetic city layout generator.

Builds a Gainesville-like place layout inside an arbitrary region: one
shared campus (the University of Florida anchors the real study), homes
scattered across residential bands, and a handful of social venues
(cafes, gyms, restaurants) clustered loosely around the campus and
downtown — enough structure for the working-day model to produce the
recurring-meeting contact pattern the paper observed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.geo.places import Place, PlaceKind
from repro.geo.point import Point
from repro.geo.region import Region


@dataclass
class SyntheticCity:
    """A generated city: one campus, N homes, M social venues."""

    region: Region
    campus: Place
    homes: List[Place] = field(default_factory=list)
    social_venues: List[Place] = field(default_factory=list)

    @classmethod
    def gainesville_like(
        cls,
        region: Region,
        rng: random.Random,
        num_homes: int = 10,
        num_venues: int = 6,
        campus_radius: float = 500.0,
    ) -> "SyntheticCity":
        """Generate the study layout.

        The campus sits near the region's centroid; homes are spread over
        the full region (students live all over town, which is what makes
        the area 88 km^2 rather than a campus-sized box); venues cluster
        within a few km of campus/downtown.
        """
        if num_homes < 1:
            raise ValueError("need at least one home")
        center = region.center
        campus = Place(
            name="campus",
            kind=PlaceKind.WORK,
            location=Point(
                center.x + rng.uniform(-0.05, 0.05) * region.width,
                center.y + rng.uniform(-0.05, 0.05) * region.height,
            ),
            radius=campus_radius,
        )
        # Homes avoid the immediate campus core but cover the region, so
        # some corner must lie beyond the core (a NaN side never does).
        core = campus_radius * 1.5
        corners = [Point(x, y) for x in (region.x0, region.x1) for y in (region.y0, region.y1)]
        if not max(c.distance_to(campus.location) for c in corners) > core:
            raise ValueError(f"no room for homes: {region} lies within {core:g} m of the campus")
        homes = []
        for i in range(num_homes):
            while True:
                p = region.random_point(rng)
                if p.distance_to(campus.location) > core:
                    break
            homes.append(Place(name=f"home-{i}", kind=PlaceKind.HOME, location=p, radius=20.0))
        venues = []
        for j in range(num_venues):
            # Venues concentrate around campus (within ~30% of region size).
            p = Point(
                campus.location.x + rng.gauss(0.0, 0.15) * region.width,
                campus.location.y + rng.gauss(0.0, 0.15) * region.height,
            )
            venues.append(
                Place(
                    name=f"venue-{j}",
                    kind=PlaceKind.SOCIAL,
                    location=region.clamp(p),
                    radius=rng.uniform(30.0, 80.0),
                )
            )
        return cls(region=region, campus=campus, homes=homes, social_venues=venues)

    def all_places(self) -> List[Place]:
        return [self.campus] + self.homes + self.social_venues
