"""Tests for geometry: points, regions, spatial index, places."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import Place, PlaceKind, Point, Region, SpatialHashIndex, distance, midpoint
from repro.geo.region import GAINESVILLE_AREA
from repro.geo.spatial_index import _NUMPY_SWEEP_MIN
from tests.medium_oracle import PerItemGrid

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    @given(coords, coords, coords, coords)
    @settings(max_examples=100)
    def test_distance_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert distance(a, b) == pytest.approx(distance(b, a))

    def test_moved_towards_partial(self):
        p = Point(0, 0).moved_towards(Point(10, 0), 4)
        assert p == Point(4, 0)

    def test_moved_towards_clamps_at_target(self):
        assert Point(0, 0).moved_towards(Point(1, 0), 100) == Point(1, 0)

    def test_moved_towards_zero_distance(self):
        assert Point(2, 2).moved_towards(Point(2, 2), 5) == Point(2, 2)

    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(4, 6)) == Point(2, 3)


class TestRegion:
    def test_gainesville_area_matches_paper(self):
        assert GAINESVILLE_AREA.width == 11_000
        assert GAINESVILLE_AREA.height == 8_000
        assert GAINESVILLE_AREA.area_km2 == pytest.approx(88.0)

    def test_contains(self):
        r = Region(0, 0, 10, 10)
        assert r.contains(Point(5, 5))
        assert r.contains(Point(0, 0))
        assert not r.contains(Point(11, 5))

    def test_clamp(self):
        r = Region(0, 0, 10, 10)
        assert r.clamp(Point(-5, 20)) == Point(0, 10)
        assert r.clamp(Point(5, 5)) == Point(5, 5)

    def test_random_point_inside(self):
        r = Region(0, 0, 100, 50)
        rng = random.Random(1)
        for _ in range(100):
            assert r.contains(r.random_point(rng))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Region(0, 0, 0, 10)

    @pytest.mark.parametrize(
        "bounds",
        [
            (0, 0, float("nan"), 500),
            (float("nan"), 0, 500, 500),
            (0, float("nan"), 500, 500),
            (0, 0, 500, float("nan")),
            (0, 0, float("inf"), 500),
            (float("-inf"), 0, 500, 500),
            (0, 0, 500, float("inf")),
            (0, float("-inf"), 500, 500),
        ],
        ids=["nan-x1", "nan-x0", "nan-y0", "nan-y1", "inf-x1", "-inf-x0", "inf-y1", "-inf-y0"],
    )
    def test_non_finite_bounds_rejected(self, bounds):
        """NaN compares false both ways, so ``x1 <= x0`` alone let it
        through and ``random_point`` then drew NaN coordinates.  The
        ``nan-x1`` case is the NaN study area that used to reach
        ``SyntheticCity.gainesville_like`` and fail there as "no room for
        homes"."""
        with pytest.raises(ValueError, match="degenerate region"):
            Region(*bounds)

    def test_subregion(self):
        r = Region(0, 0, 100, 100)
        q = r.subregion(0, 0, 0.5, 0.5)
        assert (q.x1, q.y1) == (50, 50)

    def test_center(self):
        assert Region(0, 0, 10, 20).center == Point(5, 10)


class TestSpatialHashIndex:
    """The per-item radius query of the seed index, which lives on in
    the per-device oracle's grid, and the snapshot index's validation."""

    def test_within_radius(self):
        index = PerItemGrid(cell_size=10)
        index.update("a", Point(0, 0))
        index.update("b", Point(5, 0))
        index.update("c", Point(50, 50))
        assert sorted(index.within(Point(0, 0), 10)) == ["a", "b"]

    def test_exclude(self):
        index = PerItemGrid(cell_size=10)
        index.update("a", Point(0, 0))
        index.update("b", Point(1, 0))
        assert index.within(Point(0, 0), 10, exclude="a") == ["b"]

    def test_matches_brute_force(self):
        rng = random.Random(7)
        index = PerItemGrid(cell_size=37.0)
        points = {}
        for i in range(200):
            p = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            points[i] = p
            index.update(i, p)
        for _ in range(20):
            center = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
            radius = rng.uniform(10, 300)
            expected = sorted(
                i for i, p in points.items() if p.distance_to(center) <= radius
            )
            assert sorted(index.within(center, radius)) == expected

    def test_boundary_inclusive(self):
        index = PerItemGrid(cell_size=10)
        index.update("edge", Point(10, 0))
        assert index.within(Point(0, 0), 10) == ["edge"]

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            SpatialHashIndex(cell_size=0)


def _brute_force_pairs(points, radius, reach_of=None):
    """All unordered pairs within radius (and within min mutual reach)."""
    expected = set()
    ids = sorted(points)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            limit = radius if reach_of is None else min(reach_of[a], reach_of[b])
            if points[a].distance_to(points[b]) <= limit:
                expected.add((a, b) if a <= b else (b, a))
    return expected


class TestSpatialIndexBoundaries:
    """Edge geometry the pair sweep leans on: items exactly on cell
    boundaries, sweep radius equal to the cell size, and each
    ``update_many`` replacing the whole snapshot."""

    def test_pairs_on_exact_cell_edges(self):
        # Items sitting exactly on cell corners land in the cell whose
        # index is floor(x / size); the sweep must still see every pair
        # exactly once, wherever the pair straddles a boundary.
        size = 10.0
        index = SpatialHashIndex(cell_size=size)
        points = {
            "corner00": Point(0.0, 0.0),
            "corner10": Point(10.0, 0.0),
            "corner01": Point(0.0, 10.0),
            "corner11": Point(10.0, 10.0),
            "negedge": Point(-10.0, 0.0),
            "inside": Point(5.0, 5.0),
        }
        index.update_many(points.items())
        radius = 10.0
        got = [(a, b) if a <= b else (b, a) for a, b, _ in index.pairs_within(radius)]
        assert len(got) == len(set(got)), "pair emitted twice"
        assert set(got) == _brute_force_pairs(points, radius)

    def test_radius_equal_to_cell_size_lattice(self):
        # radius == cell_size is the tightest legal half-neighbourhood
        # sweep; a full lattice of exact corner points exercises every
        # (dx, dy) offset including the boundary-inclusive distance.
        size = 7.0
        index = SpatialHashIndex(cell_size=size)
        points = {}
        for gx in range(-3, 4):
            for gy in range(-3, 4):
                item = f"n{gx}_{gy}"
                points[item] = Point(gx * size, gy * size)
        index.update_many(points.items())
        got = [(a, b) if a <= b else (b, a) for a, b, _ in index.pairs_within(size)]
        assert len(got) == len(set(got))
        assert set(got) == _brute_force_pairs(points, size)

    def test_numpy_sweep_agrees_on_exact_edges(self):
        # Population over the vectorised-path threshold, all on exact
        # cell corners: the numpy sweep must produce the identical pair
        # set and identical float64 d2 values as the Python path.
        size = 10.0
        big = SpatialHashIndex(cell_size=size)
        points = {}
        for gx in range(14):
            for gy in range(14):
                item = f"n{gx:02d}_{gy:02d}"
                points[item] = Point(gx * size, gy * size)
        assert len(points) >= _NUMPY_SWEEP_MIN
        big.update_many(points.items())
        got = sorted(
            ((a, b) if a <= b else (b, a), d2)
            for a, b, d2 in big.pairs_within(size)
        )
        expected_pairs = _brute_force_pairs(points, size)
        assert {pair for pair, _ in got} == expected_pairs
        for (a, b), d2 in got:
            dx = points[a].x - points[b].x
            dy = points[a].y - points[b].y
            assert d2 == dx * dx + dy * dy  # bit-identical, not approx

    def test_reach_of_on_threshold_boundary(self):
        # A pair exactly at min(reach_a, reach_b) is in; epsilon beyond
        # is out.  This is the arithmetic the tick and its per-device
        # oracle must share.
        index = SpatialHashIndex(cell_size=50)
        index.update_many([("a", Point(0, 0)), ("b", Point(30.0, 0))])
        reach = {"a": 30.0, "b": 100.0}
        # Within-pair order is documented as "no particular order":
        # normalise it.
        assert [
            (a, b) if a <= b else (b, a)
            for a, b, _ in index.pairs_within(100.0, reach_of=reach)
        ] == [("a", "b")]
        reach["a"] = math.nextafter(30.0, 0.0)
        assert index.pairs_within(100.0, reach_of=reach) == []

    def test_update_many_replaces_the_snapshot(self):
        # Each update_many is a whole tick's population: items of the
        # previous snapshot are gone, so they can no longer pair.
        index = SpatialHashIndex(cell_size=10)
        index.update_many([("old1", Point(0, 0)), ("old2", Point(1, 0))])
        index.update_many(
            [("new1", Point(0, 0)), ("new2", Point(2, 0)), ("far", Point(90, 0))]
        )
        assert len(index) == 3
        got = {(a, b) if a <= b else (b, a) for a, b, _ in index.pairs_within(10.0)}
        assert got == {("new1", "new2")}


class TestPlace:
    def test_jittered_position_within_radius(self):
        place = Place("cafe", PlaceKind.SOCIAL, Point(100, 100), radius=30)
        rng = random.Random(3)
        for _ in range(200):
            p = place.jittered_position(rng)
            assert p.distance_to(place.location) <= 30 + 1e-9

    def test_jitter_spreads_over_disc(self):
        place = Place("cafe", PlaceKind.SOCIAL, Point(0, 0), radius=10)
        rng = random.Random(4)
        distances = [place.jittered_position(rng).distance_to(Point(0, 0)) for _ in range(500)]
        # Uniform-over-disc: mean distance = 2R/3.
        assert sum(distances) / len(distances) == pytest.approx(20 / 3, rel=0.1)
