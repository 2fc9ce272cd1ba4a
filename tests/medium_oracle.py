"""The per-device reference medium: the seed contact-detection algorithm.

:class:`PerDeviceMedium` replaces :meth:`repro.net.medium.Medium.tick`
with the seed's loop: every device re-queries a per-item grid for its own
neighbours, pairs are deduplicated with a ``seen`` set, and the in-range
set is rediffed against the active links.  It is deliberately naive.  It
keeps every device in its grid, re-resolves the best common radio on
every tick and skips powered-off devices at query time, which is exactly
the seed behaviour the batched tick must reproduce from the outside.

:class:`PerItemGrid` is the seed's spatial index, kept as it was: an
incrementally maintained map of cells to items with one radius query per
item.  The batched tick's ``SpatialHashIndex`` holds a per-tick snapshot
instead, so this grid is the only user of the per-item API.

The equivalence tests (``tests/test_medium_scale.py``) and the scale
bench (``benchmarks/test_bench_medium_scale.py``) run worlds and the
default study under both media and require byte-identical traces; the
bench also measures the batched tick's throughput against this one.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Set, Tuple

from repro.geo.point import Point
from repro.net.contact import pair_key
from repro.net.medium import HYSTERESIS, Medium
from repro.net.radio import RadioProfile, best_common_radio


class PerItemGrid:
    """Maps hashable items to positions and serves radius queries."""

    def __init__(self, cell_size: float = 100.0) -> None:
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], Set[Hashable]] = {}
        self._positions: Dict[Hashable, Point] = {}
        #: Cumulative candidate distance computations performed by
        #: queries — the work a better access pattern compresses.
        self.distance_checks = 0

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (int(math.floor(p.x / self.cell_size)), int(math.floor(p.y / self.cell_size)))

    def update(self, item: Hashable, position: Point) -> None:
        """Insert or move ``item``."""
        old = self._positions.get(item)
        if old is not None:
            old_cell = self._cell_of(old)
            new_cell = self._cell_of(position)
            if old_cell != new_cell:
                self._discard_from_cell(old_cell, item)
                self._cells.setdefault(new_cell, set()).add(item)
        else:
            cell = self._cell_of(position)
            self._cells.setdefault(cell, set()).add(item)
        self._positions[item] = position

    def remove(self, item: Hashable) -> None:
        pos = self._positions.pop(item, None)
        if pos is not None:
            self._discard_from_cell(self._cell_of(pos), item)

    def _discard_from_cell(self, cell: Tuple[int, int], item: Hashable) -> None:
        members = self._cells.get(cell)
        if members is None:
            return
        members.discard(item)
        if not members:
            del self._cells[cell]

    def position_of(self, item: Hashable) -> Point:
        return self._positions[item]

    def within(self, center: Point, radius: float, exclude: Hashable = None) -> List[Hashable]:
        """All items with ``distance <= radius`` of ``center``."""
        if radius < 0:
            return []
        reach = int(math.ceil(radius / self.cell_size))
        cx, cy = self._cell_of(center)
        out = []
        checked = 0
        r2 = radius * radius
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                cell = self._cells.get((gx, gy))
                if not cell:
                    continue
                checked += len(cell)
                for item in cell:
                    if item == exclude:
                        continue
                    p = self._positions[item]
                    dx = p.x - center.x
                    dy = p.y - center.y
                    if dx * dx + dy * dy <= r2:
                        out.append(item)
        self.distance_checks += checked
        return out


class PerDeviceMedium(Medium):
    """A medium whose tick runs one radius query per device."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._grid = PerItemGrid(cell_size=self._index.cell_size)

    def remove_device(self, device_id: str) -> None:
        super().remove_device(device_id)
        self._grid.remove(device_id)

    @property
    def distance_checks(self) -> int:
        return self._grid.distance_checks

    def tick(self) -> None:
        now = self.sim.now
        grid = self._grid
        devices = self.devices
        for device in devices.values():
            grid.update(device.device_id, device.position_at(now))

        desired: Dict[Tuple[str, str], RadioProfile] = {}
        seen: Set[Tuple[str, str]] = set()
        sweep = self._max_range * HYSTERESIS
        for device_id, device in devices.items():
            if not device.powered_on:
                continue
            position = grid.position_of(device_id)
            for other_id in grid.within(position, sweep, exclude=device_id):
                key = pair_key(device_id, other_id)
                if key in seen:
                    continue
                seen.add(key)
                if not devices[other_id].powered_on:
                    continue
                radio = best_common_radio(devices[key[0]].radios, devices[key[1]].radios)
                if radio is None:
                    continue
                # Squared distance with the exact arithmetic of
                # pairs_within, so both media agree even when a pair
                # lands within a rounding error of a range threshold.
                other_position = grid.position_of(other_id)
                dx = position.x - other_position.x
                dy = position.y - other_position.y
                d2 = dx * dx + dy * dy
                active = self._linked.get(key)
                if active is not None:
                    # An existing link survives out to the hysteresis
                    # margin of the radio it was *raised* on.
                    limit = active.range_m * HYSTERESIS
                    if d2 <= limit * limit:
                        desired[key] = active
                elif d2 <= radio.range_m * radio.range_m:
                    desired[key] = radio

        for key in sorted(k for k in self._linked if k not in desired):
            self._drop_link(key)
        for key in sorted(k for k in desired if k not in self._linked):
            self._raise_link(key, desired[key])
