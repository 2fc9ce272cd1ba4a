"""Uniform-grid spatial hashing for neighbour queries.

The radio medium asks "who is within R metres of me?" on every beacon; a
naive all-pairs scan is O(n^2) per tick.  A uniform grid with cell size ~R
answers it by inspecting at most 9 cells.

Two access patterns are served:

* per-item radius queries (:meth:`SpatialHashIndex.within`) — one device
  asking for its neighbours, and
* a whole-population pair sweep (:meth:`SpatialHashIndex.pairs_within`) —
  enumerate every unordered pair closer than R exactly once, by pairing
  each occupied cell with itself and with a half-neighbourhood of adjacent
  cells.  The batched medium tick uses this; it halves the distance
  computations of the per-device pattern and needs no dedup set.

Cells are deleted as soon as they empty so a roaming population does not
accumulate unbounded empty ``set()`` entries over long runs.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.geo.point import Point

#: Below this population the pure-Python sweep beats numpy's fixed setup
#: cost (array building, sorts) per tick.
_NUMPY_SWEEP_MIN = 192


class SpatialHashIndex:
    """Maps hashable items to positions and serves radius queries."""

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
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

    def update_many(self, items: Iterable[Tuple[Hashable, Point]]) -> None:
        """Bulk :meth:`update`: move the whole population in one call.

        Equivalent to calling ``update`` per item but with the dictionary
        lookups hoisted out of the loop — the shape the batched medium
        tick feeds once per tick.
        """
        cells = self._cells
        positions = self._positions
        size = self.cell_size
        floor = math.floor
        for item, position in items:
            old = positions.get(item)
            if old is position:
                continue  # unmoved (paused / stationary models return the same object)
            positions[item] = position
            new_cell = (int(floor(position.x / size)), int(floor(position.y / size)))
            if old is not None:
                old_cell = (int(floor(old.x / size)), int(floor(old.y / size)))
                if old_cell == new_cell:
                    continue
                members = cells.get(old_cell)
                if members is not None:
                    members.discard(item)
                    if not members:
                        del cells[old_cell]
            bucket = cells.get(new_cell)
            if bucket is None:
                cells[new_cell] = {item}
            else:
                bucket.add(item)

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

    def __contains__(self, item: Hashable) -> bool:
        return item in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def occupied_cells(self) -> int:
        """Number of non-empty grid cells currently allocated."""
        return len(self._cells)

    def items(self) -> Iterable:
        return self._positions.items()

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

    def pairs_within(
        self,
        radius: float,
        reach_of: Optional[Dict[Hashable, float]] = None,
    ) -> List[Tuple[Hashable, Hashable, float]]:
        """Every unordered pair with ``distance <= radius``, exactly once.

        Returns ``(item_a, item_b, distance_squared)`` triples in no
        particular order.  Each occupied cell is paired with itself and
        with a *half* neighbourhood of surrounding cells (offsets with
        ``dx > 0`` or ``dx == 0 and dy > 0``), so every cell pair — and
        therefore every item pair — is visited once.

        ``reach_of`` optionally tightens the cutoff per item: a pair is
        emitted only when ``distance <= min(reach_of[a], reach_of[b])``.
        The medium passes each device's own maximum radio reach, so a
        short-range device only ever pairs within its own bubble instead
        of the population-wide maximum.  Reaches may only *tighten* the
        sweep — the cell span is derived from ``radius``, so a reach
        beyond it is an error rather than a silently truncated search.
        """
        if radius < 0:
            return []
        if reach_of is not None and max(reach_of.values(), default=0.0) > radius:
            raise ValueError("reach_of values must not exceed the sweep radius")
        if len(self._positions) >= _NUMPY_SWEEP_MIN:
            return self._pairs_within_numpy(radius, reach_of)
        r2 = radius * radius
        span = int(math.ceil(radius / self.cell_size))
        offsets = [
            (dx, dy)
            for dx in range(0, span + 1)
            for dy in range(-span, span + 1)
            if dx > 0 or (dx == 0 and dy > 0)
        ]
        positions = self._positions
        # Extract coordinates (and squared cutoffs) once per member; for
        # non-negative reaches min(a, b)^2 == min(a^2, b^2), so squaring
        # here saves a multiply per candidate pair below.
        coords: Dict[Tuple[int, int], List[Tuple[float, float, float, Hashable]]] = {}
        if reach_of is None:
            for cell, members in self._cells.items():
                coords[cell] = [
                    (p.x, p.y, r2, m) for m in members for p in (positions[m],)
                ]
        else:
            for cell, members in self._cells.items():
                coords[cell] = [
                    (p.x, p.y, r * r, m)
                    for m in members
                    for p in (positions[m],)
                    for r in (reach_of[m],)
                ]
        out: List[Tuple[Hashable, Hashable, float]] = []
        append = out.append
        get = coords.get
        checked = 0
        for (cx, cy), mine in coords.items():
            n = len(mine)
            checked += n * (n - 1) // 2
            for i in range(n - 1):
                ax, ay, ar2, a = mine[i]
                for j in range(i + 1, n):
                    bx, by, br2, b = mine[j]
                    dx = ax - bx
                    dy = ay - by
                    d2 = dx * dx + dy * dy
                    if d2 <= (ar2 if ar2 < br2 else br2):
                        append((a, b, d2))
            for ox, oy in offsets:
                theirs = get((cx + ox, cy + oy))
                if not theirs:
                    continue
                checked += n * len(theirs)
                for ax, ay, ar2, a in mine:
                    for bx, by, br2, b in theirs:
                        dx = ax - bx
                        dy = ay - by
                        d2 = dx * dx + dy * dy
                        if d2 <= (ar2 if ar2 < br2 else br2):
                            append((a, b, d2))
        self.distance_checks += checked
        return out

    def _pairs_within_numpy(
        self,
        radius: float,
        reach_of: Optional[Dict[Hashable, float]],
    ) -> List[Tuple[Hashable, Hashable, float]]:
        """Vectorised :meth:`pairs_within`: same contract, same cell
        geometry, with the per-cell cross joins generated as array ops.

        Cells are recomputed from positions with the exact `_cell_of`
        arithmetic (``floor(x / cell_size)``), so membership matches the
        incrementally maintained buckets bit for bit; distances are plain
        float64 subtract/multiply/add, identical to the Python loop.
        """
        positions = self._positions
        n = len(positions)
        xs = np.empty(n, dtype=np.float64)
        ys = np.empty(n, dtype=np.float64)
        cut2 = np.empty(n, dtype=np.float64)
        items: List[Hashable] = [None] * n
        i = 0
        if reach_of is None:
            for item, p in positions.items():
                items[i] = item
                xs[i] = p.x
                ys[i] = p.y
                i += 1
            cut2.fill(radius * radius)
        else:
            for item, p in positions.items():
                items[i] = item
                xs[i] = p.x
                ys[i] = p.y
                cut2[i] = reach_of[item]
                i += 1
            np.multiply(cut2, cut2, out=cut2)
        size = self.cell_size
        shift = np.int64(2 ** 32)
        key = (
            np.floor(xs / size).astype(np.int64) * shift
            + np.floor(ys / size).astype(np.int64)
        )
        order = np.argsort(key, kind="stable")
        skey = key[order]
        sx = xs[order]
        sy = ys[order]
        scut2 = cut2[order]
        sitems = np.empty(n, dtype=object)
        sitems[:] = items
        sitems = sitems[order]
        cells, starts = np.unique(skey, return_index=True)
        counts = np.diff(np.append(starts, n))
        span = int(math.ceil(radius / size))
        arange = np.arange
        out: List[Tuple[Hashable, Hashable, float]] = []
        checked = 0
        for ox in range(0, span + 1):
            for oy in range(-span if ox else 0, span + 1):
                same_cell = ox == 0 and oy == 0
                if same_cell:
                    hosts = np.nonzero(counts > 1)[0]
                    guests = hosts
                else:
                    neighbour = cells + shift * ox + oy
                    pos = np.searchsorted(cells, neighbour)
                    pos_c = np.minimum(pos, len(cells) - 1)
                    valid = (pos < len(cells)) & (cells[pos_c] == neighbour)
                    hosts = np.nonzero(valid)[0]
                    guests = pos[valid]
                if hosts.size == 0:
                    continue
                # Ragged cross join host-cell x guest-cell members.
                ca = counts[hosts]
                cb = counts[guests]
                sizes = ca * cb
                total = int(sizes.sum())
                if total == 0:
                    continue
                match = np.repeat(arange(hosts.size), sizes)
                base = np.concatenate(([0], np.cumsum(sizes)[:-1]))
                offset = arange(total) - base[match]
                cb_m = cb[match]
                row = offset // cb_m
                ii = starts[hosts][match] + row
                jj = starts[guests][match] + (offset - row * cb_m)
                if same_cell:
                    keep = ii < jj  # triangular: each in-cell pair once
                    ii = ii[keep]
                    jj = jj[keep]
                checked += len(ii)
                dx = sx[ii] - sx[jj]
                dy = sy[ii] - sy[jj]
                d2 = dx * dx + dy * dy
                hit = d2 <= np.minimum(scut2[ii], scut2[jj])
                if not hit.any():
                    continue
                out.extend(
                    zip(
                        sitems[ii[hit]].tolist(),
                        sitems[jj[hit]].tolist(),
                        d2[hit].tolist(),
                    )
                )
        self.distance_checks += checked
        return out
