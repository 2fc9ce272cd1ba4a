"""Uniform-grid spatial hashing for the contact tick's pair sweep.

The radio medium asks once per tick "which radios are within R metres of
each other?"; a naive all-pairs scan is O(n^2) per tick.  A uniform grid
with cell size ~R answers it with a pair sweep
(:meth:`SpatialHashIndex.pairs_within`): every unordered pair closer than
R is enumerated exactly once, by pairing each occupied cell with itself
and with a half-neighbourhood of adjacent cells, so the sweep needs no
dedup set.

The index holds one tick's snapshot: :meth:`SpatialHashIndex.update_many`
replaces the whole indexed population, and each sweep buckets that
snapshot into cells afresh.  No cell outlives the sweep that built it.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.geo.point import Point

#: Below this population the pure-Python sweep beats numpy's fixed setup
#: cost (array building, sorts) per tick.
_NUMPY_SWEEP_MIN = 192


class SpatialHashIndex:
    """A snapshot of item positions, swept for close pairs on a grid."""

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self._items: List[Tuple[Hashable, Point]] = []
        #: Cumulative candidate distance computations performed by
        #: sweeps — the work a better access pattern compresses.
        self.distance_checks = 0

    def update_many(self, items: Iterable[Tuple[Hashable, Point]]) -> None:
        """Replace the indexed population with ``items``.

        ``items`` are ``(item, position)`` pairs with distinct items —
        the shape the medium tick feeds once per tick.
        """
        self._items = list(items)

    def __len__(self) -> int:
        return len(self._items)

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
        if len(self._items) >= _NUMPY_SWEEP_MIN:
            return self._pairs_within_numpy(radius, reach_of)
        size = self.cell_size
        span = int(math.ceil(radius / size))
        offsets = [
            (dx, dy)
            for dx in range(0, span + 1)
            for dy in range(-span, span + 1)
            if dx > 0 or (dx == 0 and dy > 0)
        ]
        # Bucket the snapshot into cells, extracting coordinates (and
        # squared cutoffs) once per member; for non-negative reaches
        # min(a, b)^2 == min(a^2, b^2), so squaring here saves a multiply
        # per candidate pair below.
        floor = math.floor
        coords: Dict[Tuple[int, int], List[Tuple[float, float, float, Hashable]]] = {}
        for item, p in self._items:
            r = radius if reach_of is None else reach_of[item]
            cell = (int(floor(p.x / size)), int(floor(p.y / size)))
            member = (p.x, p.y, r * r, item)
            bucket = coords.get(cell)
            if bucket is None:
                coords[cell] = [member]
            else:
                bucket.append(member)
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

        Cells come from the same ``floor(x / cell_size)`` arithmetic as
        the Python sweep, so membership matches it bit for bit;
        distances are plain float64 subtract/multiply/add, identical to
        the Python loop.
        """
        snapshot = self._items
        n = len(snapshot)
        xs = np.empty(n, dtype=np.float64)
        ys = np.empty(n, dtype=np.float64)
        cut2 = np.empty(n, dtype=np.float64)
        items: List[Hashable] = [None] * n
        i = 0
        if reach_of is None:
            for item, p in snapshot:
                items[i] = item
                xs[i] = p.x
                ys[i] = p.y
                i += 1
            cut2.fill(radius * radius)
        else:
            for item, p in snapshot:
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
