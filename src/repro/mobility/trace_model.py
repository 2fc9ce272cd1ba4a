"""Waypoint trace recording and replay.

Traces make experiments portable: a mobility run can be exported to a
plain-text format (one ``time x y`` line per sample, compatible in spirit
with ONE-simulator movement traces), shared, and replayed bit-exactly —
the closest a simulation gets to the paper's "replicable, comparable, and
available to a variety of researchers" goal (§I).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, TextIO, Tuple

from repro.geo.point import Point
from repro.mobility.base import MobilityModel


@dataclass
class WaypointTrace:
    """A time-ordered sequence of ``(time, Point)`` samples for one node."""

    node_id: str
    samples: List[Tuple[float, Point]] = field(default_factory=list)

    def add(self, time: float, position: Point) -> None:
        if self.samples and time < self.samples[-1][0]:
            raise ValueError(
                f"non-monotonic sample at {time} (last {self.samples[-1][0]})"
            )
        self.samples.append((time, position))

    @property
    def duration(self) -> float:
        if not self.samples:
            return 0.0
        return self.samples[-1][0] - self.samples[0][0]

    def write(self, fh: TextIO) -> None:
        """Write as ``node_id time x y`` lines."""
        for time, p in self.samples:
            fh.write(f"{self.node_id} {time:.3f} {p.x:.3f} {p.y:.3f}\n")

    @classmethod
    def read_all(cls, fh: TextIO) -> dict:
        """Parse a multi-node trace file into ``{node_id: WaypointTrace}``."""
        traces: dict = {}
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed trace line {lineno}: {line!r}")
            node_id, t, x, y = parts[0], float(parts[1]), float(parts[2]), float(parts[3])
            traces.setdefault(node_id, cls(node_id=node_id)).add(t, Point(x, y))
        return traces


class TraceReplayModel(MobilityModel):
    """Replays a :class:`WaypointTrace` with linear interpolation.

    Before the first sample the node sits at the first position; after the
    last sample it sits at the last.
    """

    def __init__(self, trace: WaypointTrace) -> None:
        if not trace.samples:
            raise ValueError(f"trace for {trace.node_id!r} is empty")
        self.trace = trace
        self._times = [t for t, _ in trace.samples]

    def position_at(self, now: float) -> Point:
        samples = self.trace.samples
        idx = bisect_right(self._times, now)
        if idx == 0:
            return samples[0][1]
        if idx == len(samples):
            return samples[-1][1]
        t0, p0 = samples[idx - 1]
        t1, p1 = samples[idx]
        if t1 == t0:
            return p1
        frac = (now - t0) / (t1 - t0)
        return Point(p0.x + (p1.x - p0.x) * frac, p0.y + (p1.y - p0.y) * frac)


def record_trace(
    model: MobilityModel,
    node_id: str,
    duration: float,
    interval: float = 60.0,
    start: float = 0.0,
) -> WaypointTrace:
    """Sample ``model`` every ``interval`` seconds into a trace."""
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    trace = WaypointTrace(node_id=node_id)
    t = start
    while t <= start + duration:
        trace.add(t, model.position_at(t))
        t += interval
    return trace
