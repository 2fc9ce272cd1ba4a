"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host, and the host's speed
drifts by tens of percent over seconds to minutes: whole runs of the same
code come out 20-40% slower than others.  No estimator over one run's
operations removes a slowdown that lasts the whole run.  So the benchmark
interleaves this kernel with the program, a short chunk after every timed
piece, and divides each piece's time by the kernel's time around it (see
``run.Op.scaled``).

The kernel is pure standard library and never changes with the program, so
a faster program still reads faster.  It mixes the kinds of work the
studies spend their time on, so that host slowdowns hit both alike:
big-integer modular exponentiation (RSA keygen, sign, verify), a 32-bit
add-rotate-xor round function on lists of ints (the session cipher), a
heap-ordered event queue of small objects with method calls (the
simulator and routing), breadth-first search over a dict-of-sets graph
(social-graph statistics) and float arithmetic (mobility).
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Dict, List, Set, Tuple

_MASK32 = 0xFFFFFFFF


class _Kernel:
    """Inputs built once; :meth:`chunk` does a fixed amount of work."""

    def __init__(self, seed: int = 11) -> None:
        rng = random.Random(seed)
        self.modulus = rng.getrandbits(512) | (1 << 511) | 1
        self.exponent = rng.getrandbits(512)
        self.base = rng.getrandbits(510)
        self.words = [rng.getrandbits(32) for _ in range(16)]
        nodes = 3000
        self.graph: Dict[int, Set[int]] = {n: set() for n in range(nodes)}
        for a in range(nodes):
            for _ in range(3):
                b = rng.randrange(nodes)
                if a != b:
                    self.graph[a].add(b)
                    self.graph[b].add(a)
        self.points = [(rng.uniform(0, 1e4), rng.uniform(0, 1e4)) for _ in range(400)]

    def chunk(self) -> int:
        """One fixed unit of mixed work; returns a checksum."""
        acc = 0
        for step in range(3):
            acc ^= pow(self.base + step, self.exponent, self.modulus) & _MASK32
        acc ^= self._rounds(240)
        acc ^= self._events(600)
        acc ^= self._bfs(acc % len(self.graph))
        acc ^= self._moves()
        return acc

    def _rounds(self, count: int) -> int:
        s = list(self.words)
        for _ in range(count):
            for a, b, c, d in ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15)):
                s[a] = (s[a] + s[b]) & _MASK32
                x = s[d] ^ s[a]
                s[d] = ((x << 16) & _MASK32) | (x >> 16)
                s[c] = (s[c] + s[d]) & _MASK32
                x = s[b] ^ s[c]
                s[b] = ((x << 12) & _MASK32) | (x >> 20)
        return s[0]

    def _events(self, count: int) -> int:
        queue: List[tuple] = []
        for i in range(count):
            heapq.heappush(queue, ((i * 7919) % 1009, i, _Event(i)))
        total = 0
        while queue:
            _, _, event = heapq.heappop(queue)
            total += event.fire()
        return total & _MASK32

    def _bfs(self, source: int) -> int:
        dist = {source: 0}
        frontier = [source]
        graph = self.graph
        while frontier:
            following = []
            for u in frontier:
                du = dist[u] + 1
                for v in graph[u]:
                    if v not in dist:
                        dist[v] = du
                        following.append(v)
            frontier = following
        return sum(dist.values()) & _MASK32

    def _moves(self) -> int:
        total = 0.0
        for x, y in self.points:
            heading = math.atan2(5e3 - y, 5e3 - x)
            total += math.hypot(x + 3.0 * math.cos(heading), y + 3.0 * math.sin(heading))
        return int(total) & _MASK32


class _Event:
    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key

    def fire(self) -> int:
        return self.key ^ (self.key >> 3)


_KERNEL = _Kernel()
#: The checksum of one chunk, to catch a kernel that silently changed.
CHECKSUM = _KERNEL.chunk()


def probe() -> Tuple[float, float]:
    """``(wall, cpu)`` seconds of one reference chunk."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = _KERNEL.chunk()
    elapsed = time.perf_counter() - wall, time.process_time() - cpu
    if result != CHECKSUM:
        raise RuntimeError("reference kernel checksum changed")
    return elapsed
