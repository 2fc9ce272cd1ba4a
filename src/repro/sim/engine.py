"""The discrete-event simulation engine.

The engine is a classic event-heap design: callbacks are scheduled at
finite absolute simulation times and executed in ``(time, sequence)``
order.  Ties on time are broken by insertion order, which makes runs
fully deterministic for a fixed seed and schedule.

The heap holds ``(time, seq, event)`` tuples, which ``heapq`` compares
in C; ``seq`` is unique, so the event itself is never compared.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (a past or non-finite time)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule_at` /
    :meth:`Simulator.schedule_in` and can be cancelled.  The simulator's
    heap holds each one as the last item of a ``(time, seq, event)``
    entry; the event defines no ordering itself.  Cancellation is
    lazy: the heap entry stays in place and is skipped when popped — the
    simulator compacts the heap when cancelled entries pile up, so
    timer-heavy scenarios (restartable timeouts cancelled on every
    contact) cannot grow the queue without bound over long runs.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "name", "owner", "_on_cancel")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        name: str = "",
        owner: Optional[Any] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.name = name or getattr(callback, "__name__", "event")
        self.owner = owner
        self._on_cancel: Optional[Callable[[], None]] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<repro.sim.engine.Event {self.name!r} t={self.time:.3f} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulator's named random streams.  Two
        simulators built with the same seed and the same schedule produce
        byte-identical traces.

    The clock starts at 0.0; the 7-day field study runs to ``7 * 86400``.
    """

    #: Compaction trigger: rebuild the heap once at least this many
    #: cancelled entries linger *and* they outnumber the live ones.
    COMPACT_MIN_CANCELLED = 1024

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._cancelled_in_heap = 0
        self.streams = RandomStreams(seed)
        self.trace = TraceRecorder()
        self._step_hooks: List[Callable[[float], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
        owner: Optional[Any] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``, which
        must be finite and not in the past.

        ``owner`` tags the event for bulk cancellation via
        :meth:`cancel_owned` (used by the fault injector to quiesce every
        process it scheduled in one call); it has no effect on ordering.
        """
        # Chained, so the past, +inf and NaN (every comparison false) fail.
        if not self._now <= time < inf:
            raise SimulationError(f"cannot schedule event at {time!r}, now is {self._now:.6f}")
        time = float(time)
        event = Event(time, callback, args, name, owner)
        event._on_cancel = self._note_cancelled
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def cancel_owned(self, owner: Any) -> int:
        """Cancel every pending event tagged with ``owner`` (identity
        comparison).  Returns the number of events cancelled."""
        count = 0
        for entry in self._heap:
            event = entry[2]
            if not event.cancelled and event.owner is owner:
                event.cancel()
                count += 1
        return count

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant.

        O(n) on the surviving events; ``(time, seq)`` keys are unique, so
        re-heapifying cannot reorder execution."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        name: str = "",
        owner: Optional[Any] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds (a negative or
        non-finite delay is rejected, as :meth:`schedule_at` rejects its time)."""
        return self.schedule_at(self._now + delay, callback, *args, name=name, owner=owner)

    def add_step_hook(self, hook: Callable[[float], None]) -> None:
        """Register ``hook(now)`` to run after every executed event.

        Step hooks are used by the metrics collector to observe the
        simulation without entangling measurement code with the model.
        """
        self._step_hooks.append(hook)

    def run(self, until: Optional[float] = None) -> int:
        """Run events until the queue empties or the next one is due
        after ``until``.  Returns the number of events run.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the queue drained earlier, so measurement windows
        have well-defined ends.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                time, _, event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(self._heap)
                self._now = time
                event.callback(*event.args)
                executed += 1
                for hook in self._step_hooks:
                    hook(self._now)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = float(until)
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.3f} pending={self.pending_events}>"
