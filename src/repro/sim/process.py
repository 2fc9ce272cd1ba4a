"""Timer conveniences layered on the raw event heap.

Model code wants one of two shapes:

* a one-shot :class:`Timer` that can be restarted/cancelled (connection
  timeouts, advertisement refreshes),
* a :class:`PeriodicTimer` that fires on a fixed period (the medium's
  contact tick).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator


class Timer:
    """A restartable one-shot timer."""

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer") -> None:
        self._sim = sim
        self._callback = callback
        self._name = name
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire after ``delay`` seconds."""
        self.cancel()
        self._event = self._sim.schedule_in(delay, self._fire, name=self._name)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTimer:
    """Fires ``callback`` every ``period`` seconds."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        name: str = "periodic",
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self._sim = sim
        self.period = float(period)
        self._callback = callback
        self._name = name
        self._event: Optional[Event] = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._event = self._sim.schedule_in(self.period, self._fire, name=self._name)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._callback()
        if self._running:
            self._event = self._sim.schedule_in(self.period, self._fire, name=self._name)
