"""A physical device: identity + mobility + radios + power state.

A :class:`Device` is purely physical — it knows nothing about MPC sessions
or routing.  The layers above (``repro.mpc``, ``repro.core``) attach to it
through the medium's contact callbacks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.geo.point import Point
from repro.mobility.base import MobilityModel
from repro.net.radio import DEFAULT_RADIO_SET, RadioProfile


class Device:
    """A mobile (or stationary) radio-equipped node."""

    def __init__(
        self,
        device_id: str,
        mobility: MobilityModel,
        radios: Sequence[RadioProfile] = DEFAULT_RADIO_SET,
        powered_on: bool = True,
    ) -> None:
        if not device_id:
            raise ValueError("device_id must be non-empty")
        if not radios:
            raise ValueError("device needs at least one radio")
        self.device_id = device_id
        self.mobility = mobility
        self.radios: Tuple[RadioProfile, ...] = tuple(radios)
        self.powered_on = powered_on
        #: Most recent known position (None before the first tick).
        self._last_position: Optional[Point] = None

    def position_at(self, now: float) -> Point:
        """Current position (delegates to the mobility model)."""
        position = self.mobility.position_at(now)
        self._last_position = position
        return position

    @property
    def last_position(self) -> Optional[Point]:
        """Most recently computed position (None before the first tick)."""
        return self._last_position

    def power_off(self) -> None:
        """Simulate the app backgrounded / device off: radios go silent."""
        self.powered_on = False

    def power_on(self) -> None:
        self.powered_on = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Device {self.device_id} on={self.powered_on}>"

    def __hash__(self) -> int:
        return hash(self.device_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Device) and other.device_id == self.device_id
