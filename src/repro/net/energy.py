"""Per-device radio energy accounting.

Opportunistic middleware lives on phones, where the real resource is the
battery; the paper's motivation includes low-cost smart-city deployments
on battery-powered nodes (§I).  This module meters each device's radio
activity from the simulation's own events:

* **scan/idle-on energy** — advertising + browsing whenever the device is
  powered on (MPC keeps both radios lit),
* **connection energy** — per established link, while it lasts,
* **transfer energy** — per byte sent or received.

Power figures are representative published numbers for smartphone
Bluetooth/WiFi workloads (order-of-magnitude correct; the *relative*
protocol comparison is what matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.contact import pair_key
from repro.sim.engine import Simulator
from repro.sim.trace import TraceEvent

#: Scan/advertise draw while the app is foregrounded (W).
SCAN_POWER_W = 0.08
#: Additional draw per active link (W).
LINK_POWER_W = 0.12
#: Energy per byte moved at the application layer (J/byte ~ 100 nJ/bit).
ENERGY_PER_BYTE_J = 8e-7


@dataclass
class EnergyBudget:
    """Joules accumulated by one device, by cause."""

    scan_j: float = 0.0
    link_j: float = 0.0
    transfer_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.scan_j + self.link_j + self.transfer_j


class EnergyMeter:
    """Meters every device on a medium via the simulation trace.

    Usage::

        meter = EnergyMeter(sim, medium)
        ... run the simulation ...
        meter.finalise()
        joules = meter.budget_of("device-3").total_j
    """

    def __init__(self, sim: Simulator, medium) -> None:
        self.sim = sim
        self.medium = medium
        self._budgets: Dict[str, EnergyBudget] = {}
        self._on_since: Dict[str, Optional[float]] = {}
        self._link_since: Dict[tuple, float] = {}
        self._finalised = False
        sim.trace.subscribe(self._on_event)
        for device_id, device in medium.devices.items():
            self._budgets[device_id] = EnergyBudget()
            self._on_since[device_id] = sim.now if device.powered_on else None

    def _budget(self, device_id: str) -> EnergyBudget:
        return self._budgets.setdefault(device_id, EnergyBudget())

    # -- power state -------------------------------------------------------------
    def note_power_on(self, device_id: str) -> None:
        if self._on_since.get(device_id) is None:
            self._on_since[device_id] = self.sim.now

    def note_power_off(self, device_id: str) -> None:
        since = self._on_since.get(device_id)
        if since is not None:
            self._budget(device_id).scan_j += (self.sim.now - since) * SCAN_POWER_W
            self._on_since[device_id] = None

    def sample_power_states(self) -> None:
        """Poll device power flags (call periodically, or rely on
        finalise() for coarse accounting when power never changes)."""
        for device_id, device in self.medium.devices.items():
            if device.powered_on:
                self.note_power_on(device_id)
            else:
                self.note_power_off(device_id)

    # -- trace-driven accounting ------------------------------------------------------
    def _on_event(self, event: TraceEvent) -> None:
        if event.category != "contact":
            return
        key = pair_key(event.data["a"], event.data["b"])
        if event.kind == "up":
            self._link_since[key] = event.time
        elif event.kind == "down":
            since = self._link_since.pop(key, None)
            if since is not None:
                joules = (event.time - since) * LINK_POWER_W
                self._budget(key[0]).link_j += joules
                self._budget(key[1]).link_j += joules

    def note_transfer(self, device_id: str, size_bytes: int) -> None:
        self._budget(device_id).transfer_j += size_bytes * ENERGY_PER_BYTE_J

    def charge_transfers_from_stats(self, bytes_by_device: Dict[str, int]) -> None:
        """Bulk-charge transfer energy from per-device byte counters
        (both the sender and receiver pay per byte)."""
        for device_id, byte_count in bytes_by_device.items():
            self.note_transfer(device_id, byte_count)

    # -- closing the books ----------------------------------------------------------------
    def finalise(self) -> None:
        """Close open intervals at the current simulation time."""
        if self._finalised:
            return
        self._finalised = True
        self.sample_power_states()
        for device_id, since in list(self._on_since.items()):
            if since is not None:
                self._budget(device_id).scan_j += (self.sim.now - since) * SCAN_POWER_W
                self._on_since[device_id] = None
        for key, since in list(self._link_since.items()):
            joules = (self.sim.now - since) * LINK_POWER_W
            self._budget(key[0]).link_j += joules
            self._budget(key[1]).link_j += joules
        self._link_since.clear()

    def budget_of(self, device_id: str) -> EnergyBudget:
        return self._budget(device_id)

    def total_joules(self) -> float:
        return sum(budget.total_j for budget in self._budgets.values())

    def per_device(self) -> Dict[str, EnergyBudget]:
        return dict(self._budgets)
