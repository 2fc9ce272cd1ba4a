"""The shared radio medium.

The medium owns the physical truth of the simulation: where every device
is, and which pairs are within radio range.  On a fixed tick it advances
every mobility model, refreshes a spatial index, and diffs the in-range
pair set against the previous tick, emitting ``link_up`` / ``link_down``
callbacks with the best common radio.  Hysteresis (connect at R, drop at
R * :data:`HYSTERESIS`) prevents link flapping at range boundaries — real
radios behave the same way because of fading margins.  The drop threshold
is always derived from the radio the link was *raised* on, so a pair
whose best common technology would change mid-contact keeps a stable
survival margin.

The tick
========

Contact detection is the hottest loop of every experiment: it runs once
per ``tick_interval`` for the whole population, for the whole study.
:meth:`Medium.tick` is built for density sweeps with thousands of
devices:

* **Batched mobility** — the medium keeps its devices in registration
  order and advances the whole population through one
  :meth:`~repro.mobility.base.MobilityModel.positions_at` call, in the
  order ``PerDeviceMedium`` queries them; then the spatial index takes
  the tick's positions as one snapshot via
  :meth:`~repro.geo.spatial_index.SpatialHashIndex.update_many`.
* **Only radios that are on are indexed** — a dark radio can neither
  raise nor keep a link, so the tick leaves it out of the snapshot and
  sweeps only when two or more radios are on; the link diff always runs.
  Every device still moves: the working-day venue wander advances only
  when queried, on the RNG that day generation shares, and
  ``last_position`` feeds Fig. 4b.
* **One pair sweep per tick** — instead of one radius query per device
  (which visits every pair twice and dedups with a ``seen`` set), the
  index enumerates each candidate pair exactly once with
  :meth:`~repro.geo.spatial_index.SpatialHashIndex.pairs_within`.
* **Incremental link diff** — active links are checked only against the
  survival threshold of the radio they were raised on; radio resolution
  (``best_common_radio``) runs once per pair ever, cached, because radio
  sets are immutable.

Link events are emitted in sorted pair order within a tick, so the
trace does not depend on the order in which the sweep finds pairs (that
follows grid cells and registration order).
The seed algorithm — one radius query per device, pair-set rediff —
lives on as a test oracle, ``PerDeviceMedium`` in
``tests/medium_oracle.py``: ``tests/test_medium_scale.py`` and
``benchmarks/test_bench_medium_scale.py`` check that both produce
byte-identical traces and measure the tick's throughput against it (see
EXPERIMENTS.md for how to run them).

The link bookkeeping below the tick (the link table, the contact
tracker, ``contact`` trace events, callbacks, queries and :meth:`Medium.stop`)
is shared: :class:`~repro.net.tracefile.TraceMedium` replays a recorded
contact trace through it instead of ticking.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.geo.spatial_index import SpatialHashIndex
from repro.mobility.base import MobilityModel
from repro.net.contact import ContactTracker, pair_key
from repro.net.device import Device
from repro.net.radio import RadioProfile, best_common_radio
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicTimer

LinkCallback = Callable[[Device, Device, RadioProfile], None]

_MISSING = object()

#: Link-drop range multiplier: a link raised at range R drops beyond
#: R * HYSTERESIS.
HYSTERESIS = 1.1


class Medium:
    """Contact detection over mobile devices.

    Parameters
    ----------
    sim:
        The simulation engine (drives the tick).
    tick_interval:
        Seconds between position refreshes.  30 s resolves walking-speed
        encounters (a 10 m Bluetooth bubble at 1.4 m/s closing speed lasts
        ~14 s; P2P WiFi at 60 m lasts ~85 s) while keeping 7-day runs fast;
        tighten it in micro-benchmarks when Bluetooth-only fidelity matters.
    """

    def __init__(self, sim: Simulator, tick_interval: float = 30.0) -> None:
        if tick_interval <= 0:
            raise ValueError(f"tick_interval must be positive, got {tick_interval}")
        self.sim = sim
        self.tick_interval = float(tick_interval)
        self.devices: Dict[str, Device] = {}
        self.contacts = ContactTracker()
        self._index = SpatialHashIndex(cell_size=120.0)
        self._linked: Dict[Tuple[str, str], RadioProfile] = {}
        self._up_callbacks: List[LinkCallback] = []
        self._down_callbacks: List[LinkCallback] = []
        self._max_range = 0.0
        #: device_id -> own maximum radio reach * HYSTERESIS (sweep cutoff).
        self._reach: Dict[str, float] = {}
        # Radio resolution is cached per *radio-set class*, not per pair:
        # radio sets are immutable tuples, so a population carrying k
        # distinct sets needs at most k^2 best_common_radio calls, ever.
        self._radio_set_ids: Dict[Tuple[RadioProfile, ...], int] = {}
        self._radio_class: Dict[str, int] = {}
        #: (class_a << 16 | class_b) -> (radio, range_m^2) or None.
        self._class_radio: Dict[int, Optional[Tuple[RadioProfile, float]]] = {}
        #: Registered devices and their mobility models, in registration order.
        self._roster: List[Device] = []
        self._models: List[MobilityModel] = []
        self._timer = PeriodicTimer(sim, self.tick_interval, self.tick, name="medium-tick")

    # -- population ---------------------------------------------------------------
    def add_device(self, device: Device) -> None:
        """Register a device.

        The medium snapshots the device's mobility object and radio set
        here; neither may be swapped while the device is registered
        (``remove_device`` + ``add_device`` to change them).  Power
        state may change freely at any time.  Its position is queried
        here and on every tick whatever its power state: mobility models
        advance on query, so a skipped query would change their draw
        order (see "The tick").  Only the tick indexes positions, and
        only of radios that are on.
        """
        if device.device_id in self.devices:
            raise ValueError(f"duplicate device id {device.device_id!r}")
        self.devices[device.device_id] = device
        own_range = max(r.range_m for r in device.radios)
        self._max_range = max(self._max_range, own_range)
        self._reach[device.device_id] = own_range * HYSTERESIS
        set_id = self._radio_set_ids.get(device.radios)
        if set_id is None:
            set_id = len(self._radio_set_ids)
            self._radio_set_ids[device.radios] = set_id
        self._radio_class[device.device_id] = set_id
        self._roster.append(device)
        self._models.append(device.mobility)
        device.position_at(self.sim.now)

    def remove_device(self, device_id: str) -> None:
        device = self.devices.get(device_id)
        if device is None:
            return
        # Drop links while the device is still registered so link-down
        # callbacks fire with both Device objects — upper layers (sessions,
        # routing) tear down peer state through exactly those callbacks.
        for key in sorted(k for k in self._linked if device_id in k):
            self._drop_link(key)
        del self.devices[device_id]
        self._reach.pop(device_id, None)
        self._radio_class.pop(device_id, None)
        slot = self._roster.index(device)
        del self._roster[slot]
        del self._models[slot]

    # -- callbacks -----------------------------------------------------------------
    def on_link_up(self, callback: LinkCallback) -> None:
        self._up_callbacks.append(callback)

    def on_link_down(self, callback: LinkCallback) -> None:
        self._down_callbacks.append(callback)

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic ticking; performs an immediate first tick so
        links existing at t=0 are detected."""
        self.tick()
        self._timer.start()

    def stop(self) -> None:
        self._timer.stop()
        for key in sorted(self._linked):
            self._drop_link(key)
        self.contacts.close_all(self.sim.now)

    # -- the tick ---------------------------------------------------------------------
    def tick(self) -> None:
        """Advance positions and rediff the in-range pair set."""
        now = self.sim.now
        # Move everyone in one batch call; index radios that are on.
        points = MobilityModel.positions_at(self._models, now)
        lit = []
        for device, position in zip(self._roster, points):
            device._last_position = position
            if device.powered_on:
                lit.append((device.device_id, position))
        index = self._index
        index.update_many(lit)
        sweep = self._max_range * HYSTERESIS
        candidates = index.pairs_within(sweep, reach_of=self._reach) if len(lit) > 1 else []
        self._apply_candidates(candidates)

    def _apply_candidates(self, candidates: List[Tuple[str, str, float]]) -> None:
        """The incremental link diff.

        ``candidates`` is the tick's geometric candidate set —
        ``(a, b, d²)`` for every pair within ``min(reach_a, reach_b)``,
        each pair exactly once, in any order (the diff is per-pair
        independent and emission below is sorted, so candidate order
        cannot reach the trace).  Both ends of every candidate are on
        (the tick indexes only radios that are on), so a link with a
        dark end is absent here and drops below.
        """
        devices = self.devices
        linked = self._linked
        radio_class = self._radio_class
        class_radio = self._class_radio
        survivors: Set[Tuple[str, str]] = set()
        to_raise: List[Tuple[Tuple[str, str], RadioProfile]] = []
        for a, b, d2 in candidates:
            key = (a, b) if a <= b else (b, a)
            active = linked.get(key)
            if active is not None:
                limit = active.range_m * HYSTERESIS
                if d2 <= limit * limit:
                    survivors.add(key)
                continue
            class_key = (radio_class[key[0]] << 16) | radio_class[key[1]]
            entry = class_radio.get(class_key, _MISSING)
            if entry is _MISSING:
                radio = best_common_radio(devices[key[0]].radios, devices[key[1]].radios)
                entry = None if radio is None else (radio, radio.range_m * radio.range_m)
                class_radio[class_key] = entry
            if entry is None:
                continue  # no common technology (radio sets are immutable)
            radio, r2 = entry
            if d2 <= r2:
                to_raise.append((key, radio))
        if len(survivors) != len(linked):
            for key in sorted(k for k in linked if k not in survivors):
                self._drop_link(key)
        to_raise.sort(key=lambda item: item[0])
        for key, radio in to_raise:
            self._raise_link(key, radio)

    def _raise_link(self, key: Tuple[str, str], radio: RadioProfile) -> None:
        self._linked[key] = radio
        a, b = self.devices[key[0]], self.devices[key[1]]
        self.contacts.contact_up(key[0], key[1], radio, self.sim.now)
        self.sim.trace.emit(
            self.sim.now, "contact", "up", a=key[0], b=key[1], radio=radio.technology.value
        )
        for callback in self._up_callbacks:
            callback(a, b, radio)

    def _drop_link(self, key: Tuple[str, str]) -> None:
        radio = self._linked.pop(key, None)
        if radio is None:
            return
        a, b = self.devices.get(key[0]), self.devices.get(key[1])
        self.contacts.contact_down(key[0], key[1], self.sim.now)
        self.sim.trace.emit(
            self.sim.now, "contact", "down", a=key[0], b=key[1], radio=radio.technology.value
        )
        if a is not None and b is not None:
            for callback in self._down_callbacks:
                callback(a, b, radio)

    # -- forced drops (fault injection) ---------------------------------------------
    def force_drop(self, a: str, b: str) -> bool:
        """Drop the active link between two devices, if any (a link flap:
        the pair re-links on the next tick while still in range).  Fires
        the normal link-down callbacks; returns True when a link dropped."""
        key = pair_key(a, b)
        if key not in self._linked:
            return False
        self._drop_link(key)
        return True

    def drop_links_of(self, device_id: str) -> int:
        """Drop every active link touching ``device_id`` (device crash or
        abrupt power loss), in sorted pair order for determinism.  Returns
        the number of links dropped."""
        keys = sorted(k for k in self._linked if device_id in k)
        for key in keys:
            self._drop_link(key)
        return len(keys)

    def active_link_keys(self) -> List[Tuple[str, str]]:
        """Sorted snapshot of the active link pair keys."""
        return sorted(self._linked)

    # -- queries --------------------------------------------------------------------
    def link_between(self, a: str, b: str) -> Optional[RadioProfile]:
        """The active radio between two devices, or None."""
        return self._linked.get(pair_key(a, b))

    def neighbours_of(self, device_id: str) -> List[str]:
        """Device ids currently linked with ``device_id``."""
        out = []
        for key in self._linked:
            if key[0] == device_id:
                out.append(key[1])
            elif key[1] == device_id:
                out.append(key[0])
        return out

    @property
    def active_links(self) -> int:
        return len(self._linked)

    @property
    def distance_checks(self) -> int:
        """Cumulative candidate distance computations in the spatial
        index — the geometric work the pair sweep compresses (one radius
        query per device visits every pair from both ends)."""
        return self._index.distance_checks
