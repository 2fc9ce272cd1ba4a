"""The per-device reference medium: the seed contact-detection algorithm.

:class:`PerDeviceMedium` replaces :meth:`repro.net.medium.Medium.tick`
with the seed's loop: every device re-queries the spatial index for its
own neighbours, pairs are deduplicated with a ``seen`` set, and the
in-range set is rediffed against the active links.  It is deliberately
naive.  It re-resolves the best common radio on every tick and skips
powered-off devices at query time, which is exactly the seed behaviour
the batched tick must reproduce from the outside.

The equivalence tests (``tests/test_medium_scale.py``) and the scale
bench (``benchmarks/test_bench_medium_scale.py``) run worlds and the
default study under both media and require byte-identical traces; the
bench also measures the batched tick's throughput against this one.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.net.contact import pair_key
from repro.net.medium import Medium
from repro.net.radio import RadioProfile, best_common_radio


class PerDeviceMedium(Medium):
    """A medium whose tick runs one radius query per device."""

    def tick(self) -> None:
        self.tick_count += 1
        now = self.sim.now
        index = self._index
        devices = self.devices
        for device in devices.values():
            index.update(device.device_id, device.position_at(now))

        desired: Dict[Tuple[str, str], RadioProfile] = {}
        seen: Set[Tuple[str, str]] = set()
        sweep = self._max_range * self.hysteresis
        for device_id, device in devices.items():
            if not device.powered_on:
                continue
            position = index.position_of(device_id)
            for other_id in index.within(position, sweep, exclude=device_id):
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
                other_position = index.position_of(other_id)
                dx = position.x - other_position.x
                dy = position.y - other_position.y
                d2 = dx * dx + dy * dy
                active = self._linked.get(key)
                if active is not None:
                    # An existing link survives out to the hysteresis
                    # margin of the radio it was *raised* on.
                    limit = active.range_m * self.hysteresis
                    if d2 <= limit * limit:
                        desired[key] = active
                elif d2 <= radio.range_m * radio.range_m:
                    desired[key] = radio

        for key in sorted(k for k in self._linked if k not in desired):
            self._drop_link(key)
        for key in sorted(k for k in desired if k not in self._linked):
            self._raise_link(key, desired[key])
