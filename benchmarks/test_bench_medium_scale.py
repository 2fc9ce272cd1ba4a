"""E10 (extension) — contact-detection throughput at density-sweep scale.

The ROADMAP's north star is density sweeps with thousands of devices;
``Medium.tick`` is the hottest loop of every such run.  This bench pits
the batched tick (one mobility pass, one spatial pair sweep, cached
radio resolution) against the per-device oracle ``PerDeviceMedium``
(``tests/medium_oracle.py``, the seed algorithm) on a mixed-radio
walking-speed world, and enforces two contracts:

* **throughput** — >= 3x device-ticks/second over the reference at
  N=2000 (reported for N in {100, 500, 2000}),
* **equivalence** — byte-identical traces between the two media, both
  for the synthetic scale world (all radios on, and duty-cycled) and for
  the default 10-user field-study reconstruction at its fixed seed.

Run just this bench (tiny smoke sizes included) with::

    PYTHONPATH=src python -m pytest benchmarks -k medium_scale -q
"""

from __future__ import annotations

import gc
import random
import time
from typing import Tuple

import pytest

from repro.bench.traceid import trace_lines
from repro.experiments import GainesvilleStudy, ScenarioConfig
from repro.geo.region import Region
from repro.geo.spatial_index import _NUMPY_SWEEP_MIN, SpatialHashIndex
from repro.metrics.report import format_table
from repro.mobility.base import StationaryModel
from repro.mobility.random_waypoint import RandomWaypoint
from repro.net.device import Device
from repro.net.medium import Medium
from repro.net.radio import BLUETOOTH, DEFAULT_RADIO_SET, INFRA_WIFI, P2P_WIFI
from repro.sim.engine import Simulator
from tests.medium_oracle import PerDeviceMedium

TICK_S = 30.0
#: Square metres per device — roughly 100 users/km^2, the "higher
#: density" regime the paper's §VI-B calls for investigating.
AREA_PER_DEVICE_M2 = 10_000.0


def _build_world(n: int, batched: bool, seed: int = 9) -> Tuple[Simulator, Medium]:
    """A mixed world: 10% stationary infrastructure, walking-speed
    pedestrians, three distinct radio sets (exercising asymmetric-radio
    pairs)."""
    sim = Simulator(seed=seed)
    medium = (Medium if batched else PerDeviceMedium)(sim, tick_interval=TICK_S)
    side = (n * AREA_PER_DEVICE_M2) ** 0.5
    region = Region(0.0, 0.0, side, side)
    for i in range(n):
        rng = random.Random(seed * 100_003 + i)
        if i % 10 == 0:
            mobility = StationaryModel(region.random_point(rng))
            radios = (INFRA_WIFI, P2P_WIFI, BLUETOOTH)
        else:
            mobility = RandomWaypoint(
                region, rng, speed_range=(0.5, 1.8), pause_range=(0.0, 600.0)
            )
            radios = (DEFAULT_RADIO_SET, (BLUETOOTH,), DEFAULT_RADIO_SET)[i % 3]
        medium.add_device(Device(f"dev-{i:04d}", mobility, radios=radios))
    return sim, medium


def _run_world(n: int, batched: bool, ticks: int, seed: int = 9):
    sim, medium = _build_world(n, batched, seed=seed)
    start = time.process_time()
    medium.start()
    sim.run(until=ticks * TICK_S)
    elapsed = time.process_time() - start
    return sim, medium, elapsed


def _best_elapsed(n: int, ticks: int, repeats: int) -> Tuple[float, float]:
    """Best-of-``repeats`` CPU times of the batched and the per-device
    tick, GC paused, the two media alternating.

    The throughput ratio is asserted on, so the measurement must survive
    noisy shared runners and whatever heap pressure earlier benchmark
    fixtures left behind: CPU time ignores scheduler preemption, a
    paused collector ignores other tests' garbage, best-of-N ignores
    one-off stalls, and alternating the media puts host drift on both
    sides of the ratio instead of between them."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        batched, reference = [], []
        for _ in range(repeats):
            batched.append(_run_world(n, True, ticks)[2])
            reference.append(_run_world(n, False, ticks)[2])
        return min(batched), min(reference)
    finally:
        if enabled:
            gc.enable()


def test_bench_medium_scale_throughput():
    ticks = 20
    rows = []
    speedup_at = {}
    _run_world(256, True, 3)  # warm both code paths (incl. numpy sweep)
    _run_world(256, False, 3)
    for n, repeats in ((100, 3), (500, 3), (2000, 3)):
        batched_s, reference_s = _best_elapsed(n, ticks, repeats)
        device_ticks = n * (ticks + 1)  # start() performs the t=0 tick
        speedup_at[n] = reference_s / batched_s
        rows.append(
            (
                n,
                f"{device_ticks / batched_s:,.0f}",
                f"{device_ticks / reference_s:,.0f}",
                f"{speedup_at[n]:.2f}x",
            )
        )
    if speedup_at[2000] < 3.0:
        # One noisy sample set must not fail the suite: remeasure the
        # asserted size with more repeats before judging.
        batched_s, reference_s = _best_elapsed(2000, ticks, repeats=6)
        speedup_at[2000] = reference_s / batched_s
        rows[-1] = (
            2000,
            f"{2000 * (ticks + 1) / batched_s:,.0f}",
            f"{2000 * (ticks + 1) / reference_s:,.0f}",
            f"{speedup_at[2000]:.2f}x (remeasured)",
        )
    print()
    print(
        format_table(
            "Medium tick throughput (device-ticks/second)",
            ("devices", "batched", "per-device", "speedup"),
            rows,
        )
    )
    # The acceptance bar: >= 3x at N=2000 (measured ~3.5-4x).
    assert speedup_at[2000] >= 3.0


def _duty_cycle(sim: Simulator, medium: Medium, radios: int, seed: int = 9) -> None:
    """Power a seeded sample of ``radios`` devices off around t=95 s and
    back on around t=605 s."""
    rng = random.Random(seed)
    for device_id in rng.sample(sorted(medium.devices), radios):
        device = medium.devices[device_id]
        sim.schedule_at(rng.uniform(90.0, 100.0), device.power_off)
        sim.schedule_at(rng.uniform(600.0, 610.0), device.power_on)


@pytest.mark.parametrize(
    "n,ticks,dark",
    [
        pytest.param(400, 40, 0, id="400-40"),
        # 400 -> 150 -> 400 radios on: the index crosses _NUMPY_SWEEP_MIN
        # (192) both ways, so both sweep paths run on a filtered index.
        pytest.param(400, 40, 250, id="400-40-duty-cycled"),
    ],
)
def test_bench_medium_scale_equivalence(n, ticks, dark, monkeypatch):
    """Both media must produce byte-identical traces on the scale world."""
    swept, numpy_swept = [], []  # indexed devices at each batched sweep

    def spy(method, log):
        def wrapper(index, *args, **kwargs):
            log.append(len(index))
            return method(index, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SpatialHashIndex, "pairs_within", spy(SpatialHashIndex.pairs_within, swept)
    )
    monkeypatch.setattr(
        SpatialHashIndex,
        "_pairs_within_numpy",
        spy(SpatialHashIndex._pairs_within_numpy, numpy_swept),
    )
    runs = []
    for batched in (True, False):
        sim, medium = _build_world(n, batched)
        if dark:
            _duty_cycle(sim, medium, dark)
        medium.start()
        sim.run(until=ticks * TICK_S)
        runs.append((trace_lines(sim), medium.contacts.total_contacts()))
    assert runs[0] == runs[1]
    # Only the batched tick sweeps, over the radios that are on: the
    # sampled ones are dark on the ticks from 120 s to 600 s.
    on = [n - dark if 100.0 < k * TICK_S <= 600.0 else n for k in range(ticks + 1)]
    assert swept == on
    assert numpy_swept == [count for count in on if count >= _NUMPY_SWEEP_MIN]


@pytest.mark.bench_smoke
def test_bench_medium_scale_smoke():
    """Tiny-N rot guard: cheap enough for any CI lane
    (``pytest benchmarks -k medium_scale -q``)."""
    sim_batched, _, _ = _run_world(48, True, ticks=6)
    sim_reference, _, _ = _run_world(48, False, ticks=6)
    assert trace_lines(sim_batched) == trace_lines(sim_reference)


def test_bench_medium_default_study_trace_identical(study, study_result, monkeypatch):
    """The default 10-user field study must replay byte-identically under
    the per-device oracle (fixed seed, default tick interval)."""
    assert type(study.medium) is Medium  # session fixture runs the batched tick
    monkeypatch.setattr("repro.experiments.gainesville.Medium", PerDeviceMedium)
    reference = GainesvilleStudy(ScenarioConfig())
    reference.run()
    assert type(reference.medium) is PerDeviceMedium
    batched_lines = trace_lines(study.sim)
    reference_lines = trace_lines(reference.sim)
    assert batched_lines == reference_lines
    contact_lines = [line for line in batched_lines if "|contact|" in line]
    assert contact_lines  # the comparison actually covered contacts
