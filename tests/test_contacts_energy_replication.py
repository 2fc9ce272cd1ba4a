"""Tests for energy metering and multi-seed replication."""

import pytest

from repro.experiments import ReplicationStudy, ScenarioConfig
from repro.geo.point import Point
from repro.mobility.base import StationaryModel
from repro.net import Device, EnergyMeter, Medium
from repro.net.energy import ENERGY_PER_BYTE_J, LINK_POWER_W, SCAN_POWER_W
from repro.sim import Simulator


class TestEnergyMeter:
    def _world(self, distance=30.0):
        sim = Simulator(seed=1)
        medium = Medium(sim, tick_interval=10.0)
        medium.add_device(Device("a", StationaryModel(Point(0, 0))))
        medium.add_device(Device("b", StationaryModel(Point(distance, 0))))
        return sim, medium

    def test_scan_energy_accumulates_while_on(self):
        sim, medium = self._world(distance=5000.0)  # never in range
        meter = EnergyMeter(sim, medium)
        medium.start()
        sim.run(until=1000.0)
        meter.finalise()
        assert meter.budget_of("a").scan_j == pytest.approx(1000.0 * SCAN_POWER_W)
        assert meter.budget_of("a").link_j == 0.0

    def test_link_energy_charged_to_both_sides(self):
        sim, medium = self._world()
        meter = EnergyMeter(sim, medium)
        medium.start()
        sim.run(until=500.0)
        medium.stop()  # closes the link -> emits contact down
        meter.finalise()
        assert meter.budget_of("a").link_j > 0
        assert meter.budget_of("a").link_j == pytest.approx(meter.budget_of("b").link_j)
        # Link existed essentially the whole run.
        assert meter.budget_of("a").link_j == pytest.approx(500.0 * LINK_POWER_W, rel=0.05)

    def test_power_off_stops_scan_energy(self):
        sim, medium = self._world(distance=5000.0)
        meter = EnergyMeter(sim, medium)
        medium.start()
        sim.schedule_at(200.0, lambda: (medium.devices["a"].power_off(),
                                        meter.note_power_off("a")))
        sim.run(until=1000.0)
        meter.finalise()
        assert meter.budget_of("a").scan_j == pytest.approx(200.0 * SCAN_POWER_W)

    def test_transfer_energy(self):
        sim, medium = self._world()
        meter = EnergyMeter(sim, medium)
        meter.note_transfer("a", 1_000_000)
        assert meter.budget_of("a").transfer_j == pytest.approx(1_000_000 * ENERGY_PER_BYTE_J)

    def test_bulk_charge_and_total(self):
        sim, medium = self._world(distance=5000.0)
        meter = EnergyMeter(sim, medium)
        meter.charge_transfers_from_stats({"a": 1000, "b": 2000})
        sim.run(until=10.0)
        meter.finalise()
        total = meter.total_joules()
        assert total == pytest.approx(
            3000 * ENERGY_PER_BYTE_J + 2 * 10.0 * SCAN_POWER_W
        )

    def test_finalise_idempotent(self):
        sim, medium = self._world(distance=5000.0)
        meter = EnergyMeter(sim, medium)
        sim.run(until=100.0)
        meter.finalise()
        first = meter.total_joules()
        meter.finalise()
        assert meter.total_joules() == first


class TestReplicationStudy:
    def test_aggregates_across_seeds(self):
        study = ReplicationStudy(
            base_config=ScenarioConfig(duration_days=1, total_posts=15),
            seeds=(11, 12, 13),
        )
        summaries = study.run()
        names = [s.name for s in summaries]
        assert "disseminations" in names and "one_hop_fraction" in names
        for summary in summaries:
            assert summary.minimum <= summary.mean <= summary.maximum
            assert summary.stdev >= 0.0

    def test_report_renders(self):
        study = ReplicationStudy(
            base_config=ScenarioConfig(duration_days=1, total_posts=10),
            seeds=(21, 22),
        )
        study.run()
        text = study.report()
        assert "stdev" in text and "paper" in text

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            ReplicationStudy(seeds=(1,))
