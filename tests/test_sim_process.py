"""Tests for the one-shot and periodic timers."""

import pytest

from repro.sim import PeriodicTimer, Simulator, Timer


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_restart_supersedes_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.start(10.0)
        sim.run()
        assert fired == [10.0]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(5.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_pending_reflects_state(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert not timer.pending
        timer.start(1.0)
        assert timer.pending
        sim.run()
        assert not timer.pending


class TestPeriodicTimer:
    def test_fires_at_fixed_period(self):
        sim = Simulator()
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: times.append(sim.now))
        timer.start()
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: times.append(sim.now))
        timer.start()
        sim.schedule_at(25.0, timer.stop)
        sim.run(until=100.0)
        assert times == [10.0, 20.0]

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)

    def test_start_is_idempotent(self):
        sim = Simulator()
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: times.append(sim.now))
        timer.start()
        timer.start()
        sim.run(until=15.0)
        assert times == [10.0]

