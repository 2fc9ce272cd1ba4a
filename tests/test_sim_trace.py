"""Tests for the trace recorder."""

from repro.sim import Simulator
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_subscribers_receive_live_events(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.emit(1.0, "a", "x", v=1)
        assert seen[0].data == {"v": 1}

    def test_simulator_trace_integration(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: sim.trace.emit(sim.now, "test", "tick"))
        sim.run()
        events = [e for e in sim.trace if e.category == "test"]
        assert events[0].time == 3.0
