"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(9.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, lambda: order.append("first"))
        sim.schedule_at(1.0, lambda: order.append("second"))
        sim.schedule_at(0.5, lambda: order.append("earlier"))
        sim.schedule_at(1.0, lambda: order.append("third"))
        sim.run()
        assert order == ["earlier", "first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(10.0, lambda: sim.schedule_in(5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15.0]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_in(-1.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_time_or_delay_raises(self, bad):
        # Accepted, a NaN time would run ahead of earlier events and set
        # the clock to NaN; no caller schedules at infinity.
        sim = Simulator()
        ran = []
        sim.schedule_at(1.0, lambda: ran.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: ran.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule_in(bad, lambda: ran.append(sim.now))
        sim.run()
        assert ran == [1.0]

    def test_args_are_passed(self):
        sim = Simulator()
        got = []
        sim.schedule_at(1.0, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule_at(1.0, lambda: ran.append(1))
        event.cancel()
        sim.run()
        assert ran == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        event = sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events == 1


class TestOrderThroughCompaction:
    """Equal times run first-in first-out, however cancellations and
    heap compactions interleave with the scheduling."""

    def _world(self):
        sim = Simulator()
        sim.COMPACT_MIN_CANCELLED = 8  # compact every few cancellations
        compactions = []
        compact = sim._compact

        def counted_compact():
            compactions.append(len(sim._heap))
            compact()

        sim._compact = counted_compact
        fired = []
        owner = object()
        live = []  # [time, insertion index, tagged, event] of survivors
        for index in range(240):
            time = (5.0, 7.0, 5.0, 6.0)[index % 4]  # equal times, mixed
            tagged = index % 5 < 3
            event = sim.schedule_at(
                time, fired.append, index, owner=owner if tagged else None
            )
            live.append([time, index, tagged, event])
            if index % 3:  # cancel an earlier event, interleaved
                victim = live.pop(len(live) // 2)
                victim[3].cancel()
        return sim, fired, owner, live, compactions

    def test_fifo_within_equal_times(self):
        sim, fired, _, live, compactions = self._world()
        assert len(compactions) >= 2
        assert sim.pending_events == len(live)
        sim.run()
        assert fired == [index for _, index, _, _ in sorted(live)]

    def test_cancel_owned_and_pending_events_count(self):
        sim, fired, owner, live, compactions = self._world()
        tagged = [entry for entry in live if entry[2]]
        assert tagged
        before = len(compactions)
        assert sim.cancel_owned(owner) == len(tagged)
        assert len(compactions) > before  # cancel_owned itself compacted
        assert sim.cancel_owned(owner) == 0
        survivors = [entry for entry in live if not entry[2]]
        assert sim.pending_events == len(survivors)
        assert sim.run() == len(survivors)
        assert fired == [index for _, index, _, _ in sorted(survivors)]
        assert sim.pending_events == 0


class TestRunBounds:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        ran = []
        sim.schedule_at(1.0, lambda: ran.append(1))
        sim.schedule_at(100.0, lambda: ran.append(2))
        sim.run(until=50.0)
        assert ran == [1]
        assert sim.now == 50.0

    def test_until_advances_clock_even_when_queue_drains(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        ran = []
        sim.schedule_at(50.0, lambda: ran.append(1))
        sim.run(until=50.0)
        assert ran == [1]

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        ran = []
        sim.schedule_at(1.0, lambda: sim.schedule_in(1.0, lambda: ran.append("child")))
        sim.run()
        assert ran == ["child"]
        assert sim.now == 2.0


class TestStepHooks:
    def test_hook_called_after_each_event(self):
        sim = Simulator()
        times = []
        sim.add_step_hook(times.append)
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert times == [1.0, 2.0]


class TestDeterminism:
    def test_same_seed_same_stream_draws(self):
        a = Simulator(seed=99).streams.get("x")
        b = Simulator(seed=99).streams.get("x")
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]

    def test_different_streams_are_independent(self):
        sim = Simulator(seed=99)
        a = [sim.streams.get("a").random() for _ in range(5)]
        b = [sim.streams.get("b").random() for _ in range(5)]
        assert a != b
