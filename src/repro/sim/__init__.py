"""Deterministic discrete-event simulation substrate.

Every other subsystem in this reproduction (radios, mobility, the SOS
middleware, the AlleyOop Social application) runs on top of this engine.
The engine is deliberately small and auditable:

* a binary-heap event queue ordered by ``(time, sequence)``,
* a monotonically advancing simulation clock,
* named, independently seeded random streams (:class:`RandomStreams`) so
  that, e.g., mobility noise and message-creation times are decoupled and
  each experiment is reproducible from a single seed,
* a structured trace recorder (:class:`TraceRecorder`) used by the
  evaluation harness to reconstruct delays, hops and map overlays.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator(seed=7)
>>> fired = []
>>> sim.schedule_at(5.0, lambda: fired.append(sim.now))
<repro.sim.engine.Event ...>
>>> sim.run(until=10.0)
>>> fired
[5.0]
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.process import Timer, PeriodicTimer
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceRecorder, TraceEvent

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "Timer",
    "PeriodicTimer",
    "RandomStreams",
    "TraceRecorder",
    "TraceEvent",
]
