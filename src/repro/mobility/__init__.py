"""Synthetic human mobility.

The paper's evaluation rode on ten real humans moving around Gainesville
for a week.  We replace them with calibrated synthetic mobility (the
substitution the reproduction banding prescribes), keeping the behavioural
features §VI calls out explicitly:

* a large sparse area (~11 km x 8 km, 88 km^2) — not the dense 0.25–4 km^2
  boxes of typical DTN simulations,
* nodes stationary at home "at least 5-8 hours a day due to the human
  requirement to sleep",
* students who share a campus and "typically interacted during the school
  week" — producing recurring weekday meetings plus chance encounters.

Models:

* :class:`~repro.mobility.base.StationaryModel` — a node that never moves,
* :class:`~repro.mobility.random_waypoint.RandomWaypoint` — the classic
  baseline (used by the medium-scale bench and the examples),
* :class:`~repro.mobility.working_day.WorkingDayMovement` — home / campus /
  social-venue schedule with sleep, the model that reproduces Fig. 4.
"""

from repro.mobility.base import MobilityModel, StationaryModel
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.working_day import DailySchedule, WorkingDayMovement
from repro.mobility.city import SyntheticCity

__all__ = [
    "MobilityModel",
    "StationaryModel",
    "RandomWaypoint",
    "DailySchedule",
    "WorkingDayMovement",
    "SyntheticCity",
]
