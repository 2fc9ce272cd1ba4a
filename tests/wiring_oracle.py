"""The per-edge reference wiring: the seed day-0 follow bootstrap.

:class:`PerEdgeStudy` replaces
:meth:`repro.experiments.gainesville.GainesvilleStudy._wire_day0_follows`
with the seed's loop: one :meth:`repro.alleyoop.app.AlleyOopApp.follow`
per day-0 edge, so every edge pays its own interest-set update, FOLLOW
log record, ``social``/``follow`` trace event and cloud sync round.  The
study wires each user's whole list through ``follow_many`` instead.

The equivalence tests (``tests/test_experiments.py``) and the bootstrap
bench (``benchmarks/test_bench_social_bootstrap.py``) run worlds under
both wirings and require byte-identical delivery/delay traces, identical
subscription windows and identical follow lists; the bench also
measures the bulk wiring's speed against this one.
"""

from __future__ import annotations

from repro.experiments.gainesville import GainesvilleStudy


class PerEdgeStudy(GainesvilleStudy):
    """A study whose day-0 wiring runs one ``follow`` per edge."""

    def _wire_day0_follows(self) -> None:
        for follower, followee in self._initial_subscriptions():
            self.apps[follower].follow(self.user_ids[followee])
