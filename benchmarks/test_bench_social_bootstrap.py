"""E10 (extension) — bulk social-graph bootstrap.

With RSA keygen off the large-N build path, the next build bottleneck is
day-0 follow-graph *wiring*: ``AlleyOopApp.follow`` runs a full cloud
sync round, an interest-set rebuild, a log append and a trace emit **per
edge**, and the dense ``hub_and_cluster`` generator makes that O(N²)
edges.  The study's day-0 wiring (``AlleyOopApp.follow_many`` +
``CloudService.sync_batch``) collapses a user's whole follow list to one
interest update, one compact FOLLOW_MANY log record, one aggregated
trace event and one cloud round.  The per-edge wiring lives on as a test
oracle, ``PerEdgeStudy`` in ``tests/wiring_oracle.py``.  This bench
enforces two contracts against it:

* **wiring speed** — ≥ 10x faster day-0 wiring at N=2000 on the dense
  Fig. 4a-shaped graph (the regime the ROADMAP names: ~1.9M edges),
* **equivalence** — across the two wirings, byte-identical
  delivery/delay traces, identical subscription windows and identical
  recorded follow lists, for the default 10-user field study *and* a
  secured N=500 world on the sparse ``powerlaw_cluster`` generator.

Run just this bench with::

    PYTHONPATH=src python -m pytest benchmarks -k social_bootstrap -q
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

import pytest

from repro.experiments import GainesvilleStudy, ScenarioConfig
from repro.metrics.report import format_table
from tests.wiring_oracle import PerEdgeStudy

#: The wiring-speed regime (dense graph: ~1.9M directed edges).
SCALE_N = 2000
#: Build-only worlds never run packet crypto, so small keys are fine;
#: their configs pass ``require_encryption=False``, which such keys need.
BUILD_BITS = 512
SEED = 2027


class _TimedWiring(GainesvilleStudy):
    """Records how long the day-0 follow wiring itself took."""

    wiring_seconds: float = 0.0

    def _wire_day0_follows(self) -> None:
        gc.collect()
        start = time.process_time()
        super()._wire_day0_follows()
        self.wiring_seconds = time.process_time() - start


class _TimedPerEdgeWiring(_TimedWiring, PerEdgeStudy):
    """The per-edge oracle's wiring, timed the same way."""


def _build(num_users: int, bulk: bool, social_graph: str) -> _TimedWiring:
    config = ScenarioConfig(
        num_users=num_users,
        duration_days=1,
        total_posts=0,
        seed=SEED,
        key_bits=BUILD_BITS,
        require_encryption=False,
        provisioning="lazy",
        social_graph=social_graph,
    )
    study = (_TimedWiring if bulk else _TimedPerEdgeWiring)(config)
    study.build()
    return study


def test_bench_wiring_speedup_at_scale():
    """The tentpole contract: ≥ 10x faster day-0 wiring at N=2000 on the
    dense generator, with one cloud round per *user* instead of per
    *edge*; the sparse families are reported alongside."""
    rows: List[Tuple] = []
    dense_speedup = None
    for kind in ("hub_and_cluster", "degree_bounded", "powerlaw_cluster"):
        bulk = _build(SCALE_N, True, kind)
        edge = _build(SCALE_N, False, kind)
        edges = bulk.social_graph.edge_count
        assert edge.social_graph.edge_count == edges
        followers = {a for a, _ in bulk.social_graph.edges()}
        # One round per user vs one per edge — the §V sync-cost contract.
        assert bulk.cloud.stats["syncs"] == len(followers)
        assert edge.cloud.stats["syncs"] == edges
        speedup = edge.wiring_seconds / bulk.wiring_seconds
        if kind == "hub_and_cluster":
            dense_speedup = speedup
        rows.append(
            (
                kind,
                edges,
                f"{edge.wiring_seconds:.2f}",
                f"{bulk.wiring_seconds:.3f}",
                f"{speedup:.1f}x",
            )
        )
        del bulk, edge
        gc.collect()
    print()
    print(
        format_table(
            f"Day-0 follow wiring, N={SCALE_N} (seconds, CPU)",
            ("social graph", "edges", "per-edge", "bulk", "speedup"),
            rows,
        )
    )
    assert dense_speedup >= 10.0


# -- equivalence oracle ----------------------------------------------------------
# The oracle helpers are shared with tests/test_experiments.py (same
# contract, smaller worlds there): see tests/worldutil.py.


def _assert_modes_equivalent(config_kwargs: dict) -> Tuple[int, int]:
    """Run the study and the per-edge oracle and assert everything the
    analysis consumes is identical.  Returns (trace lines, deliveries)
    for sanity checks."""
    from tests.worldutil import followed_sequences, subscription_windows, trace_lines

    traces, windows, followed, ratios = {}, {}, {}, {}
    for bulk, study_cls in ((True, GainesvilleStudy), (False, PerEdgeStudy)):
        study = study_cls(ScenarioConfig(**config_kwargs))
        result = study.run()
        traces[bulk] = trace_lines(study.sim, exclude_category="social")
        windows[bulk] = subscription_windows(study.sim)
        followed[bulk] = followed_sequences(study.apps)
        ratios[bulk] = result.delivery.overall_delivery_ratio()
        del study, result
        gc.collect()
    assert traces[True] == traces[False]
    assert windows[True] and windows[True] == windows[False]
    assert followed[True] == followed[False]
    assert ratios[True] == ratios[False]
    received = sum(1 for line in traces[True] if "|message|received|" in line)
    return len(traces[True]), received


def test_bench_default_study_equivalence():
    """The acceptance bar, part 1: the default 10-user, 7-day field study
    produces byte-identical delivery/delay traces across wiring modes."""
    lines, received = _assert_modes_equivalent({})
    assert received > 0


def test_bench_secured_n500_equivalence():
    """The acceptance bar, part 2: a secured (session-crypto, lazy-keys)
    N=500 world on the sparse powerlaw_cluster generator — the scenario
    the bulk path exists for — is mode-invariant too."""
    lines, received = _assert_modes_equivalent(
        dict(
            num_users=500,
            duration_days=1,
            total_posts=40,
            seed=SEED,
            provisioning="lazy",
            social_graph="powerlaw_cluster",
        )
    )
    assert received > 0


@pytest.mark.bench_smoke
def test_bench_social_bootstrap_smoke():
    """Tiny rot guard for CI lanes: the wiring-speed contract at N=300
    (reduced bar) and cross-mode equivalence on a 16-user day."""
    bulk = _build(300, True, "hub_and_cluster")
    edge = _build(300, False, "hub_and_cluster")
    followers = {a for a, _ in bulk.social_graph.edges()}
    assert bulk.cloud.stats["syncs"] == len(followers)
    assert edge.cloud.stats["syncs"] == edge.social_graph.edge_count
    assert edge.wiring_seconds / bulk.wiring_seconds >= 3.0  # reduced bar
    del bulk, edge
    gc.collect()

    lines, received = _assert_modes_equivalent(
        dict(num_users=16, duration_days=1, total_posts=15, seed=41)
    )
    assert lines > 0
