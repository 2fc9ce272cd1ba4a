"""E9 (extension) — identity provisioning: keypair pool + lazy sign-up.

PR 1 batched contact detection and PR 2 amortised packet crypto; the
remaining secured-run bottleneck is world *construction*: the paper's
Fig. 2a sign-up generates one RSA key pair per user, so a 2000-user
secured density sweep pays minutes of keygen before the first simulated
second.  :mod:`repro.pki.provisioning` removes that cost (pooled keys
cached across sweeps; lazy keys only materialised on first secured use).
This bench enforces the ISSUE-4 contracts:

* **build speed** — ≥ 10x faster secured world build at N=500 for both
  pooled (warm cache) and lazy provisioning over the eager reference,
* **equivalence** — byte-identical delivery/delay traces for the default
  10-user Gainesville reconstruction across all three provisioning modes.

The N=500 world uses a sparse ring follow-graph so the measurement
isolates provisioning cost rather than follow-list wiring, and 512-bit
keys (the build never runs packet crypto, so the OAEP size floor does
not apply) to keep the eager leg affordable.

Run just this bench with::

    PYTHONPATH=src python -m pytest benchmarks -k provisioning -q
"""

from __future__ import annotations

import gc
import time
from typing import Tuple

import pytest

from repro.bench.traceid import trace_lines
from repro.experiments import GainesvilleStudy, ScenarioConfig
from repro.metrics.report import format_table
from repro.pki.provisioning import CA_INDEX, KeypairPool
from repro.social.digraph import SocialDigraph

#: The density regime the sweep bench targets (users in the study area).
SCALE_N = 500
#: Build-only worlds never wrap session masters, so small keys are fine;
#: their configs pass ``require_encryption=False``, which such keys need.
BUILD_BITS = 512
SEED = 2026


class _SparseWorld(GainesvilleStudy):
    """The N=500 build-bench world: a ring follow-graph (one follow per
    user) so world build time is provisioning + mobility, not the O(N^2)
    follow wiring of the hub-and-cluster generator."""

    def _make_social_graph(self) -> SocialDigraph:
        n = self.config.num_users
        return SocialDigraph.from_edges(
            ((i, i % n + 1) for i in range(1, n + 1)), nodes=range(1, n + 1)
        )


def _build_config(provisioning: str, cache_dir: str) -> ScenarioConfig:
    return ScenarioConfig(
        num_users=SCALE_N,
        duration_days=1,
        total_posts=0,
        seed=SEED,
        key_bits=BUILD_BITS,
        require_encryption=False,
        provisioning=provisioning,
        key_cache_dir=cache_dir,
    )


def _timed_build(config: ScenarioConfig) -> Tuple[GainesvilleStudy, float]:
    gc.collect()
    study = _SparseWorld(config)
    start = time.process_time()
    study.build()
    return study, time.process_time() - start


def test_bench_world_build_speedup(tmp_path):
    """The tentpole contract: ≥ 10x faster secured world build at N=500
    under pooled (warm cache) and lazy provisioning."""
    cache = str(tmp_path / "keys")
    eager_study, eager_s = _timed_build(_build_config("eager", cache))
    assert all(
        app.sos.adhoc.keystore.materialized for app in eager_study.apps.values()
    )

    # One-time pool warm-up of every user's key pair and the CA's: this
    # is the cost repeated sweeps amortise away (reported, not asserted —
    # it is ordinary eager-rate keygen).
    warm_start = time.perf_counter()
    pool = KeypairPool(cache)
    warmed = pool.prefetch(BUILD_BITS, SEED, range(SCALE_N))
    pool.get(BUILD_BITS, SEED, CA_INDEX)
    warm_s = time.perf_counter() - warm_start
    assert warmed == SCALE_N

    pooled_study, pooled_s = _timed_build(_build_config("pooled", cache))
    assert pooled_study.keypair_pool.stats["generated"] == 0
    assert pooled_study.keypair_pool.stats["disk_hits"] == SCALE_N + 1

    lazy_study, lazy_s = _timed_build(_build_config("lazy", cache))
    assert not any(
        app.sos.adhoc.keystore.materialized for app in lazy_study.apps.values()
    )

    print()
    print(
        format_table(
            f"Secured world build, N={SCALE_N} ({BUILD_BITS}-bit keys, seconds)",
            ("provisioning", "build", "speedup"),
            [
                ("eager (reference)", f"{eager_s:.2f}", ""),
                ("pool warm-up (once)", f"{warm_s:.2f}", ""),
                ("pooled (warm cache)", f"{pooled_s:.2f}", f"{eager_s / pooled_s:.1f}x"),
                ("lazy", f"{lazy_s:.2f}", f"{eager_s / lazy_s:.1f}x"),
            ],
        )
    )
    # The bound holds for the world it is meant for: the ring, one follow
    # per user, not a generated graph whose wiring would swamp the build.
    for study in (eager_study, pooled_study, lazy_study):
        assert study.social_graph.edge_count == SCALE_N
    assert eager_s / pooled_s >= 10.0
    assert eager_s / lazy_s >= 10.0


def test_bench_default_study_equivalence_across_modes(study, study_result, tmp_path):
    """The acceptance bar: the default 10-user field study produces
    byte-identical delivery/delay traces under all three provisioning
    modes.  Eager is the oracle: the shared ``study`` fixture, already
    checked against BENCH_default.json.  Pooled fills a fresh key cache,
    CA key included, and lazy reads it back."""
    traces = {"eager": trace_lines(study.sim)}
    deliveries = {"eager": study_result.delivery.overall_delivery_ratio()}
    for mode in ("pooled", "lazy"):
        mode_study = GainesvilleStudy(
            ScenarioConfig(provisioning=mode, key_cache_dir=str(tmp_path / "keys"))
        )
        result = mode_study.run()
        traces[mode] = trace_lines(mode_study.sim)
        deliveries[mode] = result.delivery.overall_delivery_ratio()
    assert any("|message|received|" in line for line in traces["eager"])
    assert traces["pooled"] == traces["eager"]
    assert traces["lazy"] == traces["eager"]
    assert deliveries["pooled"] == deliveries["eager"]
    assert deliveries["lazy"] == deliveries["eager"]


@pytest.mark.bench_smoke
def test_bench_provisioning_smoke(tmp_path):
    """Tiny rot guard for CI lanes: the build-speed contract at N=24
    (reduced bar) and cross-mode trace equivalence on a 4-user day."""
    cache = str(tmp_path / "keys")
    small = dict(num_users=24, duration_days=1, total_posts=0, seed=SEED,
                 key_bits=BUILD_BITS, require_encryption=False, key_cache_dir=cache)
    _, eager_s = _timed_build(ScenarioConfig(provisioning="eager", **small))
    lazy_study, lazy_s = _timed_build(ScenarioConfig(provisioning="lazy", **small))
    assert not any(
        app.sos.adhoc.keystore.materialized for app in lazy_study.apps.values()
    )
    assert eager_s / lazy_s >= 3.0  # reduced bar at smoke sizes

    config = dict(num_users=4, duration_days=1, total_posts=20, seed=77,
                  key_cache_dir=cache)
    traces = {}
    for mode in ("eager", "pooled", "lazy"):
        study = GainesvilleStudy(ScenarioConfig(provisioning=mode, **config))
        study.run()
        traces[mode] = trace_lines(study.sim)
    assert traces["pooled"] == traces["eager"]
    assert traces["lazy"] == traces["eager"]
