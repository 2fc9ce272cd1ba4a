"""The benchmark's three workloads.

Each workload is a set of :class:`repro.experiments.scenario.ScenarioConfig`
overrides plus the trace digests pinned for it and for its miniature.
Why each workload exists is recorded in ``BENCHMARK.json``.

Every workload runs at one pinned study seed.  The cost of a single study
point depends on its seed far more than on machine noise: over seeds 1-8,
``field_study``'s run phase spreads by 26% of its median (interquartile
range), because RSA keygen's prime search and the number of contacts are
random.  With the seed pinned, a run-to-run difference is a difference in
the program, and every operation is checked against a pinned digest.

Left out: an N=3000 city (``graph_stats_n1000``'s overrides at N=3000,
12 posts, social-graph stats off, which it depends on: with them the
all-pairs BFS takes ~38 s).  At 15-21 s per study point on a 2-core VM
it leaves too few operations per run to be steady; its layers (mobility,
spatial index, link diff, lazy keygen in the run phase) are measured on
``graph_stats_n1000``.

No workload sets ``medium_shards``, ``medium_halo_m``, ``medium_batched``,
``session_crypto`` or ``bulk_bootstrap``: those knobs may be removed, and
the benchmark has to keep measuring the same thing when they are.  Every
workload runs in one process at the ScenarioConfig defaults of
``provisioning_workers`` (1) and ``key_bits`` (1024).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict

#: The study seed of every workload (the ScenarioConfig default).
STUDY_SEED = 2017
#: The benchmark-owned on-disk key cache of the warm-cache workloads.
KEY_CACHE_DIR = Path(__file__).resolve().parent / "out" / "keys"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ScenarioConfig overrides.
    overrides: Dict[str, Any]
    #: Overrides that scale the workload down to a miniature for the
    #: warm-up op and the self-tests: same shape, smaller N / posts / days
    #: and 800-bit keys (the smallest that still fit an OAEP-wrapped
    #: 32-byte session key).
    miniature: Dict[str, Any]
    #: trace_sha256 of the full-size run.
    digest: str
    #: trace_sha256 of the miniature.
    mini_digest: str
    #: Provision from ``KEY_CACHE_DIR``, warmed before any timing.
    warm_keys: bool = False

    def config(self, mini: bool = False):
        """The ScenarioConfig of one run (of the miniature with ``mini``)."""
        from repro.experiments.scenario import ScenarioConfig

        overrides = dict(self.overrides)
        if self.warm_keys:
            overrides["key_cache_dir"] = str(KEY_CACHE_DIR)
        if mini:
            overrides.update(self.miniature)
        return ScenarioConfig(seed=STUDY_SEED, **overrides)


def key_cache_state(config: Any) -> str:
    """"none" (eager keygen, no pool), "cold" (memory-only pool: every key
    is generated in the operation) or "warm" (pool over the warmed disk
    cache)."""
    if config.key_cache_dir:
        return "warm"
    return "none" if config.provisioning == "eager" else "cold"


def _mini(**overrides: Any) -> Dict[str, Any]:
    return dict(overrides, key_bits=800)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="field_study",
            overrides={},
            miniature=_mini(duration_days=1, total_posts=30),
            digest="cdb25e7318f32a8f37196fc58e3812d90cd6627b034ffe3ad52994b2ee079627",
            mini_digest="30113de3912863fd3eaf36b8cc584c2fc4c6ff1d4b5afdea7044601d3dee0694",
        ),
        Workload(
            name="crowd_epidemic",
            overrides=dict(
                num_users=40,
                duration_days=1,
                total_posts=200,
                area=(2_000.0, 2_000.0),
                social_graph="degree_bounded",
                routing_protocol="epidemic",
                provisioning="pooled",
                duty_cycle=False,
            ),
            miniature=_mini(num_users=12, total_posts=30),
            digest="381ab55dbeae5cf17bf42f5208198b7c25f95e6e2456ec4971a06b82ce60979f",
            mini_digest="5a51c70429db5982d3fb2ed89a0fdad5f3d9a44390ec50b32876504a03d64dc5",
            warm_keys=True,
        ),
        Workload(
            name="graph_stats_n1000",
            overrides=dict(
                num_users=1000,
                duration_days=1,
                total_posts=4,
                area=(10_000.0, 10_000.0),
                social_graph="degree_bounded",
                provisioning="lazy",
                require_encryption=False,
                medium_tick_s=300.0,
            ),
            miniature=_mini(num_users=120, total_posts=2, area=(2_000.0, 2_000.0)),
            digest="37a405f9b456e78e7fdb4ed785afe921f09a9a184c0b38a76097e12b5cd0bba8",
            mini_digest="1476ca342250cd56b1142cce00481fee61295ab6cf57b7c5637fe53339cbad2b",
        ),
    )
}
