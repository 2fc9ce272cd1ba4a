"""Property-based end-to-end invariants over randomised small worlds.

Each example builds a random deployment (positions, follow graph, posting
pattern), runs it, and checks invariants that must hold for *any*
configuration — the properties that make the middleware trustworthy rather
than merely calibrated.

Also holds the repo-wide determinism guards: the default study, run twice
in the same process with the same seed, must produce byte-identical
traces, and the smoke study must reproduce its committed digest in fresh
processes under different hash seeds. This is the runtime contract that
``repro lint`` enforces statically.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import SosConfig
from repro.geo.point import Point
from tests.worldutil import World

NAMES = ["n0", "n1", "n2", "n3", "n4"]


def build_random_world(ca, keypair_pool, seed, protocol):
    rng = random.Random(seed)
    world = World(ca, keypair_pool, seed=seed)
    config = SosConfig(routing_protocol=protocol, relay_request_grace=0.0)
    count = rng.randint(3, 5)
    for i in range(count):
        # Cluster positions so some (not all) pairs are in range.
        x = rng.uniform(0, 260)
        y = rng.uniform(0, 60)
        world.add_user(NAMES[i], position=Point(x, y), config=config)
    names = list(world.apps)
    for follower in names:
        for followee in names:
            if follower != followee and rng.random() < 0.5:
                world.apps[follower].follow(world.apps[followee].user_id)
    world.start()
    posts = rng.randint(1, 6)
    for p in range(posts):
        author = names[rng.randrange(len(names))]
        at = rng.uniform(1.0, 600.0)
        world.sim.schedule_at(at, world.apps[author].post, f"m{p}")
    world.run(1200.0)
    return world


class TestEndToEndInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_interest_based_stores_only_interesting_content(
        self, ca, keypair_pool, seed
    ):
        world = build_random_world(ca, keypair_pool, seed, "interest")
        for name, app in world.apps.items():
            interests = set(app.follows) | {app.user_id}
            for message in app.sos.store.all_messages():
                assert message.author_id in interests, (
                    f"{name} stores content from {message.author_id} "
                    "without subscribing (IB violation)"
                )

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_message_numbers_are_contiguous_per_author(
        self, ca, keypair_pool, seed
    ):
        world = build_random_world(ca, keypair_pool, seed, "epidemic")
        for app in world.apps.values():
            own = app.sos.store.numbers_for(app.user_id)
            assert own == list(range(1, len(own) + 1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_delivery_records_are_sane(self, ca, keypair_pool, seed):
        world = build_random_world(ca, keypair_pool, seed, "interest")
        from repro.metrics.collector import TraceCollector

        collector = TraceCollector(world.sim.trace)
        seen = set()
        for delivery in collector.deliveries:
            assert delivery.delay >= 0.0
            assert delivery.hops >= 1
            assert delivery.owner != delivery.author or delivery.hops >= 1
            key = (delivery.owner, delivery.author, delivery.number)
            assert key not in seen, f"duplicate delivery {key}"
            seen.add(key)
            # Every delivered message was actually created.
            assert (delivery.author, delivery.number) in collector.messages

    @given(st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_feeds_contain_only_followed_authors(self, ca, keypair_pool, seed):
        world = build_random_world(ca, keypair_pool, seed, "epidemic")
        for app in world.apps.values():
            for entry in app.timeline():
                assert entry.author_id in app.follows or entry.author_id == app.user_id

    @given(st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_no_security_failures_between_honest_nodes(self, ca, keypair_pool, seed):
        world = build_random_world(ca, keypair_pool, seed, "interest")
        for app in world.apps.values():
            assert app.sos.adhoc.stats["security_failures"] == 0


class TestDeterminism:
    """Same seed, same process, same bytes — the trace contract."""

    def test_default_study_trace_is_reproducible(self):
        from repro.experiments.gainesville import GainesvilleStudy
        from repro.experiments.scenario import ScenarioConfig
        from tests.worldutil import trace_lines

        digests = []
        for _ in range(2):
            study = GainesvilleStudy(ScenarioConfig())
            study.run()
            payload = "\n".join(trace_lines(study.sim)).encode()
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1]

    def test_smoke_digest_is_independent_of_the_hash_seed(self):
        """The committed smoke_default point, run in fresh processes under
        PYTHONHASHSEED 0 and 12345 with no key cache, reproduces the
        trace_sha256 recorded in BENCH_default.json: no set or dict order
        that varies with the hash seed reaches the trace."""
        repo = Path(__file__).resolve().parent.parent
        baseline = json.loads((repo / "BENCH_default.json").read_text())
        runs = [run for run in baseline["runs"] if run["name"] == "smoke_default"]
        (expected,) = {run["trace_sha256"] for run in runs}
        script = (
            "import json, sys\n"
            "from repro.bench.runner import run_point\n"
            "print(run_point(json.loads(sys.argv[1]))[1])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (str(repo / "src"), env.get("PYTHONPATH")) if path
        )
        procs = {
            seed: subprocess.Popen(
                [sys.executable, "-c", script, json.dumps(runs[0]["config"])],
                cwd=repo,
                env=dict(env, PYTHONHASHSEED=seed),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "12345")
        }
        for seed, proc in procs.items():
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, f"PYTHONHASHSEED={seed}: {err}"
            assert out.strip() == expected, f"PYTHONHASHSEED={seed}"
