"""Self-tests of the benchmark.

Span self-time arithmetic, wrapper install/restore, names matching
``BENCHMARK.json``, and a miniature of each workload whose traced and
untraced trace digests agree.  Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(section):
    return {metric["name"] for metric in SPEC[section]}


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ["sim.loop", -1, 0.0, 10.0],
        ["alleyoop.app", 0, 1.0, 6.0],  # a post ...
        ["pki.keygen", 1, 2.0, 5.0],  # ... that materialises a key lazily
        ["net.medium", 0, 7.0, 9.0],
        ["net.medium", 3, 7.5, 8.0],  # a layer calling into itself
    ]
    assert layers.self_times(spans) == {
        "sim.loop": 3.0, "alleyoop.app": 2.0, "pki.keygen": 3.0, "net.medium": 2.0,
    }
    assert layers.outer_calls(spans) == {
        "sim.loop": 1, "alleyoop.app": 1, "pki.keygen": 1, "net.medium": 1,
    }


def test_tracer_nests_spans_and_counts_at_the_boundary():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("pki.keygen", lambda: "key", [("keys", None)])
    outer = tracer.wrap(
        "alleyoop.app", lambda: inner() + inner(), [("chars", lambda args, result: len(result))]
    )

    def broken():
        raise ValueError("boom")

    failing = tracer.wrap("crypto.rsa", broken, [("tries", None), ("chars", lambda a, r: 1)])
    assert outer() == "keykey"
    with pytest.raises(ValueError):
        failing()
    assert tracer.spans == [
        ["alleyoop.app", -1, 0.0, 5.0],
        ["pki.keygen", 0, 1.0, 2.0],
        ["pki.keygen", 0, 3.0, 4.0],
        ["crypto.rsa", -1, 6.0, 7.0],
    ]
    assert layers.self_times(tracer.spans) == {
        "alleyoop.app": 3.0, "pki.keygen": 2.0, "crypto.rsa": 1.0,
    }
    assert tracer.counters == {"keys": 2, "chars": 6, "tries": 1}


def test_install_wraps_and_restore_puts_back_the_originals():
    from repro.alleyoop.cloud import CloudService
    from repro.mobility.base import MobilityModel
    from repro.pki import provisioning
    from repro.sim.engine import Simulator
    from repro.social import metrics

    targets = [
        (Simulator, "run"),
        (provisioning, "generate_keypair"),
        (MobilityModel, "positions_at"),
        (metrics, "diameter"),
        (CloudService, "sync_batch"),
    ]
    originals = [vars(owner)[name] for owner, name in targets]
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        assert tracer.patched > 40
        for (owner, name), original in zip(targets, originals):
            assert vars(owner)[name] is not original
        assert isinstance(vars(MobilityModel)["positions_at"], classmethod)
    finally:
        tracer.restore()
    assert tracer.patched == 0
    for (owner, name), original in zip(targets, originals):
        assert vars(owner)[name] is original


def _op(setup, slices, analyses, probe=run.REFERENCE_S):
    """An operation whose CPU time equals its wall time, on a host where
    every reference chunk takes ``probe`` seconds."""
    padded = slices + [0.0] * (run.SLICES - len(slices))
    chunk = (probe, probe)
    return run.Op(
        (setup, setup),
        [(s, s) for s in padded],
        [(a, a) for a in analyses],
        [chunk] * run.SETUP_PROBES,
        [chunk] * run.SLICES,
        [chunk] * len(analyses),
        "d",
    )


def test_workload_and_end_to_end_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    config = WORKLOADS["graph_stats_n1000"].config()
    ops = [
        _op(1.0, [1.0, 1.5], [0.5, 0.7, 0.1]),
        _op(1.2, [1.2, 1.0], [0.4]),
        _op(1.1, [0.9, 1.4], [0.6, 0.3]),
    ]
    metrics = run.end_to_end(ops, config)
    assert set(metrics) == _names("end_to_end")
    # Medians over operations: set-up, each slice, each operation's fastest analysis.
    assert metrics["setup_s"] == pytest.approx(1.1)
    assert metrics["run_s"] == pytest.approx(1.0 + 1.4)
    assert metrics["analyse_s"] == pytest.approx(0.3)
    assert metrics["wall_s"] == pytest.approx(1.1 + 2.4 + 0.3)
    assert metrics["cpu_s"] == pytest.approx(metrics["wall_s"])
    assert metrics["device_hours_per_s"] == pytest.approx(1000 * 24 / 2.4)


def test_times_are_scaled_by_the_reference_chunks_around_them():
    slow = _op(2.0, [2.0, 3.0], [1.0], probe=2 * run.REFERENCE_S)
    assert slow.scaled(0) == pytest.approx((1.0, [1.0, 1.5] + [0.0] * (run.SLICES - 2), 0.5))
    assert slow.raw_total(1) == pytest.approx(2.0 + 5.0 + 1.0)
    # A burst that slows the reference chunks after the last few slices
    # scales only the slices within PROBE_WINDOW of them.
    burst = _op(1.0, [1.0] * run.SLICES, [1.0])
    last = run.SLICES - 1
    for k in range(last - run.PROBE_WINDOW, last + 1):
        burst.slice_probes[k] = (2 * run.REFERENCE_S,) * 2
    scaled = burst.scaled(0)[1]
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[last] == pytest.approx(0.5)
    # Set-up is scaled by the host's mean speed over the chunks that
    # interrupted it: half the time at full speed, half at half speed.
    burst.setup_probes += [(run.REFERENCE_S,) * 2, (2 * run.REFERENCE_S,) * 2]
    assert burst.scaled(0)[0] == pytest.approx(0.75)


def test_sampling_interrupts_a_long_piece_and_is_taken_out_of_its_time():
    handler = signal.getsignal(signal.SIGALRM)
    probes = []
    start = run.clocks()
    with run.sampled(probes, True):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    wall, _ = run.timed_piece(start, probes, 0)
    assert len(probes) >= 3
    assert wall == pytest.approx(0.3 - sum(p[0] for p in probes), abs=0.02)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_kernel_is_fixed():
    wall, cpu = reference.probe()
    assert 0.0 < wall < 1.0 and 0.0 <= cpu < 1.0
    assert reference._KERNEL.chunk() == reference.CHECKSUM


def test_key_cache_state_follows_the_config():
    states = {name: workloads.key_cache_state(w.config()) for name, w in WORKLOADS.items()}
    assert states == {"field_study": "none", "crowd_epidemic": "warm", "graph_stats_n1000": "cold"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_miniature_traced_run_matches_untraced(name):
    workload = WORKLOADS[name]
    # Both operations are held to the same pinned digest.
    checker = run.Checker(workload.mini_digest)
    metrics, tracer = run.trace(workload.config(mini=True), checker)
    assert (checker.attempted, checker.failed) == (2, 0)
    assert tracer.patched == 0
    assert set(metrics) == _names("per_layer")
    assert metrics["trace.coverage"] > 0.9
