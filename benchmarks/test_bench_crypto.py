"""E8 (extension) — per-link session crypto vs. per-packet hybrid RSA.

PR 1 made contact detection cheap; the per-packet security pipeline
(§III-D) then dominated every secured run: a full hybrid-RSA envelope
plus an RSA signature/verify **per packet**.  The session layer
(:mod:`repro.crypto.session`) pays RSA once per link direction and
protects packets with ChaCha20+HMAC under hkdf-derived keys.  This bench
enforces the ISSUE-2 contracts:

* **throughput** — >= 5x secured-packet rounds/second (sender encrypt +
  receiver decrypt/authenticate) over the paper's per-packet pipeline
  (:class:`repro.core.adhoc.PerPacketChannel`),
* **equivalence** — byte-identical delivery/delay traces on the default
  10-user Gainesville reconstruction with that pipeline swapped in for
  the session layer (CI's equivalence step runs this exact half), plus
  an end-to-end CPU-time speedup of the same pair of runs.

Run just this bench (tiny smoke sizes included) with::

    PYTHONPATH=src python -m pytest benchmarks -k crypto -q
"""

from __future__ import annotations

import gc
import time
from typing import Callable, List, Tuple

import pytest

from repro.bench.traceid import trace_lines
from repro.core.adhoc import PerPacketChannel
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.crypto.session import SecureChannel
from repro.experiments import GainesvilleStudy, ScenarioConfig
from repro.metrics.report import format_table

PAYLOAD = b"x" * 700  # a typical DATA packet: body + author cert + signature


def _keys():
    """Deterministic 1024-bit endpoints (the simulation key size)."""
    alice = generate_keypair(1024, rng=HmacDrbg.from_int(41))
    bob = generate_keypair(1024, rng=HmacDrbg.from_int(42))
    return alice, bob


def _round(channel, alice, bob) -> Callable[[], None]:
    """One secured packet through a ``channel`` pair: the sender's encrypt,
    then the receiver's decrypt and authentication."""
    sender = channel("alice", "bob", alice.private, bob.public, HmacDrbg.from_int(7))
    receiver = channel("bob", "alice", bob.private, alice.public, HmacDrbg.from_int(8))

    def round_trip() -> None:
        frame = sender.encrypt(PAYLOAD, now=0.0)
        assert receiver.decrypt(frame, now=0.0) == PAYLOAD

    return round_trip


def _packets_per_second(round_trip: Callable[[], None], packets: int, repeats: int) -> float:
    """Best-of-``repeats`` CPU-time rate, GC paused (same measurement
    discipline as the medium-scale bench: survives noisy shared runners)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.process_time()
            for _ in range(packets):
                round_trip()
            best = min(best, time.process_time() - start)
    finally:
        if enabled:
            gc.enable()
    return packets / best


def _throughput_rows(packets: int, repeats: int) -> Tuple[float, List[Tuple]]:
    alice, bob = _keys()
    session_pps = _packets_per_second(_round(SecureChannel, alice, bob), packets, repeats)
    legacy_pps = _packets_per_second(_round(PerPacketChannel, alice, bob), packets, repeats)
    speedup = session_pps / legacy_pps
    rows = [
        ("legacy per-packet RSA", f"{legacy_pps:,.0f}"),
        ("per-link session", f"{session_pps:,.0f}"),
        ("speedup", f"{speedup:.1f}x"),
    ]
    return speedup, rows


def test_bench_secured_packet_throughput():
    """The tentpole contract: >= 5x secured-packet rounds/second."""
    speedup, rows = _throughput_rows(packets=200, repeats=3)
    print()
    print(
        format_table(
            f"Secured-packet throughput ({len(PAYLOAD)}-byte payload, rounds/second)",
            ("pipeline", "packets/s"),
            rows,
        )
    )
    if speedup < 5.0:  # remeasure before judging a noisy sample
        speedup, _ = _throughput_rows(packets=400, repeats=4)
    assert speedup >= 5.0


def test_bench_session_rsa_amortised():
    """RSA runs once per direction regardless of packet count — the
    amortisation the whole design exists for."""
    alice, bob = _keys()
    sender = SecureChannel("alice", "bob", alice.private, bob.public, HmacDrbg.from_int(7))
    receiver = SecureChannel("bob", "alice", bob.private, alice.public, HmacDrbg.from_int(8))
    for _ in range(500):
        receiver.decrypt(sender.encrypt(PAYLOAD, now=0.0), now=0.0)
    assert sender.stats["keys_established"] == 1
    assert receiver.stats["keys_accepted"] == 1
    assert sender.stats["frames_sent"] == 500


def _run_study(config: ScenarioConfig) -> Tuple[GainesvilleStudy, float]:
    study = GainesvilleStudy(config)
    start = time.process_time()
    study.run()
    return study, time.process_time() - start


def _run_study_pair(config: ScenarioConfig):
    """``config`` under the session layer, then with the per-packet
    pipeline swapped in: each study and its CPU seconds (build + run +
    analysis)."""
    session_study, session_s = _run_study(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.adhoc.SecureChannel", PerPacketChannel)
        legacy_study, legacy_s = _run_study(config)
    return session_study, session_s, legacy_study, legacy_s


@pytest.fixture(scope="module")
def default_study_pair():
    """The default 10-user field study under both channels."""
    return _run_study_pair(ScenarioConfig())


def test_bench_crypto_default_study_equivalence(default_study_pair):
    """The default field study replays byte-identically under both crypto
    modes (exact, so host-independent: CI runs it)."""
    session_study, _, legacy_study, _ = default_study_pair
    session_lines = trace_lines(session_study.sim)
    assert session_lines == trace_lines(legacy_study.sim)
    assert any("|message|received|" in line for line in session_lines)
    # Key establishment really was amortised: far fewer RSA envelopes
    # than secured packets.
    stats = {}
    for app in session_study.apps.values():
        for key, value in app.sos.security_stats.items():
            stats[key] = stats.get(key, 0) + value
    assert 0 < stats["session_keys_established"] < stats["packets_sent"] / 4


def test_bench_crypto_default_study_speedup(default_study_pair):
    """The session mode is measurably faster end to end."""
    _, session_s, _, legacy_s = default_study_pair
    print()
    print(
        format_table(
            "Default Gainesville study, end to end (seconds)",
            ("crypto mode", "cpu", "speedup"),
            [
                ("legacy per-packet RSA", f"{legacy_s:.2f}", ""),
                ("per-link session", f"{session_s:.2f}", f"{legacy_s / session_s:.2f}x"),
            ],
        )
    )
    # End-to-end speedup (conservative bound; measured ~1.6-1.8x).
    assert legacy_s / session_s >= 1.2


@pytest.mark.bench_smoke
def test_bench_crypto_smoke():
    """Tiny rot guard for CI lanes: the throughput contract at reduced
    sample size and a 4-user/1-day cross-mode trace equivalence."""
    speedup, _ = _throughput_rows(packets=40, repeats=2)
    assert speedup >= 3.0  # reduced bar at smoke sample sizes
    config = ScenarioConfig(num_users=4, duration_days=1, total_posts=20, seed=77)
    session_study, _, legacy_study, _ = _run_study_pair(config)
    assert trace_lines(session_study.sim) == trace_lines(legacy_study.sim)
