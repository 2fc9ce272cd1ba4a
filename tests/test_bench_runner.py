"""The suite runner, the built-in suites, and one tiny real point.

The orchestration tests drive :func:`run_suite` with a stubbed
``run_point`` so they exercise it (every point runs, divergence
detection, artifact assembly) without paying for real simulations; one
integration test at the bottom runs a genuinely tiny world end to end.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.bench import runner as runner_module
from repro.bench import suites as suites_module
from repro.bench.runner import BenchRunError, run_suite
from repro.bench.schema import validate_artifact
from repro.bench.suites import SUITES, BenchRun

SHA_A = "ab" * 32
SHA_B = "cd" * 32

UNIT = (
    BenchRun("point_a", {"duration_days": 1, "total_posts": 5}, repetitions=2),
    BenchRun("point_b", {"duration_days": 1, "total_posts": 5, "seed": 9}),
)


@pytest.fixture
def unit_suite(monkeypatch):
    monkeypatch.setitem(suites_module.SUITES, "unit", UNIT)
    return "unit"


def _install_fake_point(monkeypatch, calls, shas=None):
    """Replace run_point with a recorder returning ``shas`` in turn."""
    shas = iter(shas or [SHA_A] * 3)

    def fake(config):
        calls.append(dict(config))
        return {"wall_s": 0.25, "cpu_s": 0.25}, next(shas)

    monkeypatch.setattr(runner_module, "run_point", fake)


class TestRunnerContracts:
    def test_runs_every_point(self, tmp_path, monkeypatch, unit_suite):
        calls = []
        _install_fake_point(monkeypatch, calls)
        out = tmp_path / "BENCH_unit.json"
        artifact = run_suite(unit_suite, out_path=out)
        assert calls == [UNIT[0].config, UNIT[0].config, UNIT[1].config]
        assert [(run["name"], run["repetition"]) for run in artifact["runs"]] == [
            ("point_a", 0),
            ("point_a", 1),
            ("point_b", 0),
        ]
        assert json.loads(out.read_text()) == artifact

    def test_repetition_divergence_raises(self, tmp_path, monkeypatch, unit_suite):
        _install_fake_point(monkeypatch, [], shas=[SHA_A, SHA_B, SHA_A])
        with pytest.raises(BenchRunError, match="different traces"):
            run_suite(unit_suite, out_path=tmp_path / "a.json")
        assert not (tmp_path / "a.json").exists()

    def test_builtin_smoke_is_subset_of_default(self):
        """The design rule the CI gate depends on: every smoke point
        exists in the default suite with an identical config."""
        smoke = {run.name: run for run in SUITES["smoke"]}
        default = {run.name: run for run in SUITES["default"]}
        assert set(smoke) < set(default)
        for name, run in smoke.items():
            assert default[name].config == run.config
            assert default[name].repetitions == run.repetitions

    @pytest.mark.parametrize(
        "platform,raw,expected", [("linux", 4096, 4096.0), ("darwin", 4096 * 1024, 4096.0)]
    )
    def test_max_rss_is_kib_on_every_platform(self, monkeypatch, platform, raw, expected):
        monkeypatch.setattr(runner_module.sys, "platform", platform)
        monkeypatch.setattr(
            runner_module.resource,
            "getrusage",
            lambda who: SimpleNamespace(ru_maxrss=raw),
        )
        assert runner_module._max_rss_kb() == expected


class TestIntegration:
    def test_tiny_real_point_is_deterministic_across_executions(
        self, tmp_path, monkeypatch
    ):
        """One genuinely simulated point, twice: identical trace sha and
        domain metrics (the property the whole artifact trajectory rests
        on)."""
        monkeypatch.setitem(
            suites_module.SUITES,
            "tiny",
            (
                BenchRun(
                    "tiny_world",
                    {"num_users": 4, "duration_days": 1, "total_posts": 10, "seed": 7},
                ),
            ),
        )
        artifacts = [
            run_suite("tiny", out_path=tmp_path / f"BENCH_{leg}.json")
            for leg in ("first", "second")
        ]
        first, second = (a["runs"][0] for a in artifacts)
        assert first["trace_sha256"] == second["trace_sha256"]
        assert len(first["trace_sha256"]) == 64
        for key in ("unique_messages", "disseminations", "contacts"):
            assert first["metrics"][key] == second["metrics"][key]
        assert first["metrics"]["cpu_s"] > 0
        assert first["metrics"]["max_rss_kb"] > 0
        assert artifacts[0]["host"]["sampler"] == "resource"
        # The artifact on disk is the validated schema, not just the
        # in-memory dict.
        on_disk = json.loads((tmp_path / "BENCH_first.json").read_text())
        validate_artifact(on_disk)
