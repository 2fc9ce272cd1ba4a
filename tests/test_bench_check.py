"""The regression gate: synthetic baselines vs slowed/diverged runs."""

from __future__ import annotations

import json

import pytest

from repro.bench.check import DEFAULT_THRESHOLD, compare_artifacts
from repro.bench.schema import dump_artifact, make_run_entry, new_artifact
from repro.cli import main

SHA_A = "ab" * 32
SHA_B = "cd" * 32


def _artifact(points, suite="synthetic"):
    """points: list of (name, rep, cpu_s, sha) or (name, rep, cpu_s, sha, config)."""
    runs = []
    for point in points:
        name, rep, cpu_s, sha = point[:4]
        config = point[4] if len(point) > 4 else {"duration_days": 1}
        runs.append(
            make_run_entry(name, rep, config, {"wall_s": cpu_s, "cpu_s": cpu_s}, sha)
        )
    return new_artifact(suite, runs=runs)


BASELINE = [("a", 0, 2.0, SHA_A), ("a", 1, 2.1, SHA_A), ("b", 0, 4.0, SHA_B)]


class TestGateVerdicts:
    def test_equal_run_passes(self):
        report = compare_artifacts(_artifact(BASELINE), _artifact(BASELINE))
        assert report.ok
        assert report.compared == 3
        assert report.failures == []
        assert "PASS: 3 compared, 0 regressed" in report.render()

    def test_artificially_slowed_run_fails(self):
        slowed = [("a", 0, 2.0, SHA_A), ("a", 1, 2.1, SHA_A), ("b", 0, 7.0, SHA_B)]
        report = compare_artifacts(_artifact(slowed), _artifact(BASELINE))
        assert not report.ok
        assert [entry.name for entry in report.failures] == ["b"]
        assert report.failures[0].status == "slow"
        assert "FAIL" in report.render()

    def test_threshold_knob_moves_the_bar(self):
        # b: 4.0 -> 5.4 is a 35% slowdown.
        current = _artifact([("b", 0, 5.4, SHA_B)])
        baseline = _artifact([("b", 0, 4.0, SHA_B)])
        assert compare_artifacts(current, baseline, threshold=0.5).ok
        assert not compare_artifacts(current, baseline, threshold=0.2).ok
        with pytest.raises(ValueError, match="non-negative"):
            compare_artifacts(current, baseline, threshold=-0.1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_that_would_switch_the_gate_off_is_rejected(self, threshold):
        """With a NaN or infinite threshold no point could ever fail as slow."""
        current = _artifact([("b", 0, 400.0, SHA_B)])
        baseline = _artifact([("b", 0, 4.0, SHA_B)])
        with pytest.raises(ValueError, match="finite"):
            compare_artifacts(current, baseline, threshold=threshold)

    def test_min_seconds_skips_noise_floor_points(self):
        # A 3x slowdown on a 5ms point is noise, not a regression...
        current = _artifact([("fast", 0, 0.015, SHA_A)])
        baseline = _artifact([("fast", 0, 0.005, SHA_A)])
        report = compare_artifacts(current, baseline)
        assert report.entries[0].status == "skipped-small"
        # ...but a skip-only comparison still counts as compared work
        # (its trace sha was checked).
        assert report.compared == 1 and report.ok
        # One side above the floor judges the point again.
        slowed = _artifact([("fast", 0, 0.15, SHA_A)])
        assert not compare_artifacts(slowed, baseline).ok

    def test_trace_mismatch_fails_even_when_faster(self):
        current = _artifact([("a", 0, 1.0, SHA_B)])
        baseline = _artifact([("a", 0, 2.0, SHA_A)])
        report = compare_artifacts(current, baseline)
        assert not report.ok
        assert report.failures[0].status == "trace-mismatch"

    def test_config_drift_is_not_comparable(self):
        current = _artifact([("a", 0, 2.0, SHA_A, {"duration_days": 2})])
        baseline = _artifact([("a", 0, 2.0, SHA_A, {"duration_days": 1})])
        report = compare_artifacts(current, baseline)
        assert report.entries[0].status == "config-drift"
        # Drift was the only shared key, so nothing was compared: FAIL.
        assert report.compared == 0 and not report.ok

    def test_no_shared_runs_is_a_failure(self):
        report = compare_artifacts(
            _artifact([("only_current", 0, 1.0, SHA_A)]),
            _artifact([("only_baseline", 0, 1.0, SHA_A)]),
        )
        assert not report.ok
        assert "no comparable runs" in report.render()

    def test_disjoint_extra_runs_do_not_disturb_shared_ones(self):
        # The CI shape: smoke artifact vs the default baseline, which
        # additionally holds the full-study point.
        current = _artifact([("a", 0, 2.0, SHA_A)])
        baseline = _artifact(BASELINE + [("full_study", 0, 20.0, SHA_B)])
        report = compare_artifacts(current, baseline)
        assert report.ok and report.compared == 1

    def test_cross_host_note_is_reported(self):
        current = _artifact(BASELINE)
        baseline = _artifact(BASELINE)
        baseline["host"]["fingerprint"] = "0" * 16
        report = compare_artifacts(current, baseline)
        assert report.ok  # informational, not a failure
        assert any("fingerprints differ" in note for note in report.notes)
        assert "note:" in report.render()

    def test_default_threshold_is_the_documented_one(self):
        assert DEFAULT_THRESHOLD == 0.5


class TestCheckCli:
    def _write(self, tmp_path, name, artifact):
        path = tmp_path / name
        dump_artifact(artifact, path)
        return str(path)

    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _artifact(BASELINE))
        same = self._write(tmp_path, "same.json", _artifact(BASELINE))
        slowed = self._write(
            tmp_path,
            "slow.json",
            _artifact([("a", 0, 9.0, SHA_A), ("a", 1, 2.1, SHA_A), ("b", 0, 4.0, SHA_B)]),
        )
        assert main(["bench", "check", same, "--against", base]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["bench", "check", slowed, "--against", base]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "a#0" in out

    def test_threshold_flag_reaches_the_gate(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _artifact([("b", 0, 4.0, SHA_B)]))
        cur = self._write(tmp_path, "cur.json", _artifact([("b", 0, 5.4, SHA_B)]))
        assert main(["bench", "check", cur, "--against", base]) == 0
        capsys.readouterr()
        assert (
            main(["bench", "check", cur, "--against", base, "--threshold", "0.2"]) == 1
        )

    @pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
    def test_bad_threshold_is_a_usage_error(self, tmp_path, capsys, threshold):
        """A mistyped threshold exits 2, not 1 (which reads as a
        regression) and not 0 (which would switch the gate off)."""
        base = self._write(tmp_path, "base.json", _artifact([("b", 0, 4.0, SHA_B)]))
        cur = self._write(tmp_path, "cur.json", _artifact([("b", 0, 40.0, SHA_B)]))
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "check", cur, "--against", base, "--threshold", threshold])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [
            f"repro bench check: error: threshold must be finite and non-negative, "
            f"got {float(threshold)}"
        ]

    def test_schema_errors_exit_2(self, tmp_path, capsys):
        good = self._write(tmp_path, "good.json", _artifact(BASELINE))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["bench", "check", str(broken), "--against", good]) == 2
        assert main(["bench", "check", good, "--against", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("defect", ["null-sha", "no-cpu_s"])
    def test_run_the_gate_cannot_judge_exits_2(self, tmp_path, capsys, defect):
        # A run with no trace digest or no cpu_s gives the gate nothing
        # to compare; it must not count as a PASS.
        base = self._write(tmp_path, "base.json", _artifact([("a", 0, 2.0, SHA_A)]))
        current = _artifact([("a", 0, 2.0, SHA_A)])
        if defect == "null-sha":
            current["runs"][0]["trace_sha256"] = None
        else:
            del current["runs"][0]["metrics"]["cpu_s"]
        path = tmp_path / "current.json"
        path.write_text(json.dumps(current))
        assert main(["bench", "check", str(path), "--against", base]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "runs[0]" in captured.err
