"""Schema round-trip and validation for ``BENCH_*.json`` artifacts."""

from __future__ import annotations

import pytest

from repro.bench import schema
from repro.bench.schema import (
    BenchSchemaError,
    dump_artifact,
    load_artifact,
    new_artifact,
    validate_artifact,
)


def _artifact(**overrides):
    data = new_artifact(
        "unit",
        runs=[
            schema.make_run_entry(
                "point_a", 0, {"duration_days": 1}, {"wall_s": 1.5, "cpu_s": 1.2},
                "ab" * 32,
            ),
            schema.make_run_entry(
                "point_a", 1, {"duration_days": 1}, {"wall_s": 1.6, "cpu_s": 1.3},
                "ab" * 32,
            ),
            schema.make_run_entry(
                "point_b", 0, {}, {"wall_s": 3.5, "cpu_s": 3.4, "max_rss_kb": 9.0},
                "cd" * 32,
            ),
        ],
    )
    data.update(overrides)
    return data


class TestRoundTrip:
    def test_emit_load_validate(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        original = _artifact()
        dump_artifact(original, path)
        loaded = load_artifact(path)
        assert loaded == original

    def test_dump_is_byte_stable_for_identical_content(self, tmp_path):
        artifact = _artifact()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        dump_artifact(artifact, first)
        dump_artifact(artifact, second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().endswith("\n")

    def test_environment_blocks_are_filled(self):
        artifact = _artifact()
        assert artifact["schema"] == schema.SCHEMA_VERSION
        assert len(artifact["host"]["fingerprint"]) == 16
        assert artifact["host"]["sampler"] == "resource"
        # Inside this repo the git rev resolves to a 40-hex commit.
        rev = schema.git_revision()
        if rev is not None:
            assert len(rev) == 40

    def test_fingerprint_is_stable_within_process(self):
        assert schema.host_fingerprint() == schema.host_fingerprint()


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(BenchSchemaError, match="JSON object"):
            validate_artifact([1, 2])

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(BenchSchemaError, match="unsupported schema"):
            validate_artifact(_artifact(schema="repro-bench/999"))

    @pytest.mark.parametrize("key", ["suite", "host", "runs"])
    def test_rejects_missing_required_key(self, key):
        artifact = _artifact()
        del artifact[key]
        with pytest.raises(BenchSchemaError, match=key):
            validate_artifact(artifact)

    def test_rejects_non_numeric_metric(self):
        artifact = _artifact()
        artifact["runs"][0]["metrics"]["wall_s"] = "fast"
        with pytest.raises(BenchSchemaError, match="must be a number"):
            validate_artifact(artifact)

    def test_rejects_boolean_metric(self):
        artifact = _artifact()
        artifact["runs"][0]["metrics"]["ok"] = True
        with pytest.raises(BenchSchemaError, match="must be a number"):
            validate_artifact(artifact)

    def test_rejects_empty_metrics(self):
        artifact = _artifact()
        artifact["runs"][0]["metrics"] = {}
        with pytest.raises(BenchSchemaError, match="metrics"):
            validate_artifact(artifact)

    def test_rejects_duplicate_run_key(self):
        artifact = _artifact()
        artifact["runs"].append(dict(artifact["runs"][0]))
        with pytest.raises(BenchSchemaError, match="duplicates run key"):
            validate_artifact(artifact)

    def test_rejects_malformed_trace_sha(self):
        for bad in ("abc123", "zz" * 32):  # too short; right length, not hex
            artifact = _artifact()
            artifact["runs"][0]["trace_sha256"] = bad
            with pytest.raises(BenchSchemaError, match="64-hex"):
                validate_artifact(artifact)

    def test_rejects_null_trace_sha(self):
        # A run without a digest gives the gate nothing exact to compare.
        artifact = _artifact()
        artifact["runs"][2]["trace_sha256"] = None
        with pytest.raises(BenchSchemaError, match="trace_sha256"):
            validate_artifact(artifact)

    @pytest.mark.parametrize("metric", schema.CORE_METRICS)
    def test_rejects_missing_core_metric(self, metric):
        artifact = _artifact()
        del artifact["runs"][2]["metrics"][metric]
        with pytest.raises(BenchSchemaError, match=f"missing core metric '{metric}'"):
            validate_artifact(artifact)

    def test_rejects_negative_repetition(self):
        artifact = _artifact()
        artifact["runs"][0]["repetition"] = -1
        with pytest.raises(BenchSchemaError, match="repetition"):
            validate_artifact(artifact)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_artifact(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="cannot read"):
            load_artifact(tmp_path / "BENCH_absent.json")

    def test_dump_refuses_invalid_artifact(self, tmp_path):
        artifact = _artifact()
        artifact["runs"][0]["metrics"] = {}
        with pytest.raises(BenchSchemaError):
            dump_artifact(artifact, tmp_path / "BENCH_bad.json")
        assert not (tmp_path / "BENCH_bad.json").exists()


class TestRunsByKey:
    def test_indexes_by_name_and_repetition(self):
        indexed = schema.runs_by_key(_artifact())
        assert set(indexed) == {("point_a", 0), ("point_a", 1), ("point_b", 0)}
        assert indexed[("point_b", 0)]["metrics"]["max_rss_kb"] == 9.0
