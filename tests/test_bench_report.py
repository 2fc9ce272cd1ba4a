"""Golden-file test for the cross-PR trajectory report.

The fixtures under ``tests/data/bench/`` are three hand-written
artifacts (two revisions of suite ``alpha``, one of suite ``beta`` with
deliberately shuffled run order) plus one schema-invalid file; the
golden markdown pins ordering, formatting and the skipped-file section
byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.report import consolidate, render_markdown
from repro.cli import main

FIXTURES = Path(__file__).parent / "data" / "bench"
GOLDEN = FIXTURES / "report_golden.md"


class TestGolden:
    def test_markdown_matches_golden_byte_for_byte(self):
        rendered = render_markdown(consolidate(FIXTURES))
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_ordering_is_stable(self):
        first = consolidate(FIXTURES)
        second = consolidate(FIXTURES)
        assert first == second
        # Artifacts sort by (suite, filename)...
        assert [item["path"] for item in first["artifacts"]] == [
            "BENCH_alpha_pr1.json",
            "BENCH_alpha_pr2.json",
            "BENCH_beta.json",
        ]
        # ...and runs by (name, repetition) even though BENCH_beta.json
        # lists them shuffled on disk.
        beta = first["artifacts"][2]
        assert [(run["name"], run["repetition"]) for run in beta["runs"]] == [
            ("a_dense", 0),
            ("z_sparse", 0),
            ("z_sparse", 1),
        ]

    def test_invalid_file_lands_in_skipped_not_silently_dropped(self):
        skipped = consolidate(FIXTURES)["skipped"]
        assert [entry["path"] for entry in skipped] == ["BENCH_broken.json"]
        assert "unsupported schema" in skipped[0]["error"]


class TestSuiteSelection:
    def test_empty_directory_renders_placeholder(self, tmp_path):
        rendered = render_markdown(consolidate(tmp_path))
        assert "No benchmark artifacts found." in rendered


class TestReportCli:
    def test_cli_markdown_matches_golden(self, capsys):
        assert main(["bench", "report", "--dir", str(FIXTURES)]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", ["missing", "a-file"])
    def test_dir_that_is_not_a_directory_is_a_usage_error(self, tmp_path, capsys, name):
        """A mistyped ``--dir`` is not an empty trajectory."""
        (tmp_path / "a-file").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "report", "--dir", str(tmp_path / name)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "repro bench report: error: --dir: not a directory" in captured.err
        assert captured.out == ""
