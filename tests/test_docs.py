"""Tier-1 runs the doc checker (module doctests, markdown links, the
trace catalogue's drift, config names, CLI flags), so a broken doctest,
dead link, retired knob or retired flag fails the suite; CI runs it in
the ``tests`` job."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_doc_checks_pass():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_docs.py")],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0, f"doc checks failed:\n{proc.stdout}\n{proc.stderr}"


def test_config_name_pass_flags_a_retired_field(tmp_path, capsys):
    """``medium_batched`` left ScenarioConfig long ago; fields, methods
    and SosConfig fields that exist pass."""
    (tmp_path / "DOC.md").write_text(
        "Set `ScenarioConfig.seed`, `ScenarioConfig.fault_plan()` and\n"
        "`SosConfig.gossip_follows`; `ScenarioConfig.medium_batched` is gone.\n"
    )
    assert _check_docs().check_config_names(tmp_path, docs=("DOC.md",)) == 1
    out = capsys.readouterr().out
    assert "config names DOC.md: 4 named, 1 stale [FAILED]" in out
    assert "stale: ScenarioConfig.medium_batched" in out


def test_cli_flag_pass_flags_a_retired_option(tmp_path, capsys):
    """``--workers`` left ``repro study`` in favour of ``repro density``;
    nested commands, positionals and placeholders pass."""
    (tmp_path / "DOC.md").write_text(
        "Run `repro density --workers 2`, then\n"
        "`repro bench check X --against Y`.\n\n"
        "```sh\n"
        "PYTHONPATH=src python -m repro study --days 1 \\\n"
        "    --workers 2   # retired\n"
        "```\n"
    )
    assert _check_docs().check_cli_flags(tmp_path, docs=("DOC.md",)) == 1
    out = capsys.readouterr().out
    assert "cli flags DOC.md: 3 invocations, 1 unknown [FAILED]" in out
    assert "unknown: repro study --workers" in out
