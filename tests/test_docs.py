"""Tier-1 runs the doc checker (module doctests, markdown links, the
trace catalogue's drift), so a broken doctest or dead link fails the
suite; CI runs it in the ``tests`` job."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
