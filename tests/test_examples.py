"""The fast examples run clean: each one is a subprocess that must exit 0.

``examples/`` drives the library end to end: sign-up, discovery, secure
sessions, the hybrid envelope and its tamper detection, multi-hop
relaying, and contact-trace export and replay.  A change that breaks the
surface they use fails here.  ``routing_comparison.py`` (about 8 s) is
left out for time; CI's ``bench-smoke`` job runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAST_EXAMPLES = [
    "quickstart",
    "secure_messaging",
    "campus_social_study",
    "emergency_broadcast",
    "trace_replay",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
