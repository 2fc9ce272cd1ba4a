"""Fixture tests for the determinism / simulation-hygiene linter.

One bad snippet that must flag and one good (or justified-suppressed)
snippet that must pass, per rule family, plus the framework mechanics
(suppressions, strict hygiene, domains) and the tree-level contract:
``repro lint --strict`` over ``src/`` returns zero findings.
"""

from __future__ import annotations

import ast
import io
import re
from pathlib import Path

import pytest

from repro.analysis import default_rules, lint_source
from repro.analysis.core import LintConfig, lint_paths
from repro.analysis.runner import run_lint
from repro.analysis.trace_registry import TRACE_EVENTS, render_markdown

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return [finding.rule for finding in findings]


# -- family 1: nondeterminism hazards ------------------------------------------


class TestNondetEntropy:
    def test_module_level_random_flags(self):
        bad = "import random\ndef jitter():\n    return random.random()\n"
        assert rules_of(lint_source(bad)) == ["nondet-entropy"]

    def test_from_import_draw_flags(self):
        bad = "from random import choice\ndef pick(xs):\n    return choice(xs)\n"
        assert rules_of(lint_source(bad)) == ["nondet-entropy"]

    def test_urandom_and_uuid_flag(self):
        bad = (
            "import os, uuid\n"
            "def ids():\n"
            "    return os.urandom(8), uuid.uuid4()\n"
        )
        assert rules_of(lint_source(bad)) == ["nondet-entropy", "nondet-entropy"]

    def test_seeded_stream_passes(self):
        good = (
            "import random\n"
            "def jitter(rng: random.Random):\n"
            "    return rng.random()\n"
        )
        assert lint_source(good) == []

    def test_drbg_module_is_exempt(self):
        bad = "import os\ndef read(n):\n    return os.urandom(n)\n"
        assert lint_source(bad, rel_path="src/repro/crypto/drbg.py") == []

    def test_tooling_domain_is_exempt(self):
        bad = "import random\ndef jitter():\n    return random.random()\n"
        assert lint_source(bad, rel_path="benchmarks/bench_thing.py") == []


class TestNondetWallclock:
    def test_time_time_flags(self):
        bad = "import time\ndef stamp():\n    return time.time()\n"
        assert rules_of(lint_source(bad)) == ["nondet-wallclock"]

    def test_perf_counter_from_import_flags(self):
        bad = (
            "from time import perf_counter\n"
            "def stamp():\n"
            "    return perf_counter()\n"
        )
        assert rules_of(lint_source(bad)) == ["nondet-wallclock"]

    def test_datetime_now_flags(self):
        bad = (
            "from datetime import datetime\n"
            "def stamp():\n"
            "    return datetime.now()\n"
        )
        assert rules_of(lint_source(bad)) == ["nondet-wallclock"]

    def test_sim_now_passes(self):
        good = "def stamp(sim):\n    return sim.now\n"
        assert lint_source(good) == []


class TestNondetIter:
    BAD = (
        "class Medium:\n"
        "    def tick(self):\n"
        "        for key in self.links.keys():\n"
        '            self.sim.trace.emit(0.0, "contact", "up", a=key, b=key)\n'
    )

    def test_unsorted_dict_view_on_emit_path_flags(self):
        assert "nondet-iter" in rules_of(lint_source(self.BAD))

    def test_sorted_wrapper_passes(self):
        good = self.BAD.replace("self.links.keys()", "sorted(self.links.keys())")
        assert "nondet-iter" not in rules_of(lint_source(good))

    def test_set_iteration_into_schedule_flags(self):
        bad = (
            "def arm(sim, ids):\n"
            "    for device in set(ids):\n"
            "        sim.schedule_in(5.0, print, device)\n"
        )
        assert "nondet-iter" in rules_of(lint_source(bad))

    def test_set_iteration_into_rng_draw_flags(self):
        bad = (
            "def sample(rng, ids):\n"
            "    for device in set(ids):\n"
            "        rng.random()\n"
        )
        assert "nondet-iter" in rules_of(lint_source(bad))

    def test_iteration_off_the_trace_path_passes(self):
        good = (
            "def summarise(d):\n"
            "    total = 0\n"
            "    for v in d.values():\n"
            "        total += v\n"
            "    return total\n"
        )
        assert lint_source(good) == []

    def test_helper_called_by_emitting_tick_flags(self):
        # A helper that buckets a tick's devices by iterating a dict
        # never emits, but the tick that calls it does.
        bad = (
            "class Medium:\n"
            "    def _groups(self):\n"
            "        out = []\n"
            "        for device in self.devices.values():\n"
            "            out.append(device)\n"
            "        return out\n"
            "    def tick(self):\n"
            "        for group in self._groups():\n"
            '            self.sim.trace.emit(0.0, "contact", "up", a=1, b=2)\n'
        )
        findings = [f for f in lint_source(bad) if f.rule == "nondet-iter"]
        assert any(f.line == 4 for f in findings)

    def test_order_insensitive_comprehension_passes(self):
        good = (
            "class A:\n"
            "    def tick(self):\n"
            "        n = sum(x for x in self.d.values())\n"
            '        self.sim.trace.emit(0.0, "contact", "up", a=n, b=n)\n'
        )
        assert "nondet-iter" not in rules_of(lint_source(good))


class TestHashSortKey:
    def test_hash_in_sort_key_flags(self):
        bad = "def order(xs):\n    return sorted(xs, key=lambda x: hash(x))\n"
        assert rules_of(lint_source(bad)) == ["nondet-hash-key"]

    def test_id_passed_as_key_flags(self):
        bad = "def order(xs):\n    xs.sort(key=id)\n"
        assert rules_of(lint_source(bad)) == ["nondet-hash-key"]

    def test_stable_key_passes(self):
        good = "def order(xs):\n    return sorted(xs, key=lambda x: x.device_id)\n"
        assert lint_source(good) == []


# -- family 2: trace-event registry --------------------------------------------


class TestTraceRegistry:
    def test_typoed_event_flags(self):
        bad = (
            "class A:\n"
            "    def f(self):\n"
            '        self.sim.trace.emit(self.sim.now, "contact", "upp", a=1, b=2)\n'
        )
        assert rules_of(lint_source(bad)) == ["trace-unknown-event"]

    def test_uncatalogued_category_flags(self):
        bad = (
            "class A:\n"
            "    def f(self):\n"
            '        self.sim.trace.emit(self.sim.now, "telemetry", "ping")\n'
        )
        assert rules_of(lint_source(bad)) == ["trace-unknown-event"]

    def test_dynamic_kind_flags(self):
        bad = (
            "class A:\n"
            "    def f(self, kind):\n"
            '        self.sim.trace.emit(self.sim.now, "contact", kind, a=1)\n'
        )
        assert rules_of(lint_source(bad)) == ["trace-dynamic-event"]

    def test_catalogued_event_passes(self):
        good = (
            "class A:\n"
            "    def f(self):\n"
            '        self.sim.trace.emit(self.sim.now, "contact", "up", '
            'a="a", b="b", radio="bt")\n'
        )
        assert lint_source(good) == []

    def test_every_catalogued_event_has_an_emitting_site(self):
        # The tree-level half of the registry contract: a full-src scan
        # reports no trace-unemitted-event (and no unknown emits).
        config = LintConfig(root=REPO_ROOT)
        report = lint_paths([REPO_ROOT / "src"], config, default_rules())
        assert not [
            f for f in report.findings if f.rule.startswith("trace-")
        ], [f.render() for f in report.findings]

    def test_registry_is_nonempty_and_covers_collector_counters(self):
        assert len(TRACE_EVENTS) >= 20
        categories = {category for category, _ in TRACE_EVENTS}
        # TraceCollector counts these categories wholesale; the registry
        # must describe them or the counters could never tick.
        assert {"fault", "cloud"} <= categories

    def test_rendered_docs_match_docs_file(self):
        target = REPO_ROOT / "docs" / "TRACE_EVENTS.md"
        assert target.is_file(), "run scripts/gen_trace_docs.py"
        assert target.read_text() == render_markdown() + "\n", (
            "docs/TRACE_EVENTS.md is stale — run scripts/gen_trace_docs.py"
        )


# -- family 3: fork safety ------------------------------------------------------


class TestForkSafety:
    def test_lambda_worker_flags(self):
        bad = (
            "from repro.sim.parallel import parallel_map\n"
            "def run(items):\n"
            "    return parallel_map(lambda x: x + 1, items, 4)\n"
        )
        assert rules_of(lint_source(bad)) == ["fork-unsafe"]

    def test_nested_worker_flags(self):
        bad = (
            "from repro.sim.parallel import parallel_map\n"
            "def run(items, scale):\n"
            "    def worker(x):\n"
            "        return x * scale\n"
            "    return parallel_map(worker, items, 4)\n"
        )
        assert rules_of(lint_source(bad)) == ["fork-unsafe"]

    def test_bound_method_worker_flags(self):
        bad = (
            "from repro.sim.parallel import parallel_map\n"
            "class Runner:\n"
            "    def run(self, items):\n"
            "        return parallel_map(self.step, items, 4)\n"
        )
        assert rules_of(lint_source(bad)) == ["fork-unsafe"]

    def test_worker_mutating_module_global_flags(self):
        bad = (
            "from repro.sim.parallel import parallel_map\n"
            "COUNTER = 0\n"
            "def worker(x):\n"
            "    global COUNTER\n"
            "    COUNTER += 1\n"
            "    return x\n"
            "def run(items):\n"
            "    return parallel_map(worker, items, 4)\n"
        )
        assert rules_of(lint_source(bad)) == ["fork-unsafe"]

    def test_worker_closing_over_lock_flags(self):
        bad = (
            "import threading\n"
            "from repro.sim.parallel import parallel_map\n"
            "LOCK = threading.Lock()\n"
            "def worker(x):\n"
            "    with LOCK:\n"
            "        return x\n"
            "def run(items):\n"
            "    return parallel_map(worker, items, 4)\n"
        )
        assert rules_of(lint_source(bad)) == ["fork-unsafe"]

    def test_module_level_pure_worker_passes(self):
        good = (
            "from repro.sim.parallel import parallel_map\n"
            "def worker(item):\n"
            "    bits, seed = item\n"
            "    return bits * seed\n"
            "def run(items):\n"
            "    return parallel_map(worker, items, 4)\n"
        )
        assert lint_source(good) == []

    def test_worker_touching_module_medium_flags(self):
        bad = (
            "from repro.net.medium import Medium\n"
            "from repro.sim.parallel import parallel_map\n"
            "MEDIUM = Medium(object())\n"
            "def sweep(item):\n"
            "    return MEDIUM.active_links + item\n"
            "def run(items):\n"
            "    return parallel_map(sweep, items, 4)\n"
        )
        assert rules_of(lint_source(bad)) == ["fork-unsafe"]

    def test_imported_worker_passes(self):
        # Workers imported by name are vouched for where they are defined.
        good = (
            "from repro.experiments.density_sweep import _run_sweep_point\n"
            "from repro.sim.parallel import parallel_map\n"
            "def run(configs):\n"
            "    return parallel_map(_run_sweep_point, configs, 4)\n"
        )
        assert lint_source(good) == []

    def test_unrelated_dispatch_method_not_policed(self):
        # Only parallel_map calls are policed, even next to one:
        # dispatch() is a generic name from someone else's protocol.
        good = (
            "from repro.sim.parallel import parallel_map\n"
            "def route(bus, message):\n"
            "    return bus.dispatch(lambda m: m, message)\n"
        )
        assert lint_source(good) == []


# -- family 4: exception hygiene ------------------------------------------------


class TestExceptSwallow:
    def test_bare_except_pass_flags(self):
        bad = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
        )
        assert rules_of(lint_source(bad)) == ["except-swallow"]

    def test_broad_except_swallow_flags(self):
        bad = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert rules_of(lint_source(bad)) == ["except-swallow"]

    def test_broad_except_reraise_passes(self):
        good = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException:\n"
            "        rollback()\n"
            "        raise\n"
        )
        assert lint_source(good) == []

    def test_broad_except_with_trace_diagnostic_passes(self):
        good = (
            "class A:\n"
            "    def f(self):\n"
            "        try:\n"
            "            self.g()\n"
            "        except Exception as exc:\n"
            "            self.sim.trace.emit(\n"
            '                self.sim.now, "app", "malformed_payload", error=str(exc)\n'
            "            )\n"
        )
        assert lint_source(good) == []

    def test_narrow_except_passes(self):
        good = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        assert lint_source(good) == []


# -- family 5: seeded-stream discipline ----------------------------------------


class TestRngDiscipline:
    def test_unseeded_random_flags(self):
        bad = "import random\ndef f():\n    return random.Random()\n"
        assert rules_of(lint_source(bad)) == ["rng-unseeded"]

    def test_system_random_flags(self):
        bad = "import random\ndef f():\n    return random.SystemRandom()\n"
        assert rules_of(lint_source(bad)) == ["rng-unseeded"]

    def test_wallclock_seed_flags(self):
        bad = (
            "import random, time\n"
            "def f():\n"
            "    return random.Random(time.time())\n"
        )
        findings = rules_of(lint_source(bad))
        assert "rng-unseeded" in findings and "nondet-wallclock" in findings

    def test_seeded_random_passes(self):
        good = "import random\ndef f(seed):\n    return random.Random(seed)\n"
        assert lint_source(good) == []

    def test_unseeded_numpy_default_rng_flags(self):
        bad = (
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        assert rules_of(lint_source(bad)) == ["rng-unseeded"]

    def test_seeded_numpy_default_rng_passes(self):
        good = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint_source(good) == []


# -- framework mechanics ---------------------------------------------------------


class TestSuppressions:
    BAD = "import random\ndef f():\n    return random.random()\n"

    def test_inline_suppression_silences(self):
        src = self.BAD.replace(
            "return random.random()",
            "return random.random()  "
            "# repro: ignore[nondet-entropy] -- fixture: justified",
        )
        assert lint_source(src) == []

    def test_comment_line_above_silences(self):
        src = (
            "import random\n"
            "def f():\n"
            "    # repro: ignore[nondet-entropy] -- fixture: justified\n"
            "    return random.random()\n"
        )
        assert lint_source(src) == []

    def test_wrong_rule_name_does_not_silence(self):
        src = self.BAD.replace(
            "return random.random()",
            "return random.random()  "
            "# repro: ignore[nondet-wallclock] -- fixture: wrong rule",
        )
        assert "nondet-entropy" in rules_of(lint_source(src))

    def test_docstring_example_is_not_a_suppression(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        target = tmp_path / "src" / "repro" / "mod.py"
        target.write_text(
            '"""Docs showing # repro: ignore[nondet-entropy] -- example."""\n'
            "X = 1\n"
        )
        config = LintConfig(root=tmp_path)
        report = lint_paths([target], config, default_rules())
        assert report.suppressions == []

    def test_strict_flags_suppression_without_reason(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        target = tmp_path / "src" / "repro" / "mod.py"
        target.write_text(
            "import random\n"
            "def f():\n"
            "    return random.random()  # repro: ignore[nondet-entropy]\n"
        )
        config = LintConfig(root=tmp_path)
        report = lint_paths([target], config, default_rules())
        assert report.findings == []  # suppression works...
        strict = rules_of(report.all_findings(strict=True))
        assert "suppression-no-reason" in strict  # ...but strict wants a why

    def test_strict_flags_stale_suppression(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        target = tmp_path / "src" / "repro" / "mod.py"
        target.write_text(
            "X = 1  # repro: ignore[nondet-entropy] -- nothing here to silence\n"
        )
        config = LintConfig(root=tmp_path)
        report = lint_paths([target], config, default_rules())
        assert "suppression-unused" in rules_of(report.all_findings(strict=True))


class TestTreeContract:
    """The acceptance gate: the shipped tree lints clean, strictly."""

    def test_full_src_tree_is_clean_in_strict_mode(self, monkeypatch, capsys):
        # Through the CLI, as a developer runs it from the repo root.
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        exit_code = main(["lint", "--strict"])
        assert exit_code == 0, capsys.readouterr().out

    def test_every_tree_suppression_is_justified(self):
        config = LintConfig(root=REPO_ROOT)
        report = lint_paths([REPO_ROOT / "src"], config, default_rules())
        assert report.suppressions, "expected justified suppressions in tree"
        for suppression in report.suppressions:
            assert suppression.reason, (
                f"{suppression.path}:{suppression.line} suppression has no "
                "justification"
            )

    def test_cli_reports_findings_with_nonzero_exit(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        bad = tmp_path / "src" / "repro" / "mod.py"
        bad.write_text("import random\ndef f():\n    return random.random()\n")
        stream = io.StringIO()
        exit_code = run_lint(["src"], strict=True, root=tmp_path, stream=stream)
        assert exit_code == 1
        assert "nondet-entropy" in stream.getvalue()

    def test_cli_json_format(self, tmp_path):
        import json

        (tmp_path / "src" / "repro").mkdir(parents=True)
        bad = tmp_path / "src" / "repro" / "mod.py"
        bad.write_text("import time\ndef f():\n    return time.time()\n")
        stream = io.StringIO()
        run_lint(["src"], output_format="json", root=tmp_path, stream=stream)
        payload = json.loads(stream.getvalue())
        # A full src/ scan of this toy tree also reports the registry's
        # events as unemitted; the wallclock finding must be among them.
        assert "nondet-wallclock" in {f["rule"] for f in payload["findings"]}

    def test_cli_missing_path_is_usage_error(self, tmp_path):
        assert run_lint(["no/such/dir"], root=tmp_path) == 2

    def test_src_modules_use_every_name_they_import(self):
        """An import nothing references is dead weight.  A name counts as
        used when the module loads it or names it in a string (quoted
        annotations); ``__init__.py`` files re-export and are skipped."""
        unused = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            used = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported.setdefault(name, node.lineno)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(re.findall(r"[A-Za-z_]\w*", node.value))
            rel = path.relative_to(REPO_ROOT)
            unused += [
                f"{rel}:{line} {name}"
                for name, line in imported.items()
                if name not in used
            ]
        assert unused == []
