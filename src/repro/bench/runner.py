"""The suite runner.

Executes every ``(run, repetition)`` point of a suite, measuring wall
time, CPU time and peak RSS per point and hashing the run's full trace
stream, then writes the versioned ``BENCH_<suite>.json`` artifact.

Each point is measured on a freshly built
:class:`~repro.experiments.gainesville.GainesvilleStudy`, so the wall
and CPU readings cover world construction *and* the simulation run —
the same cost a user pays for ``repro study`` with that config.
``max_rss_kb`` is the *process* peak (``getrusage``), monotone over the
process lifetime: comparable across fresh CLI invocations, not across
points inside one process.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.bench import schema
from repro.bench.suites import SUITES, scenario_config
from repro.bench.traceid import trace_sha256


class BenchRunError(RuntimeError):
    """Two repetitions of one run produced different traces — a
    determinism regression."""


def _domain_metrics(result) -> Dict[str, float]:
    """Simulation-side quantities worth trending alongside timings."""
    out: Dict[str, float] = {
        "unique_messages": float(result.unique_messages),
        "disseminations": float(result.disseminations),
        "contacts": float(result.contact_count),
    }
    ratio = result.delivery.overall_delivery_ratio()
    if ratio is not None:
        out["delivery_ratio"] = round(float(ratio), 6)
    return out


def _max_rss_kb() -> float:
    """The process's peak RSS in KiB (``ru_maxrss`` is KiB on Linux and
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return float(peak // 1024 if sys.platform == "darwin" else peak)


def run_point(config_overrides: Dict[str, Any]):
    """Build + run one scenario.

    Returns ``(metrics, trace_sha)`` — the artifact fragments for one
    run entry.
    """
    from repro.experiments.gainesville import GainesvilleStudy

    config = scenario_config(config_overrides)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    study = GainesvilleStudy(config)
    result = study.run()
    metrics: Dict[str, float] = {
        "wall_s": round(time.perf_counter() - wall0, 6),
        "cpu_s": round(time.process_time() - cpu0, 6),
        "max_rss_kb": _max_rss_kb(),
    }
    metrics.update(_domain_metrics(result))
    return metrics, trace_sha256(study.sim)


def run_suite(
    suite: str,
    out_path: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run every point of the built-in ``suite`` and write its artifact.

    Returns the artifact dict.  ``out_path`` defaults to
    ``BENCH_<suite>.json`` in the current directory.
    """
    emit = log or (lambda message: None)
    runs = SUITES[suite]
    total = sum(run.repetitions for run in runs)
    done = 0
    entries = []
    for run in runs:
        first_sha: Optional[str] = None
        for repetition in range(run.repetitions):
            done += 1
            emit(f"[{done}/{total}] {run.name}#{repetition}: running...")
            metrics, sha = run_point(run.config)
            emit(
                f"[{done}/{total}] {run.name}#{repetition}: "
                f"wall={metrics['wall_s']:.2f}s cpu={metrics['cpu_s']:.2f}s "
                f"trace={sha[:12]}"
            )
            first_sha = first_sha or sha
            if sha != first_sha:
                raise BenchRunError(
                    f"run {run.name!r} produced different traces across "
                    f"repetitions ({first_sha[:12]} vs {sha[:12]}) — "
                    "determinism regression"
                )
            entries.append(
                schema.make_run_entry(run.name, repetition, run.config, metrics, sha)
            )
    artifact = schema.new_artifact(suite, runs=entries)
    destination = Path(out_path) if out_path else Path(f"BENCH_{suite}.json")
    schema.dump_artifact(artifact, destination)
    emit(f"wrote {destination} ({len(entries)} runs)")
    return artifact
