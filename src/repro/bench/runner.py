"""The resumable suite runner.

Executes every ``(run, repetition)`` point of a suite that the journal
does not already hold, sampling CPU/RSS/wall time per point and hashing
the run's full trace stream, then assembles the versioned
``BENCH_<suite>.json`` artifact.  Interrupt it anywhere; rerunning
skips the completed points and produces the identical artifact content
(modulo timings and the informational environment blocks).

Each point is measured on a freshly built
:class:`~repro.experiments.gainesville.GainesvilleStudy`, so the wall
and CPU readings cover world construction *and* the simulation run —
the same cost a user pays for ``repro study`` with that config.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.bench import schema
from repro.bench.journal import Journal
from repro.bench.sampler import ResourceSampler
from repro.bench.suites import BenchSuite, scenario_config
from repro.bench.traceid import trace_sha256


class BenchRunError(RuntimeError):
    """A suite execution violated a bench contract (e.g. two
    repetitions of one run diverged — a determinism regression)."""


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


def _medium_metrics(medium) -> Dict[str, float]:
    """Contact-tick cost, in units that survive a 1-core CI host.

    ``medium_tick_cpu_s`` is CPU time inside the tick, so
    ``device_ticks_per_cpu_s`` is the tick-throughput figure.
    """
    out: Dict[str, float] = {
        "medium_ticks": float(medium.tick_count),
        "medium_tick_cpu_s": round(medium.tick_cpu_s, 6),
    }
    if medium.tick_cpu_s > 0.0:
        out["device_ticks_per_cpu_s"] = round(
            len(medium.devices) * medium.tick_count / medium.tick_cpu_s, 3
        )
    return out


def run_point(config_overrides: Dict[str, Any], backend: Optional[str] = None):
    """Build + run one scenario under the sampler.

    Returns ``(metrics, trace_sha)`` — the artifact fragments for one
    journal entry.
    """
    from repro.experiments.gainesville import GainesvilleStudy

    config = scenario_config(config_overrides)
    with ResourceSampler(backend=backend) as sampler:
        study = GainesvilleStudy(config)
        result = study.run()
    metrics = sampler.result.metrics()
    metrics.update(_domain_metrics(result))
    metrics.update(_medium_metrics(study.medium))
    return metrics, trace_sha256(study.sim)


def run_suite(
    suite: BenchSuite,
    journal_dir: Path,
    out_path: Optional[Path] = None,
    fresh: bool = False,
    backend: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    repo_root: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run ``suite`` resumably and write ``BENCH_<suite>.json``.

    Returns the artifact dict.  ``out_path`` defaults to
    ``BENCH_<suite>.json`` in the current directory; ``fresh`` discards
    the journal first; ``backend`` pins the sampler memory backend.
    """
    emit = log or (lambda message: None)
    suite.validate_configs()
    journal = Journal(Path(journal_dir), suite.name)
    if fresh:
        journal.clear()
    sampler_backend = ResourceSampler(backend=backend).backend
    total = sum(run.repetitions for run in suite.runs)
    done = 0
    shas_by_run: Dict[str, str] = {}
    entries = []
    for run in suite.runs:
        for repetition in range(run.repetitions):
            done += 1
            cached = journal.completed(run.name, repetition, run.config)
            if cached is not None:
                emit(f"[{done}/{total}] {run.name}#{repetition}: journaled, skipping")
                entry = cached
            else:
                emit(f"[{done}/{total}] {run.name}#{repetition}: running...")
                metrics, sha = run_point(run.config, backend=backend)
                entry = journal.record(run.name, repetition, run.config, metrics, sha)
                emit(
                    f"[{done}/{total}] {run.name}#{repetition}: "
                    f"wall={metrics['wall_s']:.2f}s cpu={metrics['cpu_s']:.2f}s "
                    f"trace={sha[:12]}"
                )
            sha = entry["trace_sha256"]
            previous = shas_by_run.setdefault(run.name, sha)
            if previous != sha:
                raise BenchRunError(
                    f"run {run.name!r} produced different traces across "
                    f"repetitions ({previous[:12]} vs {sha[:12]}) — "
                    "determinism regression; journal kept at "
                    f"{journal.path} for inspection"
                )
            entries.append(
                schema.make_run_entry(
                    run.name,
                    repetition,
                    entry["config"],
                    entry["metrics"],
                    entry["trace_sha256"],
                )
            )
    artifact = schema.new_artifact(
        suite.name, runs=entries, sampler=sampler_backend, repo_root=repo_root
    )
    destination = Path(out_path) if out_path else Path(f"BENCH_{suite.name}.json")
    schema.dump_artifact(artifact, destination)
    emit(f"wrote {destination} ({len(entries)} runs)")
    return artifact
