"""The cross-PR trajectory report.

Consolidates every ``BENCH_*.json`` in a directory into one markdown
trend table: suite → run → repetition with timings, memory, the domain
counters and the trace digest.  The ordering is fully deterministic —
artifacts sort by ``(suite, filename)``, runs by ``(name, repetition)``
— so the report itself can be golden-tested.

Files that fail schema validation land in a trailing "skipped" section
rather than being silently dropped: a trajectory that quietly loses a
point is worse than no trajectory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.bench.schema import BenchSchemaError, load_artifact

#: Metric columns the table always shows, in order (absent → "-").
TABLE_METRICS = ("wall_s", "cpu_s", "max_rss_kb", "disseminations", "delivery_ratio")


def consolidate(directory: Path) -> Dict[str, Any]:
    """Load every ``BENCH_*.json`` artifact under ``directory``.

    Returns ``{"artifacts": [...], "skipped": [...]}`` with
    deterministic ordering throughout.
    """
    artifacts: List[Dict[str, Any]] = []
    skipped: List[Dict[str, str]] = []
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            data = load_artifact(path)
        except BenchSchemaError as exc:
            skipped.append({"path": path.name, "error": str(exc)})
            continue
        artifacts.append(
            {
                "path": path.name,
                "suite": data["suite"],
                "git_rev": data.get("git_rev"),
                "created_utc": data.get("created_utc"),
                "host_fingerprint": data["host"].get("fingerprint"),
                "sampler": data["host"].get("sampler"),
                "runs": sorted(
                    data["runs"], key=lambda run: (run["name"], run["repetition"])
                ),
            }
        )
    artifacts.sort(key=lambda item: (item["suite"], item["path"]))
    return {"artifacts": artifacts, "skipped": skipped}


def _metric_cell(metrics: Dict[str, float], key: str) -> str:
    value = metrics.get(key)
    if value is None:
        return "-"
    if key in ("wall_s", "cpu_s", "delivery_ratio"):
        return f"{value:.3f}"
    return f"{value:.0f}"


def render_markdown(consolidated: Dict[str, Any]) -> str:
    """The markdown trend report."""
    lines: List[str] = ["# Benchmark trajectory", ""]
    artifacts = consolidated["artifacts"]
    if not artifacts:
        lines.append("No benchmark artifacts found.")
        lines.append("")
    for item in artifacts:
        rev = (item["git_rev"] or "unknown")[:12]
        lines.append(f"## suite `{item['suite']}` — `{item['path']}`")
        lines.append("")
        lines.append(
            f"git `{rev}` · host `{item['host_fingerprint']}` · "
            f"sampler `{item['sampler']}` · created {item['created_utc'] or '-'}"
        )
        lines.append("")
        header = ["run", "rep"] + list(TABLE_METRICS) + ["trace"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for run in item["runs"]:
            cells = [run["name"], str(run["repetition"])]
            cells += [_metric_cell(run["metrics"], key) for key in TABLE_METRICS]
            cells.append(run["trace_sha256"][:12])
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    if consolidated["skipped"]:
        lines.append("## skipped files")
        lines.append("")
        for entry in consolidated["skipped"]:
            lines.append(f"* `{entry['path']}`: {entry['error']}")
        lines.append("")
    return "\n".join(lines)

