"""The built-in benchmark suites.

A suite is a named tuple of runs; each run names a point in scenario
space — a dict of ``ScenarioConfig`` keyword overrides — and a
repetition count.

Design rule: the ``smoke`` suite's runs are a strict subset of the
``default`` suite's runs (same names, same configs).  The committed
``BENCH_default.json`` baseline therefore contains every smoke point,
which is what lets the cheap CI lane gate ``BENCH_smoke.json`` against
it — shared keys compare, the full-study point simply has no
counterpart.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class BenchRun:
    """One named point: ScenarioConfig overrides + repetition count."""

    name: str
    config: Dict[str, Any]
    repetitions: int = 1


def scenario_config(overrides: Dict[str, Any]):
    """A ScenarioConfig built from a run's override dict (tuple-valued
    fields arrive as JSON lists and are coerced back)."""
    from repro.experiments.scenario import ScenarioConfig

    tuple_fields = {
        field.name
        for field in dataclasses.fields(ScenarioConfig)
        if "Tuple" in str(field.type)
    }
    kwargs = {
        key: tuple(value) if key in tuple_fields and isinstance(value, list) else value
        for key, value in overrides.items()
    }
    return ScenarioConfig(**kwargs)


#: Day-length worlds keep the CI lane under a minute; two repetitions of
#: the first point let the runner (and the gate) verify
#: trace-repetition determinism inside one artifact.
_SMOKE_RUNS: Tuple[BenchRun, ...] = (
    BenchRun("smoke_default", {"duration_days": 1, "total_posts": 40}, repetitions=2),
    BenchRun(
        "smoke_legacy_crypto",
        {"duration_days": 1, "total_posts": 40, "session_crypto": False},
    ),
    BenchRun(
        "smoke_sparse_n16",
        {
            "num_users": 16,
            "duration_days": 1,
            "total_posts": 40,
            "social_graph": "degree_bounded",
            "provisioning": "pooled",
        },
    ),
)

#: ``smoke``: the CI-cheap points.  ``default``: the committed baseline,
#: every smoke point plus the full 7-day field-study reconstruction.
SUITES: Dict[str, Tuple[BenchRun, ...]] = {
    "smoke": _SMOKE_RUNS,
    "default": _SMOKE_RUNS + (BenchRun("default_study", {}),),
}
