"""Declarative benchmark suites.

A suite is data, not code (the doe-suite idea): a name plus a list of
runs, each naming a point in scenario space — a dict of
``ScenarioConfig`` keyword overrides — and a repetition count.  The
built-ins live here as plain dicts and go through exactly the same
:meth:`BenchSuite.from_dict` path as a user's ``--suite-file`` JSON, so
there is one validated format::

    {
      "suite": "smoke",
      "description": "...",
      "runs": [
        {"name": "smoke_default", "repetitions": 2,
         "config": {"duration_days": 1, "total_posts": 40}},
        ...
      ]
    }

Design rule: the ``smoke`` suite's runs are a strict subset of the
``default`` suite's runs (same names, same configs).  The committed
``BENCH_default.json`` baseline therefore contains every smoke point,
which is what lets the cheap CI lane gate ``BENCH_smoke.json`` against
it — shared keys compare, the full-study point simply has no
counterpart.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


class SuiteError(ValueError):
    """A suite definition is malformed or unknown."""


@dataclass(frozen=True)
class BenchRun:
    """One named point: ScenarioConfig overrides + repetition count."""

    name: str
    config: Dict[str, Any]
    repetitions: int = 1

    def keys(self) -> List[Tuple[str, int]]:
        """The journal/artifact keys this run expands to."""
        return [(self.name, rep) for rep in range(self.repetitions)]


@dataclass(frozen=True)
class BenchSuite:
    """A named, ordered list of runs."""

    name: str
    runs: Tuple[BenchRun, ...]
    description: str = ""

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchSuite":
        if not isinstance(data, dict):
            raise SuiteError(f"suite must be an object, got {type(data).__name__}")
        name = data.get("suite")
        if not isinstance(name, str) or not name:
            raise SuiteError("suite definition missing non-empty string 'suite'")
        raw_runs = data.get("runs")
        if not isinstance(raw_runs, list) or not raw_runs:
            raise SuiteError(f"suite {name!r} missing non-empty list 'runs'")
        runs: List[BenchRun] = []
        seen = set()
        for index, raw in enumerate(raw_runs):
            where = f"suite {name!r} runs[{index}]"
            if not isinstance(raw, dict):
                raise SuiteError(f"{where} must be an object")
            run_name = raw.get("name")
            if not isinstance(run_name, str) or not run_name:
                raise SuiteError(f"{where} missing non-empty string 'name'")
            if run_name in seen:
                raise SuiteError(f"{where} duplicates run name {run_name!r}")
            seen.add(run_name)
            config = raw.get("config", {})
            if not isinstance(config, dict):
                raise SuiteError(f"{where} 'config' must be an object")
            repetitions = raw.get("repetitions", 1)
            if not isinstance(repetitions, int) or repetitions < 1:
                raise SuiteError(f"{where} 'repetitions' must be a positive int")
            runs.append(BenchRun(name=run_name, config=dict(config), repetitions=repetitions))
        description = data.get("description", "")
        if not isinstance(description, str):
            raise SuiteError(f"suite {name!r} 'description' must be a string")
        return cls(name=name, runs=tuple(runs), description=description)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.name,
            "description": self.description,
            "runs": [dataclasses.asdict(run) for run in self.runs],
        }

    def validate_configs(self) -> None:
        """Reject bad scenario overrides at definition time, not
        mid-suite (the same discipline ScenarioConfig applies to fault
        specs)."""
        from repro.experiments.scenario import ScenarioConfig

        field_names = {field.name for field in dataclasses.fields(ScenarioConfig)}
        for run in self.runs:
            unknown = sorted(set(run.config) - field_names)
            if unknown:
                raise SuiteError(
                    f"run {run.name!r} sets unknown ScenarioConfig fields {unknown}"
                )
            # Constructing the config runs __post_init__ validation.
            scenario_config(run.config)


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


#: Shared smoke-size points (see the module docstring: the smoke suite
#: is a subset of the default suite so the committed default baseline
#: can gate CI smoke artifacts).  Day-length worlds keep the lane under
#: a minute; two repetitions of the first point let the runner (and the
#: gate) verify trace-repetition determinism inside one artifact.
_SMOKE_RUNS: List[Dict[str, Any]] = [
    {
        "name": "smoke_default",
        "repetitions": 2,
        "config": {"duration_days": 1, "total_posts": 40},
    },
    {
        "name": "smoke_legacy_crypto",
        "repetitions": 1,
        "config": {"duration_days": 1, "total_posts": 40, "session_crypto": False},
    },
    {
        "name": "smoke_sparse_n16",
        "repetitions": 1,
        "config": {
            "num_users": 16,
            "duration_days": 1,
            "total_posts": 40,
            "social_graph": "degree_bounded",
            "provisioning": "pooled",
        },
    },
]

BUILTIN_SUITES: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "suite": "smoke",
        "description": "CI-cheap day-length points; subset of 'default'",
        "runs": _SMOKE_RUNS,
    },
    "default": {
        "suite": "default",
        "description": "the committed baseline: every smoke point plus "
        "the full 7-day field-study reconstruction",
        "runs": _SMOKE_RUNS
        + [
            {"name": "default_study", "repetitions": 1, "config": {}},
        ],
    },
}


def builtin_suite_names() -> List[str]:
    return sorted(BUILTIN_SUITES)


def load_suite(name: str, suite_file: Optional[Path] = None) -> BenchSuite:
    """Resolve a suite: from ``suite_file`` JSON when given (the file's
    own 'suite' key must match ``name`` unless name is empty), else the
    built-in registry."""
    if suite_file is not None:
        try:
            data = json.loads(Path(suite_file).read_text(encoding="utf-8"))
        except OSError as exc:
            raise SuiteError(f"cannot read suite file {suite_file}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SuiteError(f"suite file {suite_file} is not valid JSON: {exc}") from exc
        suite = BenchSuite.from_dict(data)
        if name and suite.name != name:
            raise SuiteError(
                f"suite file defines {suite.name!r}, but {name!r} was requested"
            )
        return suite
    if name not in BUILTIN_SUITES:
        raise SuiteError(
            f"unknown suite {name!r} (built-ins: {', '.join(builtin_suite_names())})"
        )
    return BenchSuite.from_dict(BUILTIN_SUITES[name])
