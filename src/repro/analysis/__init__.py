"""Static analysis for determinism and simulation hygiene (``repro lint``).

The repo's load-bearing invariant — byte-identical traces under a fixed
seed across every optimisation knob — is enforced dynamically by the
trace-equivalence benchmarks.  This package enforces it *statically*, at
review time, by scanning the tree for the hazard classes that have
actually produced nondeterminism bugs here (unsorted link emission,
bare ``except`` swallowing diagnostics, wall-clock leaking into
sim-time code) plus the classes that multiprocess execution makes
harder to debug after the fact (fork-unsafe workers, unseeded RNG
streams).

Entry points
============

* ``repro lint [paths...]`` — the CLI lane (see :mod:`repro.cli`).
* :func:`repro.analysis.core.lint_paths` — the programmatic API the
  tests and the CI lane use.
* :mod:`repro.analysis.trace_registry` — the declared catalogue of
  every trace event the simulation may emit; rule family 2 checks the
  tree against it and ``docs/TRACE_EVENTS.md`` is generated from it.

Rule families
=============

1. **Nondeterminism hazards** (``nondet-*``) — ambient entropy, wall
   clock, unsorted set/dict-view iteration on trace-reaching paths,
   ``hash()``/``id()`` in sort keys.
2. **Trace-event registry** (``trace-*``) — every ``emit`` literal must
   name a catalogued event, and every catalogued event must have an
   emitting site.
3. **Fork safety** (``fork-*``) — workers handed to
   ``repro.sim.parallel.parallel_map`` must be module-level pure
   functions, not closures over live simulation state.
4. **Exception hygiene** (``except-swallow``) — broad handlers in sim
   code must re-raise or emit a trace diagnostic.
5. **Seeded-stream discipline** (``rng-*``) — RNGs in sim code come
   from a named seeded source, never from ambient entropy.

Findings are suppressed per line with ``# repro: ignore[rule] -- why``;
strict mode (the CI lane) additionally rejects suppressions that carry
no justification, name unknown rules, or no longer match a finding.
"""

from repro.analysis.core import (
    Finding,
    LintConfig,
    LintReport,
    Rule,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import default_rules

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "Rule",
    "default_rules",
    "lint_paths",
    "lint_source",
]
