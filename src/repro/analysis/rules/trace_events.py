"""Rule family 2: the trace-event registry check.

Every analysis the harness produces is reconstructed from the trace
stream, so the set of events *is* the public API of the simulation.
This family pins that API to a declared catalogue
(:mod:`repro.analysis.trace_registry`), in both directions:

* ``trace-unknown-event`` — an ``emit`` call whose ``(category,
  kind)`` literal is not catalogued (typo or undocumented event), or
  one emitted from a module the catalogue does not list.
* ``trace-dynamic-event`` — category/kind built at runtime, which the
  registry cannot check; name events with string literals (or
  suppress with a justification explaining the closed value set).
* ``trace-unemitted-event`` — a catalogued event with no emitting
  site anywhere in the tree: dead documentation, or a collector
  counter (``fault_counts``/``cloud_counts``) that can never tick.
  Only reported when the scan covered the whole sim root, so linting
  one file cannot report every other module's events as missing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Sequence, Set, Tuple

from repro.analysis.core import Finding, ModuleContext, Rule
from repro.analysis.trace_registry import TRACE_EVENTS


def iter_emit_calls(tree: ast.Module) -> Iterator[ast.Call]:
    """Every ``<something>.emit(...)`` call in the module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            yield node


class TraceEventRule(Rule):
    name = "trace-unknown-event"
    description = "emit() literals must name events in the declared trace catalogue"
    domains = frozenset({"sim"})

    #: Secondary finding names this rule can produce (suppressions
    #: address each independently).
    DYNAMIC = "trace-dynamic-event"
    UNEMITTED = "trace-unemitted-event"

    @property
    def produces(self):
        return (self.name, self.DYNAMIC, self.UNEMITTED)

    def __init__(self) -> None:
        #: (category, kind) -> modules that emitted it, across the scan.
        self._seen: Dict[Tuple[str, str], Set[str]] = {}

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for call in iter_emit_calls(module.tree):
            if len(call.args) < 3:
                # TraceRecorder.emit(time, category, kind, **data): fewer
                # than three positional args is some other emit() API
                # (e.g. a logging handler); not ours to police.
                continue
            category_node, kind_node = call.args[1], call.args[2]
            category = _literal(category_node)
            kind = _literal(kind_node)
            if category is None or kind is None:
                yield Finding(
                    rule=self.DYNAMIC,
                    path=module.rel_path,
                    line=call.lineno,
                    message="emit() category/kind built at runtime cannot be "
                    "checked against the trace catalogue; use string "
                    "literals per event",
                )
                continue
            spec = TRACE_EVENTS.get((category, kind))
            if spec is None:
                yield module.finding(
                    self, call,
                    f"emit of uncatalogued event {category}/{kind} — typo, or "
                    "add it to src/repro/analysis/trace_registry.py and "
                    "regenerate docs/TRACE_EVENTS.md",
                )
                continue
            self._seen.setdefault((category, kind), set()).add(module.rel_path)
            if module.rel_path not in spec.modules and not module.rel_path.endswith(
                "snippet.py"
            ):
                yield module.finding(
                    self, call,
                    f"event {category}/{kind} emitted from a module the "
                    f"catalogue does not list (expected: "
                    f"{', '.join(spec.modules)}) — update the registry entry",
                )

    def finalize(
        self, modules: Sequence[ModuleContext], full_sim_scan: bool
    ) -> Iterator[Finding]:
        if not full_sim_scan:
            return
        registry_path = "src/repro/analysis/trace_registry.py"
        for key, spec in sorted(TRACE_EVENTS.items()):
            if key not in self._seen:
                yield Finding(
                    rule=self.UNEMITTED,
                    path=registry_path,
                    line=1,
                    message=f"catalogued event {key[0]}/{key[1]} has no "
                    "emitting site in the tree — dead documentation, or a "
                    "collector counter that can never tick "
                    f"(consumer: {spec.consumer or 'none declared'})",
                )


def _literal(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
