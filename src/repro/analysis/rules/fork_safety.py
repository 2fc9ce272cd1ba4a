"""Rule family 3: fork safety of cross-process worker functions.

``repro.sim.parallel`` promises bit-identical results between its
forked and in-process fallbacks, which only holds when workers are pure
functions of their inputs.  Workers that close over live simulation
state are the bug class that is hardest to debug after the fact — a
forked child mutates a *copy* of the lock/file/Simulator/Medium and the
divergence surfaces as a trace mismatch long after the fork.

The checked call shape is the one-shot map,
``parallel_map(worker, items, n)``.

``fork-unsafe`` flags a worker argument that is:

* a lambda or locally nested function (closes over frame state, and is
  unpicklable under non-fork start methods anyway),
* a bound-method / attribute reference (drags its whole instance —
  a Simulator, a Medium — through the fork),
* a module-level function that declares ``global`` (mutates parent
  state the children cannot see), or
* a module-level function referencing module globals bound to live
  resources — ``open(...)``, ``threading.Lock()``,
  ``multiprocessing.Lock()``, a ``Simulator(...)`` or a ``Medium(...)``.

A worker imported from another module passes here and is checked where
it is defined.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis import astutil
from repro.analysis.core import Finding, ModuleContext, Rule

#: Module-level bindings considered live resources when referenced by a
#: worker function: ``NAME = <constructor>(...)``.
_LIVE_RESOURCE_CONSTRUCTORS = frozenset(
    {"open", "Lock", "RLock", "Semaphore", "Condition", "Event", "Simulator", "Medium"}
)


class ForkSafetyRule(Rule):
    name = "fork-unsafe"
    description = (
        "parallel_map workers must be module-level pure functions, not "
        "closures over locks, files, Simulators, Mediums, or module globals"
    )
    domains = frozenset({"sim"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        froms = astutil.from_imports(module.tree)
        map_names = {
            local
            for local, (origin, name) in froms.items()
            if name == "parallel_map" and origin.endswith("parallel")
        }
        functions = astutil.collect_functions(module.tree)
        nested = {
            info.node.name for info in functions.values() if info.parent is not None
        }
        module_level = {
            info.node.name: info
            for info in functions.values()
            if info.parent is None and "." not in info.qualname
        }
        live_globals = _live_resource_globals(module.tree)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            is_worker_call = (
                isinstance(node.func, ast.Name) and node.func.id in map_names
            ) or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "parallel_map"
            )
            if not is_worker_call or not node.args:
                continue
            worker = node.args[0]
            yield from self._check_worker(
                module, node, worker, nested, module_level, live_globals
            )

    def _check_worker(
        self,
        module: ModuleContext,
        call: ast.Call,
        worker: ast.expr,
        nested: Set[str],
        module_level: Dict[str, astutil.FunctionInfo],
        live_globals: Set[str],
    ) -> Iterator[Finding]:
        if isinstance(worker, ast.Lambda):
            yield module.finding(
                self, call,
                "lambda worker closes over the enclosing frame and cannot be "
                "pickled under non-fork start methods; hoist it to a "
                "module-level pure function",
            )
            return
        if isinstance(worker, ast.Attribute):
            yield module.finding(
                self, call,
                "bound-method / attribute worker drags its whole object "
                "through the fork; hoist the work into a module-level pure "
                "function of the item",
            )
            return
        if not isinstance(worker, ast.Name):
            return
        if worker.id in nested:
            yield module.finding(
                self, call,
                f"worker {worker.id!r} is a nested function: it closes over "
                "the enclosing frame; hoist it to module level and pass all "
                "state through the item",
            )
            return
        info = module_level.get(worker.id)
        if info is None:
            return  # imported worker: checked where it is defined
        for stmt in ast.walk(info.node):
            if isinstance(stmt, ast.Global):
                yield module.finding(
                    self, call,
                    f"worker {worker.id!r} declares global "
                    f"{', '.join(stmt.names)}: forked children mutate a copy "
                    "the parent never sees",
                )
                return
        referenced = {
            n.id for n in ast.walk(info.node) if isinstance(n, ast.Name)
        }
        touched = sorted(referenced & live_globals)
        if touched:
            yield module.finding(
                self, call,
                f"worker {worker.id!r} references module-level live "
                f"resource(s) {', '.join(touched)} (lock/file/Simulator): "
                "per-fork copies diverge silently; pass serialisable state "
                "through the item instead",
            )


def _live_resource_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound to live resources (``X = open(...)``)."""
    out: Set[str] = set()
    for stmt in tree.body:
        targets = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not isinstance(value, ast.Call):
            continue
        name = astutil.call_name(value)
        if name not in _LIVE_RESOURCE_CONSTRUCTORS:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out
