"""Rule family 1: nondeterminism hazards in sim code.

Four rules, all scoped to the ``sim`` domain:

* ``nondet-entropy`` — ambient entropy (module-level ``random.*``,
  ``os.urandom``, ``uuid1/uuid4``, ``secrets``) anywhere outside the
  DRBG boundary module.  Sim randomness must flow from a named, seeded
  stream or the run is unreproducible by construction.
* ``nondet-wallclock`` — host-clock reads (``time.time``,
  ``perf_counter``, ``datetime.now``...) inside sim code.  Simulation
  time is ``sim.now``; wall clock in a sim path couples results to
  host speed (the hazard class fixed by hand in PR 6's fault
  schedules).
* ``nondet-iter`` — iteration over ``set`` / ``dict.values()`` /
  ``dict.keys()`` in a function on a trace-reaching path, without
  ``sorted()``.  Set iteration order depends on ``PYTHONHASHSEED``;
  dict order is insertion order, which silently changes when callers
  reorder (the PR 1 unsorted-link-emission bug class).
* ``nondet-hash-key`` — ``hash()`` / ``id()`` inside a sort key.
  ``hash(str)`` is salted per process and ``id()`` is allocation
  order, so the "sorted" result is stable within a run and different
  across runs — the worst kind of almost-deterministic.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis import astutil
from repro.analysis.core import Finding, ModuleContext, Rule

#: Wall-clock functions in the ``time`` module.
_TIME_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
        "localtime", "gmtime",
    }
)
#: Wall-clock constructors on ``datetime.datetime`` / ``datetime.date``.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``random``-module constructors that are *not* ambient entropy: the
#: seeded-stream rule (family 5) owns their discipline instead.
_RANDOM_CONSTRUCTORS = frozenset({"Random", "SystemRandom"})

#: Builtins whose arguments are order-insensitive, so a set/dict-view
#: comprehension feeding them directly is safe.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "sum", "len", "min", "max", "any", "all", "dict"}
)


class NondetEntropyRule(Rule):
    name = "nondet-entropy"
    description = (
        "ambient entropy (random.*, os.urandom, uuid1/uuid4, secrets) in sim "
        "code outside the DRBG boundary module"
    )
    domains = frozenset({"sim"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.entropy_allowed:
            return
        aliases = astutil.module_aliases(module.tree)
        froms = astutil.from_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner = aliases.get(func.value.id)
                if owner == "random" and func.attr not in _RANDOM_CONSTRUCTORS:
                    yield module.finding(
                        self, node,
                        f"module-level random.{func.attr}() draws from the shared "
                        "ambient RNG; use a named seeded stream "
                        "(sim.streams.get(name) or HmacDrbg.spawn)",
                    )
                elif owner == "os" and func.attr == "urandom":
                    yield module.finding(
                        self, node,
                        "os.urandom() is OS entropy; sim code must stay "
                        "reproducible from the master seed (crypto/drbg.py "
                        "owns the entropy boundary)",
                    )
                elif owner == "uuid" and func.attr in {"uuid1", "uuid4"}:
                    yield module.finding(
                        self, node,
                        f"uuid.{func.attr}() is entropy/host-state; derive ids "
                        "from seeded streams or counters",
                    )
                elif owner == "secrets":
                    yield module.finding(
                        self, node,
                        "the secrets module is OS entropy by design; sim code "
                        "must draw from seeded streams",
                    )
            elif isinstance(func, ast.Name):
                origin = froms.get(func.id)
                if origin is None:
                    continue
                origin_module, origin_name = origin
                if origin_module == "random" and origin_name not in _RANDOM_CONSTRUCTORS:
                    yield module.finding(
                        self, node,
                        f"random.{origin_name} imported and called directly "
                        "draws from the shared ambient RNG",
                    )
                elif (origin_module, origin_name) == ("os", "urandom") or (
                    origin_module == "secrets"
                ):
                    yield module.finding(
                        self, node,
                        f"{origin_module}.{origin_name} is OS entropy; sim code "
                        "must stay reproducible from the master seed",
                    )
                elif origin_module == "uuid" and origin_name in {"uuid1", "uuid4"}:
                    yield module.finding(
                        self, node,
                        f"uuid.{origin_name}() is entropy/host-state; derive "
                        "ids from seeded streams or counters",
                    )


class NondetWallclockRule(Rule):
    name = "nondet-wallclock"
    description = "wall-clock reads (time.time, perf_counter, datetime.now) in sim code"
    domains = frozenset({"sim"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = astutil.module_aliases(module.tree)
        froms = astutil.from_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                chain = astutil.attribute_chain(func)
                if chain is None:
                    continue
                root = chain[0]
                # time.time(), time.perf_counter(), ...
                if (
                    len(chain) == 2
                    and aliases.get(root) == "time"
                    and chain[1] in _TIME_FUNCS
                ):
                    yield module.finding(
                        self, node,
                        f"time.{chain[1]}() reads the host clock; sim code "
                        "keeps time with sim.now",
                    )
                # datetime.datetime.now() / datetime.date.today().
                elif (
                    len(chain) == 3
                    and aliases.get(root) == "datetime"
                    and chain[2] in _DATETIME_FUNCS
                ):
                    yield module.finding(
                        self, node,
                        f"datetime {'.'.join(chain[1:])}() reads the host "
                        "clock; sim code keeps time with sim.now",
                    )
                # from datetime import datetime; datetime.now().
                elif (
                    len(chain) == 2
                    and froms.get(root, ("", ""))[0] == "datetime"
                    and chain[1] in _DATETIME_FUNCS
                ):
                    yield module.finding(
                        self, node,
                        f"{root}.{chain[1]}() reads the host clock; sim code "
                        "keeps time with sim.now",
                    )
            elif isinstance(func, ast.Name):
                origin = froms.get(func.id)
                if origin is not None and origin[0] == "time" and origin[1] in _TIME_FUNCS:
                    yield module.finding(
                        self, node,
                        f"time.{origin[1]} imported and called reads the host "
                        "clock; sim code keeps time with sim.now",
                    )


def _unsorted_iterable_reason(node: ast.expr) -> Optional[str]:
    """Why iterating ``node`` is order-hazardous, or None if it is not."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal iterates in hash order (PYTHONHASHSEED-dependent)"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return (
                f"{func.id}() iterates in hash order (PYTHONHASHSEED-dependent)"
            )
        if isinstance(func, ast.Attribute) and func.attr in {"values", "keys"}:
            return (
                f".{func.attr}() iterates in insertion order, which changes "
                "silently when callers reorder inserts"
            )
    return None


class NondetIterRule(Rule):
    name = "nondet-iter"
    description = (
        "unsorted set/dict-view iteration in a function that reaches trace "
        "emission, event scheduling, or RNG draws"
    )
    domains = frozenset({"sim"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        functions = astutil.collect_functions(module.tree)
        reaching = astutil.trace_reaching_functions(functions)
        seen_lines: Set[int] = set()
        for qualname in sorted(reaching):
            info = functions[qualname]
            for finding in self._check_function(module, info):
                # A nested function's body is walked by its parent too;
                # report each hazardous line once.
                if finding.line not in seen_lines:
                    seen_lines.add(finding.line)
                    yield finding

    def _check_function(
        self, module: ModuleContext, info: astutil.FunctionInfo
    ) -> Iterator[Finding]:
        #: Nodes whose iteration order cannot matter (direct argument of
        #: an order-insensitive call such as sorted()).
        order_ok: Set[int] = set()
        for node, _parent in astutil.walk_with_parents(info.node):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_INSENSITIVE_CALLS
                ):
                    for arg in node.args:
                        order_ok.add(id(arg))
                        # sorted(x for x in d.values()) — bless the
                        # generator's source too.
                        if isinstance(
                            arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                        ):
                            for comp in arg.generators:
                                order_ok.add(id(comp.iter))

        for node, _parent in astutil.walk_with_parents(info.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                reason = _unsorted_iterable_reason(node.iter)
                if reason is not None and id(node.iter) not in order_ok:
                    yield module.finding(
                        self, node,
                        f"{reason}; this loop runs in {info.qualname}, which "
                        "is on a trace/schedule/RNG path — wrap in sorted() "
                        "or justify why order cannot reach the trace",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                if id(node) in order_ok:
                    continue
                for comp in node.generators:
                    reason = _unsorted_iterable_reason(comp.iter)
                    if reason is not None and id(comp.iter) not in order_ok:
                        yield module.finding(
                            self, node,
                            f"{reason}; this comprehension runs in "
                            f"{info.qualname}, which is on a "
                            "trace/schedule/RNG path — wrap in sorted() or "
                            "justify why order cannot reach the trace",
                        )


class HashSortKeyRule(Rule):
    name = "nondet-hash-key"
    description = "hash()/id() used inside a sort key (salted/allocation order)"
    domains = frozenset({"sim"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sorter = (
                isinstance(func, ast.Name) and func.id in {"sorted", "min", "max"}
            ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
            if not is_sorter:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                for culprit in self._hash_uses(keyword.value):
                    yield module.finding(
                        self, node,
                        f"sort key uses {culprit}(): salted per process / "
                        "allocation order, so the order differs across runs — "
                        "key on stable identity (ids, tuples) instead",
                    )

    @staticmethod
    def _hash_uses(expr: ast.expr) -> Iterator[str]:
        # key=hash / key=id passed directly.
        if isinstance(expr, ast.Name) and expr.id in {"hash", "id"}:
            yield expr.id
            return
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in {"hash", "id"}
            ):
                yield node.func.id
