"""Shared AST utilities for the lint rules.

Nothing here is clever: rules need the same three questions answered
over and over — *what does this name import*, *which function am I
in*, and *what does this function call* — so the answers are computed
once per module and shared.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported module for ``import X [as Y]`` statements.

    Dotted imports map their binding name to the full dotted path
    (``import os.path`` binds ``os`` -> ``os``).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    aliases[name.name.split(".")[0]] = name.name.split(".")[0]
    return aliases


def from_imports(tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    """Local name -> (module, original name) for ``from M import N``."""
    imports: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                imports[name.asname or name.name] = (node.module, name.name)
    return imports


def call_name(node: ast.Call) -> Optional[str]:
    """The bare name a call resolves through (``f()`` -> ``f``,
    ``self.f()`` / ``obj.f()`` -> ``f``), or None for computed calls."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None if the chain has a non-name root."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


@dataclass
class FunctionInfo:
    """Summary of one function for the call-graph analyses."""

    node: FunctionNode
    qualname: str
    #: Qualname of the enclosing function, if nested.
    parent: Optional[str]
    #: Bare names of everything the body calls (``f`` and ``self.f``).
    calls: Set[str] = field(default_factory=set)
    #: The body contains a direct order-sensitive sink (emit/schedule/
    #: RNG draw) — seeds the trace-reaching closure.
    has_sink: bool = False


#: Method names that make iteration order observable: trace emission,
#: event scheduling, and RNG draws (a draw consumed in iteration order
#: perturbs every later draw on that stream).
SINK_METHODS = frozenset({"emit", "schedule_at", "schedule_in"})
RNG_DRAW_METHODS = frozenset(
    {
        "random", "randint", "randrange", "getrandbits", "randbytes",
        "choice", "choices", "sample", "shuffle", "uniform", "triangular",
        "gauss", "normalvariate", "lognormvariate", "expovariate",
        "vonmisesvariate", "paretovariate", "weibullvariate", "betavariate",
        "gammavariate",
    }
)


class _FunctionCollector(ast.NodeVisitor):
    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self._stack: List[str] = []
        #: Qualnames of enclosing functions (class frames excluded).
        self._func_stack: List[str] = []

    def _visit_function(self, node: FunctionNode) -> None:
        qualname = ".".join(self._stack + [node.name]) if self._stack else node.name
        parent = self._func_stack[-1] if self._func_stack else None
        info = FunctionInfo(node=node, qualname=qualname, parent=parent)
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                name = call_name(child)
                if name is not None:
                    info.calls.add(name)
                    if name in SINK_METHODS or name in RNG_DRAW_METHODS:
                        info.has_sink = True
        self.functions[qualname] = info
        self._stack.append(node.name)
        self._func_stack.append(qualname)
        self.generic_visit(node)
        self._func_stack.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()


def collect_functions(tree: ast.Module) -> Dict[str, FunctionInfo]:
    """Every function/method in the module, keyed by qualname."""
    collector = _FunctionCollector()
    collector.visit(tree)
    return collector.functions


def trace_reaching_functions(functions: Dict[str, FunctionInfo]) -> Set[str]:
    """Qualnames on an order-sensitive path, within one module.

    A function qualifies when it contains a sink call, transitively
    calls (by bare name, same module) a function that does, or is a
    direct callee of one — the last hop catches a helper whose ordering
    feeds an emitting tick without emitting itself (say, one that
    buckets a tick's devices by iterating a dict).
    """
    by_bare: Dict[str, List[FunctionInfo]] = {}
    for info in functions.values():
        by_bare.setdefault(info.node.name, []).append(info)

    marked: Set[str] = {q for q, info in functions.items() if info.has_sink}
    changed = True
    while changed:
        changed = False
        for qualname, info in functions.items():
            if qualname in marked:
                continue
            for called in info.calls:
                if any(c.qualname in marked for c in by_bare.get(called, ())):
                    marked.add(qualname)
                    changed = True
                    break

    helpers: Set[str] = set()
    for qualname in marked:
        for called in functions[qualname].calls:
            for callee in by_bare.get(called, ()):
                helpers.add(callee.qualname)
    return marked | helpers


def walk_with_parents(
    root: ast.AST,
) -> Iterator[Tuple[ast.AST, Optional[ast.AST]]]:
    """Yield (node, parent) over the subtree."""
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))
