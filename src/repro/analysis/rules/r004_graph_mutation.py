"""R004 — solver functions must not mutate their graph arguments.

Every solver in ``repro.core`` / ``repro.dichromatic`` documents (and
the property tests assume) that the input graph comes back unchanged:
callers run MBC*, PF* and gMBC* over the *same* graph object, the
benchmark harness reuses loaded datasets across engines and worker
counts, and the parallel engine ships one reduced copy to every
worker.  An in-place ``remove_edge`` on an argument would corrupt
every later solve on that graph — the canonical pattern is
``reduced = graph.copy()`` first (see ``core/reductions.py``).

Scope: functions in ``repro.core.*`` and ``repro.dichromatic.*``.  A
parameter counts as a graph when its annotation names one of the three
graph substrates or it is literally called ``graph``.  Mutating calls
(``add_edge`` ...), attribute stores/deletes and augmented assignments
on such a parameter are flagged — unless the function rebinds the name
first (then it no longer refers to the argument).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleInfo, Rule
from ..findings import Finding
from .common import GRAPH_TYPE_NAMES, annotation_name

__all__ = ["GraphArgumentMutationRule"]

#: In-place mutators of the three graph substrates (shared with R011,
#: which polices the same methods inside ``repro.dynamic``).
GRAPH_MUTATORS = frozenset({
    "add_edge", "remove_edge", "flip_sign", "add_vertex",
    "isolate_vertex", "rate", "_drop_rows",
})

TARGET_PACKAGES = frozenset(
    {"repro.core", "repro.dichromatic", "repro.dynamic"})


def _graph_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    params: set[str] = set()
    args = fn.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg in ("self", "cls"):
            continue
        if annotation_name(arg.annotation) in GRAPH_TYPE_NAMES or \
                arg.arg == "graph":
            params.add(arg.arg)
    return params


def _binding_names(target: ast.expr) -> Iterator[str]:
    """Names *bound* by an assignment target.

    Only bare names and destructuring patterns bind; a ``Name`` buried
    inside an ``Attribute``/``Subscript`` target (``graph.dirty = x``)
    mutates the object and must not count as rebinding it.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _rebound_names(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                   names: set[str]) -> set[str]:
    """Parameter names the function rebinds (conservatively, anywhere)."""
    rebound: set[str] = set()
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                               ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and \
                node.optional_vars is not None:
            targets = [node.optional_vars]
        for target in targets:
            for name in _binding_names(target):
                if name in names:
                    rebound.add(name)
    return rebound


class GraphArgumentMutationRule(Rule):
    rule_id = "R004"
    title = "no in-place mutation of graph arguments in solvers"
    rationale = (
        "callers reuse graph objects across solves, engines and "
        "worker counts; an in-place edit on an argument corrupts "
        "every later solve — copy first (graph.copy())")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.package in TARGET_PACKAGES

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
            self, module: ModuleInfo,
            fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        params = _graph_params(fn)
        if not params:
            return
        live = params - _rebound_names(fn, params)
        if not live:
            return
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id in live and \
                    node.func.attr in GRAPH_MUTATORS:
                yield self.finding(
                    module, node,
                    f"{node.func.value.id}.{node.func.attr}() mutates "
                    f"a graph argument of {fn.name}() — work on "
                    f"{node.func.value.id}.copy() instead")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id in live:
                        yield self.finding(
                            module, target,
                            f"attribute store on graph argument "
                            f"{target.value.id!r} in {fn.name}() — "
                            "solvers must not mutate their inputs")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id in live:
                        yield self.finding(
                            module, target,
                            f"attribute delete on graph argument "
                            f"{target.value.id!r} in {fn.name}()")
