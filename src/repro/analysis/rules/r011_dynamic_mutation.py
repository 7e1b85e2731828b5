"""R011 — graph mutation in ``repro.dynamic`` only via the guarded API.

The dynamic solver's whole correctness story rests on one invariant:
every mutation of the wrapped graph flows through
``DynamicSolver.add_edge`` / ``remove_edge`` / ``flip_sign``, which
make the one graph call (the graph validates the edit and keeps its
signed masks and incremental fingerprint current) and mark the
dirty-ego sets in the same breath.  A bare ``graph.remove_edge(...)``
anywhere else in the package would skip the dirty marking; unless the
fingerprint check catches it, the solver would keep returning
*certified-looking* answers for a graph that no longer exists (the
resync is meant for mutations from *outside* the package).

So, inside ``repro.dynamic``: any call of a graph mutator method — on
**any** receiver expression, since the graph hides behind attributes
like ``self._graph`` — is flagged unless it appears directly inside
one of the three guard methods.  Nested functions defined inside a
guard method do not inherit the exemption (a closure escaping the
guard is exactly the bug class this rule exists for).

The mutator name list is shared with R004 (which polices the same
methods from the *solver argument* angle in ``repro.core`` /
``repro.dichromatic``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleInfo, Rule
from ..findings import Finding
from .r004_graph_mutation import GRAPH_MUTATORS

__all__ = ["DynamicMutationRule", "GUARD_METHODS"]

#: The only function bodies allowed to call a graph mutator.
GUARD_METHODS = frozenset({
    "DynamicSolver.add_edge",
    "DynamicSolver.remove_edge",
    "DynamicSolver.flip_sign",
})

TARGET_PACKAGE = "repro.dynamic"


def _mutator_calls(scope: ast.AST) -> Iterator[ast.Call]:
    """Mutator calls executing in ``scope``'s own body.

    Descends through plain statements but *not* into nested
    ``def`` / ``class`` / ``lambda`` — those run in their own scope
    and are checked (and exempted) separately.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in GRAPH_MUTATORS:
            yield node
        stack.extend(ast.iter_child_nodes(node))


class DynamicMutationRule(Rule):
    rule_id = "R011"
    title = "repro.dynamic mutates graphs only inside the guard methods"
    rationale = (
        "an unguarded graph.add_edge() skips the solver's dirty "
        "marking — a later solve can return certified-looking "
        "answers for a stale graph")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.package == TARGET_PACKAGE

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_scope(module, module.tree, None)

    def _check_scope(
        self,
        module: ModuleInfo,
        scope: ast.AST,
        qualname: str | None,
    ) -> Iterator[Finding]:
        if qualname not in GUARD_METHODS:
            for call in _mutator_calls(scope):
                assert isinstance(call.func, ast.Attribute)
                yield self.finding(
                    module, call,
                    f".{call.func.attr}() outside the DynamicSolver "
                    f"mutation API — graph edits must go through "
                    f"add_edge/remove_edge/flip_sign so the bound "
                    f"caches stay in sync")
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                yield from self._check_scope(module, node, None)
            elif not isinstance(node, ast.Lambda):
                yield from self._descend(module, node)

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                yield from self._check_scope(
                    module, node, f"{cls.name}.{node.name}")
            else:
                yield from self._descend(module, node)

    def _descend(self, module: ModuleInfo,
                 node: ast.AST) -> Iterator[Finding]:
        """Find nested defs/classes hiding below plain statements."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._check_class(module, child)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                yield from self._check_scope(module, child, None)
            elif not isinstance(child, ast.Lambda):
                yield from self._descend(module, child)
