"""R003 — worker hygiene in the parallel fan-out engine.

``repro.parallel`` correctness rests on three process-boundary rules
(docs/ALGORITHMS.md, "Parallel execution"):

1. **No module-level state beyond constants.**  Under ``fork`` a
   module global is silently copied into every child; under ``spawn``
   it is silently *re-initialised*.  Anything stateful at module level
   therefore behaves differently per start method.  The single
   sanctioned slot is the worker context installed via
   ``install_context`` (constant-``None`` initialised), so the rule
   allows constant-initialised assignments only, and ``global``
   statements only inside ``install_context``.

2. **Incumbent writes only via ``SharedIncumbent``.**  The shared
   lower bound is a lock-free max-register: ``improve`` writes only a
   larger value, and a racing ``improve`` may lose a raise, which
   only loosens pruning.  A direct ``.value =`` store can write any
   value, and an inflated one breaks the exactness argument (a task
   skipped against an inflated bound may have held the optimum).
   Private register state (``._value`` / ``._local``) must not be
   touched outside ``incumbent.py``.

3. **Everything dispatched must be picklable.**  A lambda or nested
   function handed to a pool method works under ``fork`` and dies
   under ``spawn`` — the classic "works on my Linux box" failure.

Scope: every module of ``repro.parallel`` (``incumbent.py`` itself is
exempt from the private-state check — it *is* the abstraction).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleInfo, Rule
from ..findings import Finding
from .common import is_constant_expr, walk_module_statements


def _is_type_alias_expr(node: ast.expr) -> bool:
    """Type-alias shapes: ``tuple[...]``, names, unions, str forwards.

    A ``PackedContext = tuple[bytes, ...]`` alias is module-level
    *vocabulary*, not state — nothing about it diverges between fork
    and spawn — so R003's constant-only check lets these through.
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        return True
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.Subscript):
        return _is_type_alias_expr(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_type_alias_expr(node.left) and \
            _is_type_alias_expr(node.right)
    return False

__all__ = ["WorkerHygieneRule"]

#: Pool dispatch methods whose function argument crosses the process
#: boundary and therefore must be picklable.
POOL_DISPATCH_METHODS = frozenset({
    "map", "imap", "imap_unordered", "map_async",
    "apply", "apply_async", "starmap", "starmap_async", "submit",
})

#: Private register attributes owned by incumbent.py.
_PRIVATE_INCUMBENT_ATTRS = frozenset({"_value", "_local"})

#: The one function allowed to rebind module state.
_SANCTIONED_GLOBAL_FN = "install_context"


class WorkerHygieneRule(Rule):
    rule_id = "R003"
    title = "parallel workers: constant globals, picklable dispatch, " \
            "incumbent writes via SharedIncumbent"
    rationale = (
        "module globals diverge between fork and spawn, unpicklable "
        "callables die only under spawn, and raw incumbent writes can "
        "inflate the shared bound and break exactness")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.package == "repro.parallel"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_module_state(module)
        yield from self._check_dispatch_and_writes(module)

    def _check_module_state(self,
                            module: ModuleInfo) -> Iterator[Finding]:
        for stmt, guarded in walk_module_statements(module.tree):
            if guarded:
                continue
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if value is not None and not is_constant_expr(value) \
                    and not _is_type_alias_expr(value):
                yield self.finding(
                    module, stmt,
                    "module-level state must be constant-initialised "
                    "— anything else diverges between fork and spawn "
                    "workers")

    def _check_dispatch_and_writes(
            self, module: ModuleInfo) -> Iterator[Finding]:
        is_incumbent_module = module.leaf_name == "incumbent"
        # Map each ``global`` statement to its enclosing function name.
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Global) and \
                            node.name != _SANCTIONED_GLOBAL_FN:
                        yield self.finding(
                            module, inner,
                            f"global statement outside "
                            f"{_SANCTIONED_GLOBAL_FN}() — worker "
                            "state has exactly one sanctioned slot")
            if isinstance(node, (ast.Assign, ast.AugAssign)) and \
                    not is_incumbent_module:
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and \
                            target.attr == "value":
                        yield self.finding(
                            module, target,
                            ".value store — publish through "
                            "SharedIncumbent.improve(), which only "
                            "ever writes a larger value")
            if isinstance(node, ast.Attribute) and \
                    node.attr in _PRIVATE_INCUMBENT_ATTRS and \
                    not is_incumbent_module and \
                    not (isinstance(node.value, ast.Name) and
                         node.value.id == "self"):
                yield self.finding(
                    module, node,
                    f".{node.attr} private incumbent state accessed "
                    "outside incumbent.py — use the public "
                    "SharedIncumbent API")
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in POOL_DISPATCH_METHODS:
                yield from self._check_picklable_args(module, node)

    def _check_picklable_args(
            self, module: ModuleInfo,
            call: ast.Call) -> Iterator[Finding]:
        candidates: list[ast.expr] = []
        if call.args:
            candidates.append(call.args[0])
        candidates.extend(
            kw.value for kw in call.keywords
            if kw.arg in ("func", "initializer"))
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                yield self.finding(
                    module, candidate,
                    "lambda crosses the process boundary — it works "
                    "under fork but is unpicklable under spawn; use "
                    "a module-level function")
