"""R006 — import layering between the solver-stack packages.

The package DAG (DESIGN.md §6, enforced here so refactors cannot
silently invert it)::

      obs                        (tracing/metrics; imports nothing)
       ^
    kernels                      (pure mask primitives: bitset ints
                                  + the optional numpy matrices of
                                  ``repro.kernels.npmask``)
      ^        ^
    signed   unsigned            (graph substrates)
      ^        ^
       dichromatic               (ego-network transformation, MDC/DCC)
      ^        ^
    metrics  parallel            (parallel may use core.result/stats leaves)
      ^        ^
        core                     (MBC*/PF*/gMBC* drivers)
      ^        ^
 baselines  datasets             (comparison code and stand-ins)
      ^        ^
       dynamic                   (incremental re-solving over edits;
                                  serial, so not parallel)
      ^        ^
        serve                    (HTTP daemon: cache + registry +
                                  worker pool over everything below)

``repro.obs`` is the one layer *every* solver package may import — it
is how the tracer threads through the stack without new edges — and
itself imports nothing from the rest of the package.

``repro.analysis`` (this package) sits outside the stack entirely and
must stay stdlib-only, so linting never imports — or depends on — the
code under analysis.  Top-level modules (``repro.cli`` & co.) are the
composition root and may import anything.

``TYPE_CHECKING``-guarded imports are exempt: they express *type*
references (e.g. ``dichromatic`` annotating a ``SearchStats``
parameter) without creating a runtime edge.  Function-local imports
are **not** exempt — a lazy import is still a runtime dependency.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleInfo, Rule
from ..findings import Finding
from .common import is_type_checking_test

__all__ = ["ImportLayeringRule", "ALLOWED_PACKAGE_IMPORTS",
           "ALLOWED_MODULE_IMPORTS"]

#: package -> packages it may import from at runtime.
#: ``repro.resilience`` sits at the bottom like ``repro.obs``: every
#: solver package may thread its Budget/fault primitives through, and
#: it imports nothing back.
ALLOWED_PACKAGE_IMPORTS: dict[str, frozenset[str]] = {
    "repro.obs": frozenset(),
    "repro.resilience": frozenset(),
    "repro.kernels": frozenset({"repro.obs"}),
    "repro.signed": frozenset({"repro.kernels", "repro.obs"}),
    "repro.unsigned": frozenset({"repro.kernels", "repro.obs"}),
    "repro.dichromatic": frozenset(
        {"repro.kernels", "repro.signed", "repro.unsigned",
         "repro.obs", "repro.resilience"}),
    "repro.metrics": frozenset(
        {"repro.kernels", "repro.signed", "repro.unsigned",
         "repro.obs"}),
    "repro.parallel": frozenset(
        {"repro.kernels", "repro.signed", "repro.unsigned",
         "repro.dichromatic", "repro.obs", "repro.resilience"}),
    "repro.core": frozenset(
        {"repro.kernels", "repro.signed", "repro.unsigned",
         "repro.dichromatic", "repro.metrics", "repro.parallel",
         "repro.obs", "repro.resilience"}),
    "repro.dynamic": frozenset(
        {"repro.kernels", "repro.signed", "repro.unsigned",
         "repro.dichromatic", "repro.core", "repro.obs",
         "repro.resilience"}),
    "repro.baselines": frozenset(
        {"repro.kernels", "repro.signed", "repro.unsigned",
         "repro.metrics", "repro.obs", "repro.resilience"}),
    "repro.datasets": frozenset(
        {"repro.kernels", "repro.signed", "repro.obs"}),
    "repro.serve": frozenset(
        {"repro.kernels", "repro.signed", "repro.core",
         "repro.dynamic", "repro.datasets", "repro.obs",
         "repro.resilience"}),
    "repro.analysis": frozenset(),
}

#: Exact-module escape hatches: repro.parallel may import the two
#: *leaf* value/stat modules of core (they import nothing back), which
#: is what keeps the core <-> parallel recursion from being a cycle.
ALLOWED_MODULE_IMPORTS: dict[str, frozenset[str]] = {
    "repro.parallel": frozenset(
        {"repro.core.result", "repro.core.stats"}),
}


def _package_of(module_name: str) -> str | None:
    """``repro.core.pf`` -> ``repro.core``; top-level -> ``None``."""
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return ".".join(parts[:2])


def _resolve_relative(module: ModuleInfo, level: int,
                      target: str | None) -> str | None:
    """Absolute dotted name of a ``from ...x import y`` target."""
    if module.module is None:
        return None
    base = module.module.split(".")
    if not module.is_package_init:
        base = base[:-1]
    if level > 1:
        cut = level - 1
        if cut >= len(base):
            return None
        base = base[:-cut]
    if target:
        base = base + target.split(".")
    return ".".join(base)


class ImportLayeringRule(Rule):
    rule_id = "R006"
    title = "solver-stack packages import only downward in the layer DAG"
    rationale = (
        "the kernel layer stays import-cycle-free and the parallel "
        "engine's workers stay loadable without dragging in the "
        "drivers; an upward import compiles fine today and deadlocks "
        "a refactor tomorrow")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        package = module.package
        if module.module is None or package is None:
            return
        if package not in ALLOWED_PACKAGE_IMPORTS:
            return  # top-level composition root: unrestricted
        allowed = ALLOWED_PACKAGE_IMPORTS[package]
        allowed_modules = ALLOWED_MODULE_IMPORTS.get(
            package, frozenset())
        for node, guarded in _walk_imports(module.tree):
            if guarded:
                continue
            for resolved in _import_targets(module, node):
                if resolved is None or \
                        not resolved.startswith("repro"):
                    continue
                target_pkg = _package_of(resolved)
                if target_pkg is None or target_pkg == package:
                    continue
                if target_pkg in allowed:
                    continue
                if resolved in allowed_modules or any(
                        resolved.startswith(m + ".") or resolved == m
                        for m in allowed_modules):
                    continue
                yield self.finding(
                    module, node,
                    f"{package} must not import {resolved} — allowed "
                    f"packages: "
                    f"{sorted(allowed | allowed_modules) or 'none'}")


def _walk_imports(
    tree: ast.Module,
) -> Iterator[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Every import in the module with its TYPE_CHECKING-guard flag."""

    def visit(node: ast.AST, guarded: bool) -> Iterator[
            tuple[ast.Import | ast.ImportFrom, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, guarded
            elif isinstance(child, ast.If):
                inner = guarded or is_type_checking_test(child.test)
                for stmt in child.body:
                    yield from visit_stmt(stmt, inner)
                for stmt in child.orelse:
                    yield from visit_stmt(stmt, guarded)
            else:
                yield from visit(child, guarded)

    def visit_stmt(stmt: ast.stmt, guarded: bool) -> Iterator[
            tuple[ast.Import | ast.ImportFrom, bool]]:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt, guarded
        else:
            yield from visit(stmt, guarded)

    yield from visit(tree, False)


def _import_targets(
    module: ModuleInfo,
    node: ast.Import | ast.ImportFrom,
) -> Iterator[str | None]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
        return
    if node.level == 0:
        base = node.module
        for alias in node.names:
            # ``from repro.core import stats`` imports the submodule
            # too; resolve against the deepest name we can.
            yield f"{base}.{alias.name}" if base else alias.name
        return
    base_resolved = _resolve_relative(module, node.level, node.module)
    for alias in node.names:
        if base_resolved is None:
            yield None
        else:
            yield f"{base_resolved}.{alias.name}"
