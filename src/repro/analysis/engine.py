"""The lint engine: module loading, rule protocol, and the runner.

The engine is deliberately free of any import from the solver stack
(enforced by its own R006 layering rule): it parses source files with
:mod:`ast` and never imports the code under analysis, so a broken tree
can still be linted and the linter can run in stripped environments.

Data flow::

    paths -> iter_python_files -> ModuleInfo (one parsed module)
          -> Rule.check per applicable rule -> Finding stream
          -> pragma filter -> sorted findings -> reporter

``ModuleInfo`` derives the dotted module name from the file path (the
last path component named ``repro`` anchors the package root), so the
rules can scope themselves by package — e.g. R001 fires only inside
``repro.kernels`` and the bitset scopes of the dichromatic engines.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .findings import SYNTAX_ERROR_ID, Finding
from .pragmas import SuppressionTable, parse_pragmas

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids the cycle
    from .program import Program

__all__ = [
    "LintRun",
    "ModuleInfo",
    "ProgramRule",
    "Rule",
    "iter_python_files",
    "load_module",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "lint_tree",
]


@dataclass
class ModuleInfo:
    """One parsed module plus the metadata rules scope themselves by."""

    path: str
    module: str | None
    source: str
    tree: ast.Module
    suppressions: SuppressionTable
    is_package_init: bool = False

    @property
    def package(self) -> str | None:
        """Dotted package containing the module.

        A package ``__init__`` belongs to the package it defines (so
        ``repro/kernels/__init__.py`` has package ``repro.kernels``);
        any other module belongs to its parent.
        """
        if self.module is None:
            return None
        if self.is_package_init:
            return self.module
        parent, _, _ = self.module.rpartition(".")
        return parent or None

    @property
    def leaf_name(self) -> str | None:
        """Last dotted component (``mdc`` for ``repro.dichromatic.mdc``)."""
        if self.module is None:
            return None
        return self.module.rpartition(".")[2]

    @classmethod
    def from_source(
        cls,
        source: str,
        path: str = "<memory>",
        module: str | None = None,
        is_package_init: bool = False,
    ) -> "ModuleInfo":
        """Parse in-memory source (the fixture-test entry point)."""
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            suppressions=parse_pragmas(source),
            is_package_init=is_package_init,
        )


class Rule:
    """Base class every lint rule derives from.

    Subclasses set ``rule_id`` / ``title`` / ``rationale`` and
    implement :meth:`check`.  ``applies_to`` defaults to "any module
    inside the ``repro`` package" — rules narrow it further.
    """

    rule_id: str = "R000"
    title: str = ""
    rationale: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether this rule runs on ``module`` at all."""
        return module.module is not None and (
            module.module == "repro"
            or module.module.startswith("repro."))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        """Yield findings for ``module``; must not mutate it."""
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        """Convenience constructor anchored at ``node``."""
        return Finding.at_node(
            module.path, node, self.rule_id, message)


class ProgramRule(Rule):
    """A rule that checks the *whole program*, not one module.

    Subclasses implement :meth:`check_program` against the resolved
    :class:`~repro.analysis.program.Program` (call graph, symbol
    tables, reaching-kwargs helpers).  ``check`` is a no-op so program
    rules slot into the same registry, CLI ``--rule`` selection, and
    reporter machinery as the per-module rules; the engine invokes
    ``check_program`` once per lint run and routes each finding back
    through the pragma table of the file it lands in.
    """

    def applies_to(self, module: ModuleInfo) -> bool:
        """Program rules also cover the benchmark harness."""
        if super().applies_to(module):
            return True
        return module.module is not None and (
            module.module == "benchmarks"
            or module.module.startswith("benchmarks."))

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_program(self, program: "Program") -> Iterator[Finding]:
        """Yield findings over the resolved program."""
        raise NotImplementedError


#: Path components (besides ``repro``) that anchor a module name.
#: ``benchmarks/bench_fig6_runtime.py`` ->
#: ``benchmarks.bench_fig6_runtime`` so the whole-program rules can
#: police the benchmark harness too; the per-module rules all scope to
#: ``repro.*`` and keep skipping it.
_EXTRA_ROOTS = ("benchmarks",)


def _module_name_for(path: str) -> tuple[str | None, bool]:
    """Derive the dotted module name from a file path.

    The *last* path component named ``repro`` (or one of the
    :data:`_EXTRA_ROOTS`) is taken as the package root
    (``src/repro/core/pf.py`` -> ``repro.core.pf``).  Files outside
    any such tree get ``None`` — rules skip them, so linting a whole
    checkout never flags tests or scripts.
    """
    parts = os.path.normpath(path).split(os.sep)
    root = "repro" if "repro" in parts else next(
        (r for r in _EXTRA_ROOTS if r in parts), None)
    if root is None:
        return None, False
    anchor = len(parts) - 1 - parts[::-1].index(root)
    dotted = parts[anchor:]
    leaf = dotted[-1]
    if not leaf.endswith(".py"):
        return None, False
    dotted[-1] = leaf[:-3]
    if dotted[-1] == "__init__":
        return ".".join(dotted[:-1]), True
    return ".".join(dotted), False


def iter_python_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden directories and ``__pycache__`` are skipped.  A path that
    does not exist raises ``OSError`` so the CLI can exit with a usage
    error instead of silently linting nothing.
    """
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__")
                files.extend(
                    os.path.join(root, name)
                    for name in filenames if name.endswith(".py"))
        else:
            raise OSError(f"no such file or directory: {path!r}")
    return sorted(set(files))


def load_module(path: str) -> ModuleInfo | Finding:
    """Parse one file; a syntax error becomes an ``E999`` finding."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    module, is_init = _module_name_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=SYNTAX_ERROR_ID,
            message=f"syntax error: {exc.msg}",
        )
    return ModuleInfo(
        path=path,
        module=module,
        source=source,
        tree=tree,
        suppressions=parse_pragmas(source),
        is_package_init=is_init,
    )


def lint_modules(
    modules: Iterable[ModuleInfo],
    rules: Sequence[Rule],
) -> list[Finding]:
    """Run ``rules`` over parsed modules and filter suppressions."""
    findings: list[Finding] = []
    module_list = list(modules)
    for module in module_list:
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for finding in rule.check(module):
                if module.suppressions.is_suppressed(
                        finding.line, finding.rule_id):
                    continue
                findings.append(finding)
    findings.extend(_lint_program(module_list, rules))
    # Rules may visit nested scopes from more than one root; findings
    # are value objects, so exact duplicates collapse here.
    return sorted(set(findings))


def _lint_program(
    modules: Sequence[ModuleInfo],
    rules: Sequence[Rule],
) -> Iterator[Finding]:
    """Run the whole-program rules once over all modules together.

    The program is built lazily — and only when a ``ProgramRule`` is
    selected — so per-module lint runs pay nothing for it.  Findings
    route through the pragma table of the file they anchor in.
    """
    program_rules = [
        rule for rule in rules if isinstance(rule, ProgramRule)]
    if not program_rules:
        return
    scoped = [
        m for m in modules
        if any(rule.applies_to(m) for rule in program_rules)]
    if not scoped:
        return
    from .program import build_program
    program = build_program(scoped)
    tables = {m.path: m.suppressions for m in scoped}
    for rule in program_rules:
        for finding in rule.check_program(program):
            table = tables.get(finding.path)
            if table is not None and table.is_suppressed(
                    finding.line, finding.rule_id):
                continue
            yield finding


@dataclass
class LintRun:
    """One lint pass: the findings plus the files it walked.

    ``run_lint`` needs both, and deriving them from a single walk is
    what keeps the CLI from reading every file twice.
    """

    findings: list[Finding]
    files: list[str]


def lint_tree(
    paths: Iterable[str],
    rules: Sequence[Rule] | None = None,
) -> LintRun:
    """Walk ``paths`` once, lint every file, keep the file list."""
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    files = iter_python_files(paths)
    findings: list[Finding] = []
    modules: list[ModuleInfo] = []
    for path in files:
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            modules.append(loaded)
    findings.extend(lint_modules(modules, rules))
    return LintRun(findings=sorted(set(findings)), files=files)


def lint_paths(
    paths: Iterable[str],
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint files/directories; the main library entry point."""
    return lint_tree(paths, rules=rules).findings


def lint_source(
    source: str,
    module: str | None = None,
    path: str = "<memory>",
    rules: Sequence[Rule] | None = None,
    is_package_init: bool = False,
) -> list[Finding]:
    """Lint one in-memory snippet (the fixture-test entry point)."""
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    info = ModuleInfo.from_source(
        source, path=path, module=module,
        is_package_init=is_package_init)
    return lint_modules([info], rules)


def lint_sources(
    sources: dict[str, str],
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint several in-memory modules as one program.

    ``sources`` maps dotted module names to source text (append
    ``/__init__`` to mark a package ``__init__``); the whole-program
    rules see them as a single resolved tree, which is how the
    call-graph fixtures exercise cross-module resolution.
    """
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    modules = []
    for name, source in sources.items():
        is_init = name.endswith("/__init__")
        module = name[:-len("/__init__")] if is_init else name
        modules.append(ModuleInfo.from_source(
            source, path=f"<memory:{module}>", module=module,
            is_package_init=is_init))
    return lint_modules(modules, rules)
