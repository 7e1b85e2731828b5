"""repro.analysis — repo-specific static analysis for the solver stack.

PRs 1-2 made the repo's correctness rest on invariants no test can
see from the outside: the bitset hot path must stay on int masks,
result-producing code must iterate deterministically, parallel workers
must stay picklable and publish only through the shared incumbent,
solvers must not mutate their inputs, and the package layering must
stay acyclic.  This package turns each of those unwritten rules into a
machine-checked contract: a small AST-visitor rule framework
(:mod:`~repro.analysis.engine`) plus one rule module per invariant
(:mod:`~repro.analysis.rules`), reported as text or versioned JSON
(:mod:`~repro.analysis.reporters`) with per-line escape hatches
(:mod:`~repro.analysis.pragmas`, ``# repro: noqa RXXX``).

Run it as ``repro lint [paths]`` or ``python -m repro.analysis``; the
repo keeps itself lint-clean (asserted by ``tests/test_analysis.py``)
and CI fails on any finding.  Rule catalogue and the how-to for adding
rules: ``docs/STATIC_ANALYSIS.md``.

This package deliberately imports nothing from the solver stack (its
own R006 enforces that), so it can lint a broken tree and run in
stripped-down environments.
"""

from .engine import (
    ModuleInfo,
    ProgramRule,
    Rule,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
    lint_tree,
)
from .findings import Finding
from .pragmas import parse_pragmas
from .program import Program, build_program
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text
from .rules import ALL_RULES, RULES_BY_ID
from .cli import main

__all__ = [
    "Finding",
    "ModuleInfo",
    "Program",
    "ProgramRule",
    "Rule",
    "ALL_RULES",
    "RULES_BY_ID",
    "JSON_SCHEMA_VERSION",
    "build_program",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "lint_tree",
    "parse_pragmas",
    "render_json",
    "render_text",
    "main",
]
