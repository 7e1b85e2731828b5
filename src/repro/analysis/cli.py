"""``repro lint`` / ``python -m repro.analysis`` — the lint front end.

Exit codes (also the CI contract):

* ``0`` — no findings;
* ``1`` — at least one finding (including syntax errors);
* ``2`` — usage error (unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence, TextIO

from .engine import Rule, lint_tree
from .reporters import render_json, render_text
from .rules import ALL_RULES, RULES_BY_ID

__all__ = ["build_parser", "main", "run_lint"]

#: Default lint target when no path is given: the package itself.
DEFAULT_PATHS = ("src",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="repo-specific AST invariant linter "
                    "(see docs/STATIC_ANALYSIS.md)")
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the versioned JSON report instead of text")
    parser.add_argument(
        "--rule", action="append", dest="rule_ids", metavar="RXXX",
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    return parser


def _select_rules(rule_ids: Sequence[str] | None) -> tuple[Rule, ...]:
    if not rule_ids:
        return ALL_RULES
    selected: list[Rule] = []
    for rule_id in rule_ids:
        rule = RULES_BY_ID.get(rule_id.upper())
        if rule is None:
            raise KeyError(
                f"unknown rule {rule_id!r}; known: "
                f"{', '.join(sorted(RULES_BY_ID))}")
        selected.append(rule)
    return tuple(selected)


def run_lint(
    paths: Sequence[str],
    rule_ids: Sequence[str] | None = None,
    as_json: bool = False,
    stream: TextIO | None = None,
) -> int:
    """Lint ``paths`` and print a report; returns the exit code."""
    out = stream if stream is not None else sys.stdout
    rules = _select_rules(rule_ids)
    # One walk: lint_tree reads and parses each file exactly once and
    # reports the files it covered alongside the findings.
    run = lint_tree(paths, rules=rules)
    render = render_json if as_json else render_text
    print(render(run.findings, files_checked=len(run.files)),
          file=out)
    return 1 if run.findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    try:
        return run_lint(args.paths, rule_ids=args.rule_ids,
                        as_json=args.as_json)
    except (OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
