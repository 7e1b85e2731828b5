"""Command-line interface.

Installed as ``repro`` (also ``python -m repro``).  Subcommands:

* ``repro mbc GRAPH --tau 3`` — maximum balanced clique
  (alias ``mbc-star``);
* ``repro pf GRAPH`` — polarization factor (alias ``pf-star``);
* ``repro gmbc GRAPH`` — a maximum balanced clique for every tau
  (alias ``gmbc-star``);
* ``repro dynamic GRAPH --edits FILE`` — stream an edit script
  through the incremental solver, re-solving after every edit
  (see ``docs/DYNAMIC.md``);
* ``repro stats GRAPH`` — dataset statistics (Table I columns);
* ``repro generate NAME OUT`` — write a stand-in dataset to a file;
* ``repro serve --port 8080`` — the async HTTP solve service:
  JSON requests in, cached/coalesced solves out
  (see ``docs/SERVING.md``);
* ``repro lint [PATHS]`` — the repo-specific invariant linter
  (see ``docs/STATIC_ANALYSIS.md``).

``GRAPH`` is either a path to an edge-list file (``u v sign`` lines) or
``dataset:NAME`` to use a built-in stand-in (e.g. ``dataset:douban``).

The solver commands accept ``--trace PATH`` (write the solve's
:mod:`repro.obs` span tree as schema-versioned JSONL) and ``--profile``
(print the human-readable span tree) — see ``docs/OBSERVABILITY.md``.

They also accept ``--timeout SECONDS`` and ``--max-nodes N`` solve
budgets (see ``docs/ROBUSTNESS.md``): on exhaustion the best result
found so far is printed with its certified lower bound and the process
exits with :data:`EXIT_BUDGET_EXHAUSTED` (3) — distinct from both
success (0) and errors (1) so scripts can tell a truncated answer from
a wrong invocation.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .core.gmbc import distinct_cliques_profile, gmbc_naive, gmbc_star
from .core.mbc_baseline import mbc_baseline
from .core.mbc_star import mbc_star
from .core.pf import pf_binary_search, pf_enumeration, pf_star
from .core.result import SolveResult
from .core.stats import SearchStats
from .datasets.registry import dataset_names, load
from .dynamic import DynamicSolver, apply_edit, parse_edit_script
from .obs import Tracer, get_tracer, install_tracer, render_tree, \
    write_jsonl
from .resilience import Budget
from .signed.graph import SignedGraph
from .signed.io import load_signed_graph, save_signed_graph

__all__ = ["main", "build_parser", "EXIT_BUDGET_EXHAUSTED"]

#: Exit status when a solve hit its ``--timeout``/``--max-nodes``
#: budget: the printed answer is a valid clique / certified lower
#: bound, but optimality was not proven.
EXIT_BUDGET_EXHAUSTED = 3


def _add_workers_flag(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the ego-network sweep (default 1 = "
             "serial)")


def _add_solve_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a repro.obs JSONL trace of the solve to PATH")
    subparser.add_argument(
        "--profile", action="store_true",
        help="print the span-tree profile after the solve")
    subparser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock solve budget; on expiry print the best "
             "result so far and exit 3")
    subparser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        dest="max_nodes",
        help="branch-and-bound node budget; same anytime contract "
             "as --timeout")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maximum structural balanced cliques in signed "
                    "graphs (ICDE 2022 reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    mbc = sub.add_parser("mbc", aliases=["mbc-star"],
                         help="maximum balanced clique")
    mbc.add_argument("graph", help="edge-list path or dataset:NAME")
    mbc.add_argument("--tau", type=int, default=3,
                     help="polarization constraint (default 3)")
    mbc.add_argument(
        "--algorithm", choices=["star", "baseline"], default="star",
        help="solver: MBC* (default) or the enumeration baseline")
    _add_workers_flag(mbc)
    _add_solve_flags(mbc)

    pf = sub.add_parser("pf", aliases=["pf-star"],
                        help="polarization factor")
    pf.add_argument("graph", help="edge-list path or dataset:NAME")
    pf.add_argument(
        "--algorithm", choices=["star", "binary-search", "enumeration"],
        default="star", help="solver (default PF*)")
    _add_workers_flag(pf)
    _add_solve_flags(pf)

    gmbc = sub.add_parser(
        "gmbc", aliases=["gmbc-star"],
        help="maximum balanced clique for every tau")
    gmbc.add_argument("graph", help="edge-list path or dataset:NAME")
    gmbc.add_argument(
        "--algorithm", choices=["star", "naive"], default="star")
    _add_workers_flag(gmbc)
    _add_solve_flags(gmbc)

    dynamic = sub.add_parser(
        "dynamic",
        help="incremental solving over a stream of edge edits")
    dynamic.add_argument("graph", help="edge-list path or dataset:NAME")
    dynamic.add_argument(
        "--edits", required=True, metavar="FILE",
        help="edit script ('add u v sign' / 'remove u v' / "
             "'flip u v' lines); the solver re-solves after every "
             "edit")
    dynamic.add_argument("--tau", type=int, default=3,
                         help="polarization constraint (default 3)")
    dynamic.add_argument(
        "--beta", action="store_true",
        help="also report the polarization factor after each edit")
    _add_solve_flags(dynamic)

    stats = sub.add_parser("stats", help="dataset statistics (Table I)")
    stats.add_argument("graph", help="edge-list path or dataset:NAME")
    stats.add_argument("--tau", type=int, default=3)

    gen = sub.add_parser("generate", help="write a stand-in dataset")
    gen.add_argument("name", choices=dataset_names())
    gen.add_argument("output", help="output edge-list path")
    gen.add_argument("--scale", type=float, default=1.0)

    enum = sub.add_parser(
        "enum", help="enumerate maximal balanced cliques (MBCEnum)")
    enum.add_argument("graph", help="edge-list path or dataset:NAME")
    enum.add_argument("--tau", type=int, default=0)
    enum.add_argument("--limit", type=int, default=1000,
                      help="stop after this many cliques")

    balance = sub.add_parser(
        "balance",
        help="global structural balance check (Harary) + frustration")
    balance.add_argument("graph", help="edge-list path or dataset:NAME")

    lint = sub.add_parser(
        "lint", help="AST invariant linter for the solver stack")
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the versioned JSON report instead of text")
    lint.add_argument(
        "--rule", action="append", dest="rule_ids", metavar="RXXX",
        help="run only this rule (repeatable)")
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP solve service (see docs/SERVING.md)")
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port (default 8080; 0 picks an ephemeral port)")
    serve.add_argument(
        "--pool", type=int, default=None, metavar="N",
        help="worker threads running solves (default 4)")
    serve.add_argument(
        "--cache-size", type=int, default=None, dest="cache_size",
        metavar="N",
        help="result-cache capacity in entries (default 1024)")

    return parser


def _build_budget(args: argparse.Namespace) -> Budget | None:
    """A :class:`~repro.resilience.Budget` when either budget flag was
    given (``Budget`` validates the values), else ``None`` so the
    solvers keep their zero-overhead hot path."""
    if args.timeout is None and args.max_nodes is None:
        return None
    return Budget(deadline=args.timeout, max_nodes=args.max_nodes)


def _budget_epilogue(budget: Budget | None) -> int:
    """Print the truncation notice and pick the exit status."""
    if budget is None or not budget.exhausted:
        return 0
    print(f"status: budget exhausted ({budget.reason}) — result is "
          f"the best found, optimality not proven")
    return EXIT_BUDGET_EXHAUSTED


def _load_graph(token: str) -> SignedGraph:
    if token.startswith("dataset:"):
        return load(token.split(":", 1)[1])
    return load_signed_graph(token)


def _install_cli_tracer(args: argparse.Namespace) -> Tracer | None:
    """A live ambient tracer when ``--trace``/``--profile`` ask for one.

    Installing (rather than only passing ``trace=``) also captures the
    kernel-layer spans, which read the ambient tracer.
    """
    if not args.trace and not args.profile:
        return None
    tracer = get_tracer(True)
    install_tracer(tracer)
    return tracer


def _report_trace(args: argparse.Namespace,
                  tracer: Tracer | None) -> None:
    """Uninstall the CLI tracer and emit its sinks."""
    if tracer is None:
        return
    install_tracer(None)
    if args.trace:
        lines = write_jsonl(tracer, args.trace)
        print(f"trace: {args.trace} ({lines} events)")
    if args.profile:
        print(render_tree(tracer))


def _require_star_for_workers(args: argparse.Namespace,
                              serial: str) -> None:
    """Refuse ``--workers N`` (N != 1) for an algorithm that has no
    fan-out, rather than ignore it."""
    if args.workers != 1 and args.algorithm != "star":
        raise ValueError(
            f"--workers requires --algorithm star ({serial} always "
            f"runs serial)")


def _cmd_mbc(args: argparse.Namespace) -> int:
    budget = _build_budget(args)
    if budget is not None and args.algorithm != "star":
        raise ValueError(
            "--timeout/--max-nodes require --algorithm star (the "
            "baseline enumerator has no anytime contract)")
    _require_star_for_workers(args, "the baseline enumerator")
    graph = _load_graph(args.graph)
    stats = SearchStats()
    tracer = _install_cli_tracer(args)
    started = time.perf_counter()
    try:
        if args.algorithm == "star":
            clique = mbc_star(graph, args.tau, stats=stats,
                              parallel=args.workers, budget=budget)
        else:
            clique = mbc_baseline(graph, args.tau, stats=stats)
    finally:
        elapsed = time.perf_counter() - started
        _report_trace(args, tracer)
    result = SolveResult.capture(clique, budget)
    if clique.is_empty:
        print(f"no balanced clique satisfies tau={args.tau}")
    else:
        print(clique.describe(graph))
        if not result.optimal:
            print(f"certified lower bound: {result.lower_bound}")
    print(f"time: {elapsed:.3f}s  nodes: {stats.nodes}  "
          f"instances: {stats.instances}")
    return _budget_epilogue(budget)


def _cmd_pf(args: argparse.Namespace) -> int:
    budget = _build_budget(args)
    _require_star_for_workers(args, f"{args.algorithm} PF")
    graph = _load_graph(args.graph)
    tracer = _install_cli_tracer(args)
    started = time.perf_counter()
    try:
        if args.algorithm == "star":
            beta = pf_star(graph, parallel=args.workers, budget=budget)
        elif args.algorithm == "binary-search":
            beta = pf_binary_search(graph, budget=budget)
        else:
            beta = pf_enumeration(graph, budget=budget)
    finally:
        elapsed = time.perf_counter() - started
        _report_trace(args, tracer)
    # A truncated PF solve certifies beta as a *lower* bound (the last
    # proven tau*), so print the inequality rather than a wrong "=".
    relation = ">=" if budget is not None and budget.exhausted else "="
    print(f"polarization factor beta(G) {relation} {beta}")
    print(f"time: {elapsed:.3f}s")
    return _budget_epilogue(budget)


def _cmd_dynamic(args: argparse.Namespace) -> int:
    """Stream an edit script through the incremental solver.

    ``--timeout``/``--max-nodes`` are *per-solve* budgets: every
    re-solve after an edit gets a fresh one (the streaming contract
    is a latency bound per edit, not per session).  The exit status
    reports whether any solve was truncated.
    """
    graph = _load_graph(args.graph)
    with open(args.edits, encoding="utf-8") as handle:
        edits = parse_edit_script(handle.read())
    tracer = _install_cli_tracer(args)
    solver = DynamicSolver(graph, args.tau)
    any_truncated = False

    def solve_once(prefix: str) -> None:
        nonlocal any_truncated
        budget = _build_budget(args)
        result = solver.solve(budget)
        line = f"{prefix} -> {result.clique.describe(graph)}"
        if args.beta:
            line += f"  beta(G) = {solver.beta(_build_budget(args))}"
        print(line)
        if budget is not None and budget.exhausted:
            any_truncated = True

    started = time.perf_counter()
    try:
        solve_once("initial".ljust(24))
        for edit in edits:
            changed = apply_edit(solver, edit)
            suffix = "" if changed else " (no-op)"
            solve_once(f"{edit.as_line()}{suffix}".ljust(24))
    finally:
        elapsed = time.perf_counter() - started
        _report_trace(args, tracer)
    summary = f"edits: {len(edits)}  time: {elapsed:.3f}s"
    if tracer is not None:
        counters = tracer.counters_snapshot()
        summary += (
            f"  ego re-solves: "
            f"{counters.get('dynamic.egos_resolved', 0)}  "
            f"cache reuses: "
            f"{counters.get('dynamic.egos_reused', 0)}")
    print(summary)
    if any_truncated:
        print("status: at least one per-edit solve hit its budget — "
              "those results are certified lower bounds")
        return EXIT_BUDGET_EXHAUSTED
    return 0


def _cmd_gmbc(args: argparse.Namespace) -> int:
    budget = _build_budget(args)
    graph = _load_graph(args.graph)
    tracer = _install_cli_tracer(args)
    started = time.perf_counter()
    try:
        if args.algorithm == "star":
            results = gmbc_star(graph, parallel=args.workers,
                                budget=budget)
        else:
            results = gmbc_naive(graph, parallel=args.workers,
                                 budget=budget)
    finally:
        elapsed = time.perf_counter() - started
        _report_trace(args, tracer)
    for tau, clique in enumerate(results):
        print(f"tau={tau:3d}  {clique.describe(graph)}")
    profile = distinct_cliques_profile(results)
    print(f"distinct cliques: {profile['distinct']}  "
          f"beta: {profile['beta']}  time: {elapsed:.3f}s")
    return _budget_epilogue(budget)


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    clique = mbc_star(graph, args.tau)
    beta = pf_star(graph)
    print(f"|V| = {graph.num_vertices}")
    print(f"|E| = {graph.num_edges}")
    print(f"|E-|/|E| = {graph.negative_ratio:.2f}")
    print(f"|C*| (tau={args.tau}) = {clique.size}")
    print(f"beta(G) = {beta}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load(args.name, scale=args.scale)
    save_signed_graph(graph, args.output)
    print(f"wrote {args.output}: n={graph.num_vertices} "
          f"m={graph.num_edges}")
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    from .core.mbc_baseline import enumerate_maximal_balanced_cliques

    graph = _load_graph(args.graph)
    cliques = enumerate_maximal_balanced_cliques(
        graph, tau=args.tau, limit=args.limit)
    cliques.sort(key=lambda c: c.size, reverse=True)
    for clique in cliques:
        print(clique.describe(graph))
    capped = " (limit reached)" if len(cliques) >= args.limit else ""
    print(f"{len(cliques)} maximal balanced cliques with "
          f"tau={args.tau}{capped}")
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    from .signed.balance import frustration_partition_local_search, \
        harary_partition

    graph = _load_graph(args.graph)
    partition = harary_partition(graph)
    if partition is not None:
        left, right = partition
        print("structurally balanced: yes")
        print(f"camps: {len(left)} / {len(right)} vertices")
    else:
        print("structurally balanced: no")
        _left, _right, frustration = \
            frustration_partition_local_search(graph)
        print(f"local-search frustration upper bound: {frustration} "
              f"edges (of {graph.num_edges})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import run_lint
    from .analysis.rules import ALL_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    try:
        return run_lint(args.paths, rule_ids=args.rule_ids,
                        as_json=args.as_json)
    except (OSError, KeyError) as exc:
        # Usage errors exit 2 (the lint CI contract), distinct from
        # "findings present" (1) — don't fall through to main()'s
        # generic handler, which exits 1.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (
        DEFAULT_CACHE_CAPACITY,
        DEFAULT_POOL_SIZE,
        ServeApp,
        SolverService,
    )

    service = SolverService(
        cache_capacity=(DEFAULT_CACHE_CAPACITY
                        if args.cache_size is None
                        else args.cache_size))
    app = ServeApp(
        service, host=args.host, port=args.port,
        pool_size=(DEFAULT_POOL_SIZE if args.pool is None
                   else args.pool))

    async def _serve() -> None:
        await app.start()
        print(f"repro serve listening on "
              f"http://{app.host}:{app.port} "
              f"(cache={service.cache.capacity})")
        await app.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


_COMMANDS = {
    "mbc": _cmd_mbc,
    "mbc-star": _cmd_mbc,
    "pf": _cmd_pf,
    "pf-star": _cmd_pf,
    "gmbc": _cmd_gmbc,
    "gmbc-star": _cmd_gmbc,
    "dynamic": _cmd_dynamic,
    "stats": _cmd_stats,
    "generate": _cmd_generate,
    "enum": _cmd_enum,
    "balance": _cmd_balance,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
