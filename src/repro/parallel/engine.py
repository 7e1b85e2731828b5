"""The fan-out driver: task planning, dispatch, result aggregation.

``mbc_ego_fanout`` replaces the serial ego-network sweep of MBC* when
``parallel > 1``; ``pf_round_fanout`` does the same for PF*'s
DCC sweep.  Both guarantee an optimum of **identical size** to the
serial engines regardless of scheduling:

* every task is defined by ``(u, higher-ranked mask)`` alone, so the
  union of tasks covers every candidate clique whatever the order;
* the shared incumbent only ever *grows* during a dispatch, and only
  to sizes of cliques actually found, so a task skipped against it can
  never have held a strictly larger clique — with one exception: after
  a pool failure the register is reset to the floor certified by
  *delivered* results (``on_recover``), because a bound published by a
  chunk whose result was lost is a claim nobody holds a witness for,
  and re-running that chunk against it would prune away its own
  re-certification;
* the parent aggregates every worker's best witness and takes the
  maximum.

Pool strategy: the solvers decide once, before any fan-out starts,
whether a pool pays (:func:`pool_pays`).  Creating and closing a fork
pool takes longer than a whole pruned stand-in sweep, so the gate asks
for ``MIN_POOL_TASKS`` tasks and a ``MIN_POOL_WORK`` candidate-count
estimate.  The crossover table in EXPERIMENTS.md ("Pool crossover")
found no case where the pool wins, so the gate sits above every case
it measured and a pool opens only where nothing was measured.  Below
it ``mbc_star`` and ``pf_star`` run their serial sweep, witnesses and
``SearchStats`` included.  Above it a fresh pool serves the solve,
preferring the ``fork`` start method — the parent installs the
:class:`~repro.parallel.worker.WorkerContext` in a module global first,
so the children inherit the adjacency masks through the address-space
copy and nothing is pickled at all.  Platforms without ``fork`` fall
back to ``spawn`` with the context packed into compact byte blobs; if
no pool can be created at all, the same chunk runners execute
in-process.  The in-process runner is also the dynamic solver's serial
path.

All pool mechanics live in :class:`~repro.parallel.dispatch.
ResilientDispatcher` (see :mod:`repro.parallel.dispatch`): chunks are
accounted individually, a dead or raising worker costs one pool
rebuild and a re-dispatch of only the unfinished chunks, a second
failure degrades to the in-process runner, and solve budgets
(:class:`repro.resilience.Budget`) are enforced between chunk results
— so a fan-out solve never loses work, never hangs, and stops on its
deadline even while the work sits in worker processes.
"""

from __future__ import annotations

import multiprocessing
from typing import Sequence

from ..core.result import BalancedClique
from ..core.stats import SearchStats
from ..obs import Tracer, current_tracer
from ..resilience.budget import Budget, BudgetExceeded
from .dispatch import ResilientDispatcher, preferred_start_method
from .incumbent import SharedIncumbent
from .tasks import chunk_vertices, cost_ordered, is_viable, plan_tasks
from .worker import WorkerContext, install_context, \
    run_dcc_chunk_task, run_dynamic_chunk_task, run_mdc_chunk_task

__all__ = [
    "resolve_workers",
    "pool_pays",
    "preferred_start_method",
    "mbc_ego_fanout",
    "pf_round_fanout",
    "dynamic_ego_fanout",
    "MIN_POOL_TASKS",
    "MIN_POOL_WORK",
]

#: Below this many dispatchable tasks a pool cannot pay for itself:
#: each worker needs several chunks to amortize its start.
MIN_POOL_TASKS = 24

#: Minimum ``sum(cost^2)`` over the tasks' candidate counts before a
#: pool may start.  Each instance's branch-and-bound cost grows
#: superlinearly with its candidate count, so the squared count
#: separates big sweeps from small ones far better than the task count
#: does.  No crossover was found: on 2 vCPUs a real pool beat the
#: serial sweep through parallelism on no case of
#: ``benchmarks/bench_pool_crossover.py`` (EXPERIMENTS.md, "Pool
#: crossover"), up to the largest estimate measured, 11.0M.  So this
#: is not a measured break-even; it keeps the gate above every case
#: measured, and a pool opens only on sweeps larger than any measured.
MIN_POOL_WORK = 12_000_000


def pool_pays(costs: Sequence[int], workers: int) -> bool:
    """Whether a fan-out over tasks with candidate counts ``costs``
    should start a process pool.

    The one pool decision of the package: ``mbc_star`` and ``pf_star``
    call their fan-out only when it holds (and run the serial sweep
    otherwise), and :func:`dynamic_ego_fanout`, which has no caller
    gate, asks it before creating a pool.  Both thresholds are read
    from the module at call time, so setting them to 0 forces a pool
    for any task list.
    """
    return (workers > 1 and len(costs) >= MIN_POOL_TASKS
            and sum(c * c for c in costs) >= MIN_POOL_WORK)


def resolve_workers(parallel: int | None) -> int:
    """Normalize the ``parallel`` knob: ``None``/``0``/``1`` mean
    serial; larger values request that many worker processes."""
    if parallel is None or parallel <= 1:
        return 1
    return int(parallel)


def _want_accounting(stats: SearchStats | None,
                     budget: "Budget | None") -> bool:
    """Whether chunk results must carry stats deltas.

    A node-capped budget needs them even when the caller passed no
    ``stats``: the parent charges each chunk's node count against the
    budget as results arrive (chunk-granular — a worker never holds a
    budget of its own).
    """
    return stats is not None or (
        budget is not None and budget.max_nodes is not None)


def _charge_chunk(budget: "Budget | None",
                  chunk_stats: SearchStats | None) -> None:
    """Charge one chunk's branch-and-bound nodes against the budget
    (raises ``BudgetExceeded`` when that crosses the node cap)."""
    if budget is not None and chunk_stats is not None:
        budget.spend(chunk_stats.nodes)


def mbc_ego_fanout(
    pos_bits: list[int],
    neg_bits: list[int],
    n: int,
    tau: int,
    best: BalancedClique,
    order: list[int],
    workers: int,
    use_core: bool = True,
    use_coloring: bool = True,
    stats: SearchStats | None = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
    engine: str = "bitset",
) -> BalancedClique:
    """Run MBC*'s ego-network sweep as a parallel fan-out.

    Parameters mirror the serial sweep's state at line 5 of Algorithm 2:
    ``pos_bits``/``neg_bits`` are the caller graph's adjacency masks
    over ``n`` vertices, ``best`` the incumbent (heuristic or
    caller-seeded), ``order`` the processing order over the
    ``|C*|``-core.  Everything runs in the caller's vertex ids, so the
    returned witness needs no translation.  A live ``trace`` asks the
    workers for per-chunk :class:`~repro.obs.TraceBuffer` deltas,
    absorbed under one ``fanout`` span as chunk results arrive.  A
    ``budget`` is enforced at chunk granularity: the deadline between
    chunk results (the dispatcher's heartbeat), the node cap from the
    chunks' stats deltas; on exhaustion the already-aggregated best
    witness is returned (anytime contract).  ``engine`` selects the
    worker-side kernel backend (``"bitset"`` or ``"numpy"``); task
    planning always runs on the parent's int masks, and the shipped
    context rebuilds the matching representation worker-side.  The
    caller has already decided that a pool pays (``mbc_star`` asks
    :func:`pool_pays`), so ``workers > 1`` starts one.
    """
    tracer = trace if trace is not None else current_tracer()
    tasks = plan_tasks(pos_bits, neg_bits, order)
    if stats is not None:
        stats.vertices_examined += len(tasks)

    # Pre-dispatch bound against the initial incumbent; workers re-check
    # against the live one before doing any real work.
    required = max(best.size + 1, 2 * tau)
    viable = [t for t in cost_ordered(tasks)
              if is_viable(t, required, tau)]
    if not viable:
        return best

    incumbent = SharedIncumbent(
        best.size,
        multiprocessing.get_context(preferred_start_method())
        if preferred_start_method() is not None else None)
    want_accounting = _want_accounting(stats, budget)
    ctx_obj = WorkerContext(
        pos_bits, neg_bits, n, tau, order, incumbent,
        use_core=use_core, use_coloring=use_coloring,
        want_stats=want_accounting, want_trace=tracer.enabled,
        engine=engine)
    chunks = chunk_vertices([t.u for t in viable], workers)

    dispatcher = ResilientDispatcher(workers, ctx_obj)
    try:
        best_witness = None
        best_size = best.size
        with tracer.span("fanout", tasks=len(viable),
                         workers=workers) as fan_span:
            try:
                # On a pool failure the incumbent drops back to the
                # best *delivered* size: a lost chunk may have
                # published a size it can no longer prove, and its
                # re-run would be pruned by its own stale publication.
                for witness, chunk_stats, buffer, _examined, _skipped \
                        in dispatcher.run(
                            run_mdc_chunk_task, chunks, budget=budget,
                            on_recover=lambda:
                                incumbent.reset(best_size)):
                    if chunk_stats is not None and stats is not None:
                        stats.merge(chunk_stats)
                    _charge_chunk(budget, chunk_stats)
                    if buffer is not None:
                        tracer.absorb(buffer)
                    if witness is not None:
                        u, members = witness
                        size = len(members) + 1
                        if size > best_size:
                            best_size = size
                            best_witness = witness
            except BudgetExceeded:
                dispatcher.abort()
            if tracer.enabled:
                report = dispatcher.report
                fan_span.set(pooled=report.pooled,
                             rebuilds=report.rebuilds,
                             degraded=report.degraded)
                if budget is not None:
                    fan_span.set(status=budget.status.value)
    finally:
        dispatcher.close()
        install_context(None)

    if best_witness is None:
        return best
    u, members = best_witness
    return BalancedClique.from_anchor(u, members)


def dynamic_ego_fanout(
    pos_bits: list[int],
    neg_bits: list[int],
    n: int,
    tau: int,
    floor: int,
    egos: list[int],
    order: list[int],
    workers: int,
    costs: Sequence[int] = (),
    use_core: bool = True,
    use_coloring: bool = True,
    stats: SearchStats | None = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
    engine: str = "bitset",
) -> "tuple[list[tuple[int, int, list[tuple[int, bool]] | None]], bool]":
    """Dispatch the dynamic solver's dirty-ego subset.

    Like :func:`mbc_ego_fanout` this takes the adjacency masks, not a
    graph: the dynamic solver owns incrementally-maintained masks and
    hands them over directly, with ``egos`` the (typically tiny) subset
    of anchors whose cached bounds cannot rule them out and ``floor``
    the incumbent size certified by cached witnesses.  Unlike it, the
    task set is explicit rather than planned from an ordering.
    ``costs`` are the solver's own candidate counts for ``egos`` (it
    already holds per-ego allowed masks, so re-planning tasks here
    would be an O(n) scan per solve); they only gate pool creation
    through :func:`pool_pays`.

    Returns ``(outcomes, completed)``; each outcome is the worker's
    ``(u, certified upper, members-or-None)`` triple.  Outcomes are
    certified individually (see
    :func:`repro.parallel.worker.run_dynamic_chunk`), so on budget
    exhaustion the partial list is returned with ``completed=False``
    and the caller commits what arrived — the unprocessed egos simply
    stay dirty.  A pool failure resets the shared incumbent to the
    floor certified by delivered witnesses, exactly as in
    :func:`mbc_ego_fanout`.
    """
    tracer = trace if trace is not None else current_tracer()
    if not egos:
        return [], True
    incumbent = SharedIncumbent(
        floor,
        multiprocessing.get_context(preferred_start_method())
        if preferred_start_method() is not None else None)
    want_accounting = _want_accounting(stats, budget)
    ctx_obj = WorkerContext(
        pos_bits, neg_bits, n, tau, order, incumbent,
        use_core=use_core, use_coloring=use_coloring,
        want_stats=want_accounting, want_trace=tracer.enabled,
        engine=engine)
    chunks = chunk_vertices(egos, workers)
    want_pool = pool_pays(costs, workers)
    dispatcher = ResilientDispatcher(workers, ctx_obj,
                                     want_pool=want_pool)
    outcomes: "list[tuple[int, int, list[tuple[int, bool]] | None]]" = []
    completed = True
    certified = floor
    try:
        with tracer.span("fanout", tasks=len(egos), workers=workers,
                         dynamic=True) as fan_span:
            try:
                for chunk_outcomes, chunk_stats, buffer, _examined, \
                        _skipped in dispatcher.run(
                            run_dynamic_chunk_task, chunks,
                            budget=budget,
                            on_recover=lambda:
                                incumbent.reset(certified)):
                    if chunk_stats is not None and stats is not None:
                        stats.merge(chunk_stats)
                    _charge_chunk(budget, chunk_stats)
                    if buffer is not None:
                        tracer.absorb(buffer)
                    outcomes.extend(chunk_outcomes)
                    for _u, upper, members in chunk_outcomes:
                        if members is not None:
                            certified = max(certified, upper)
            except BudgetExceeded:
                dispatcher.abort()
                completed = False
            if tracer.enabled:
                report = dispatcher.report
                fan_span.set(pooled=report.pooled,
                             rebuilds=report.rebuilds,
                             degraded=report.degraded,
                             delivered=len(outcomes))
                if budget is not None:
                    fan_span.set(status=budget.status.value)
    finally:
        dispatcher.close()
        install_context(None)
    return outcomes, completed


def pf_round_fanout(
    pos_bits: list[int],
    neg_bits: list[int],
    n: int,
    order: list[int],
    pn: "dict[int, int] | list[int] | None",
    tau_star: int,
    witness: BalancedClique,
    workers: int,
    stats: SearchStats | None = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
    engine: str = "bitset",
) -> tuple[int, BalancedClique]:
    """Run PF*'s DCC sweep as rounds of parallel +1 questions.

    The serial sweep threads ``tau*`` through the loop, so it cannot be
    scattered as-is.  Instead the fan-out iterates *rounds*: every
    pending vertex is asked the ``(tau*, tau* + 1)`` question at the
    round's bar (or the live shared bar, whichever is higher); a vertex
    that fails at bar ``b`` has ``gamma(g_u) <= b`` and is dropped for
    good, while successes raise ``tau*`` and stay pending.  The
    fixpoint is exactly ``beta(G) = max_u gamma(g_u)``, independent of
    scheduling — each round needs only monotone bars, which the shared
    incumbent guarantees.  A live ``trace`` wraps the rounds in one
    ``fanout`` span, each round in a ``round`` span, and absorbs the
    workers' trace deltas under it.
    A ``budget`` stops between rounds or between a round's chunks;
    ``tau_star``/``witness`` are only advanced together after a full
    round, so the truncated return is always a certified pair.
    The graph arrives as its adjacency masks over ``n`` vertices and
    ``engine`` selects the worker-side kernel backend, as in
    :func:`mbc_ego_fanout`, and ``workers > 1`` starts a pool as
    there.
    """
    tracer = trace if trace is not None else current_tracer()
    method = preferred_start_method()
    incumbent = SharedIncumbent(
        tau_star,
        multiprocessing.get_context(method) if method is not None
        else None)
    want_accounting = _want_accounting(stats, budget)
    ctx_obj = WorkerContext(
        pos_bits, neg_bits, n, 0, order, incumbent,
        want_stats=want_accounting, want_trace=tracer.enabled,
        engine=engine)

    # PDecompose hands pn as a dense list; other reduction paths pass a
    # (possibly partial) dict.  Normalize so the round filter can use
    # ``.get`` with a safe default for vertices missing an entry.
    pn_map: "dict[int, int] | None"
    if pn is None:
        pn_map = None
    elif isinstance(pn, dict):
        pn_map = pn
    else:
        pn_map = dict(enumerate(pn))

    pending = [u for u in reversed(order)]
    dispatcher = ResilientDispatcher(workers, ctx_obj)
    # The bar certified by *delivered* successes.  On a pool failure
    # the incumbent drops back to this floor: a lost chunk may have
    # published a bar it can no longer prove, and its re-run (asked at
    # that elevated bar) would fail the +1 question its original run
    # answered — silently losing the optimum.
    certified = tau_star
    try:
        with tracer.span("fanout", tasks=len(pending),
                         workers=workers) as fan_span:
            try:
                while True:
                    if budget is not None:
                        budget.check()
                    # Lemma 5: pn(u) bounds gamma(g_u); once the bar
                    # passes it, the vertex can never answer a +1
                    # question positively.  A vertex absent from pn was
                    # dropped by PDecompose's own reduction, so it gets
                    # the no-op default tau_star + 1 and the DCC
                    # question decides (it bounds, never filters, so a
                    # loose default costs one question, not
                    # correctness).
                    if pn_map is not None:
                        pending = [u for u in pending
                                   if pn_map.get(u, tau_star + 1)
                                   > tau_star]
                    if not pending:
                        break
                    if stats is not None:
                        stats.vertices_examined += len(pending)
                    payloads = [(tau_star, chunk) for chunk
                                in chunk_vertices(pending, workers)]
                    round_successes: list[tuple[int, int, list]] = []
                    with tracer.span("round", bar=tau_star,
                                     pending=len(pending)) as round_span:
                        for successes, chunk_stats, buffer, _examined \
                                in dispatcher.run(
                                    run_dcc_chunk_task, payloads,
                                    budget=budget,
                                    on_recover=lambda:
                                        incumbent.reset(certified)):
                            if chunk_stats is not None \
                                    and stats is not None:
                                stats.merge(chunk_stats)
                            _charge_chunk(budget, chunk_stats)
                            if buffer is not None:
                                tracer.absorb(buffer)
                            round_successes.extend(successes)
                            for _u, bar, _m in successes:
                                certified = max(certified, bar + 1)
                        round_span.set(successes=len(round_successes))
                    if not round_successes:
                        break
                    new_tau = max(bar + 1
                                  for _u, bar, _m in round_successes)
                    # Deterministic witness: among the successes
                    # proving the new bar, keep the earliest vertex in
                    # dispatch order.
                    position = {u: i for i, u in enumerate(pending)}
                    top = min(
                        (s for s in round_successes
                         if s[1] + 1 == new_tau),
                        key=lambda s: position[s[0]])
                    u, _bar, members = top
                    witness = BalancedClique.from_anchor(u, members)
                    tau_star = new_tau
                    incumbent.improve(tau_star)
                    survivors = {s[0] for s in round_successes}
                    pending = [u for u in pending if u in survivors]
            except BudgetExceeded:
                # Anytime: the (tau_star, witness) pair from the last
                # full round is certified; in-flight round work is
                # abandoned.
                dispatcher.abort()
            if tracer.enabled:
                report = dispatcher.report
                fan_span.set(pooled=report.pooled,
                             rebuilds=report.rebuilds,
                             degraded=report.degraded)
                if budget is not None:
                    fan_span.set(status=budget.status.value)
    finally:
        dispatcher.close()
        install_context(None)
    return tau_star, witness
