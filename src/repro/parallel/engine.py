"""The fan-out driver: task planning, dispatch, result aggregation.

``mbc_ego_fanout`` replaces the serial ego-network sweep of MBC* when
``parallel > 1``; ``pf_round_fanout`` does the same for PF*'s
DCC sweep.  Both guarantee an optimum of **identical size** to the
serial engines regardless of scheduling:

* every task is defined by ``(u, higher-ranked mask)`` alone, so the
  union of tasks covers every candidate clique whatever the order;
* the shared incumbent only ever holds sizes of cliques actually
  found (a racing publication can lose a raise, which only loosens
  pruning), so a task skipped against it can never have held a
  strictly larger clique — with one exception: after
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
``SearchStats`` included; no serial solve enters this package's
dispatch.  ``DynamicSolver.solve`` always runs its own serial ego
loop: a re-solve queue is far below the gate.  Above it a fresh pool
serves the solve,
preferring the ``fork`` start method — the parent installs the
:class:`~repro.parallel.worker.WorkerContext` in a module global first,
so the children inherit the adjacency masks through the address-space
copy and nothing is pickled at all.  Platforms without ``fork`` fall
back to ``spawn`` with the context packed into compact byte blobs; if
no pool can be created at all, the same chunk runners execute
in-process.  The two fan-outs share one dispatch scaffold
(``_Fanout``): the shared incumbent, the worker context, the per-chunk
accounting, the budget abort and the ``fanout`` span.

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
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from ..core.result import BalancedClique
from ..core.stats import SearchStats
from ..obs import Span, Tracer, current_tracer
from ..resilience.budget import Budget, BudgetExceeded
from .dispatch import ResilientDispatcher, preferred_start_method
from .incumbent import SharedIncumbent
from .tasks import chunk_vertices, cost_ordered, is_viable, plan_tasks
from .worker import WorkerContext, install_context, \
    run_dcc_chunk_task, run_mdc_chunk_task

__all__ = [
    "resolve_workers",
    "pool_pays",
    "preferred_start_method",
    "mbc_ego_fanout",
    "pf_round_fanout",
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

    The one pool decision of the package, made once per solve by the
    solvers: ``mbc_star`` and ``pf_star`` call their fan-out only when
    it holds and run their serial sweep otherwise; no fan-out asks it
    again.  Both thresholds are read
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


class _Fanout:
    """The dispatch scaffold the two fan-outs share.

    One instance serves one solve: it owns the shared incumbent
    (starting at ``floor``), the :class:`WorkerContext` and the
    :class:`ResilientDispatcher`.  :meth:`run` folds each chunk's
    stats delta, node charge and trace delta in and yields the
    chunk's own result; :meth:`span` wraps the solve in the
    ``fanout`` span, turns ``BudgetExceeded`` into an aborted pool
    and ``completed = False``, and always closes the pool.  A pool
    failure resets the incumbent to :attr:`certified`, the floor the
    caller raises as delivered results prove it.
    """

    def __init__(
        self,
        pos_bits: list[int],
        neg_bits: list[int],
        n: int,
        tau: int,
        order: list[int],
        floor: int,
        workers: int,
        stats: SearchStats | None,
        tracer: Tracer,
        budget: "Budget | None",
        engine: str,
        use_core: bool = True,
        use_coloring: bool = True,
    ) -> None:
        method = preferred_start_method()
        self.incumbent = SharedIncumbent(
            floor,
            multiprocessing.get_context(method) if method is not None
            else None)
        self.certified = floor
        self.completed = True
        self._stats = stats
        self._tracer = tracer
        self._budget = budget
        # A node-capped budget needs chunk stats even without caller
        # ``stats``: each arriving chunk's nodes are charged against it
        # (chunk-granular — a worker never holds a budget of its own).
        want_stats = stats is not None or (
            budget is not None and budget.max_nodes is not None)
        self._dispatcher = ResilientDispatcher(workers, WorkerContext(
            pos_bits, neg_bits, n, tau, order, self.incumbent,
            use_core=use_core, use_coloring=use_coloring,
            want_stats=want_stats, want_trace=tracer.enabled,
            engine=engine))

    def run(self, runner: Callable[..., Any],
            payloads: list[Any]) -> Iterator[Any]:
        """Each chunk's own result (the first field of its tuple), in
        arrival order, once its accounting is folded in."""
        for result in self._dispatcher.run(
                runner, payloads, budget=self._budget,
                on_recover=lambda: self.incumbent.reset(self.certified)):
            chunk_stats, buffer = result[1], result[2]
            if chunk_stats is not None:
                if self._stats is not None:
                    self._stats.merge(chunk_stats)
                if self._budget is not None:
                    # Raises BudgetExceeded past the node cap.
                    self._budget.spend(chunk_stats.nodes)
            if buffer is not None:
                self._tracer.absorb(buffer)
            yield result[0]

    @contextmanager
    def span(self, **attrs: object) -> Iterator[Span]:
        """The ``fanout`` span around the whole dispatch."""
        try:
            with self._tracer.span("fanout", **attrs) as fan_span:
                try:
                    yield fan_span
                except BudgetExceeded:
                    self._dispatcher.abort()
                    self.completed = False
                if self._tracer.enabled:
                    report = self._dispatcher.report
                    fan_span.set(pooled=report.pooled,
                                 rebuilds=report.rebuilds,
                                 degraded=report.degraded)
                    if self._budget is not None:
                        fan_span.set(status=self._budget.status.value)
        finally:
            self._dispatcher.close()
            install_context(None)


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
    workers' branch-and-bound search (``"bitset"`` or ``"numpy"``);
    planning and the shipped context are the same int masks for
    both.  The
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

    fan = _Fanout(pos_bits, neg_bits, n, tau, order, best.size, workers,
                  stats, tracer, budget, engine, use_core=use_core,
                  use_coloring=use_coloring)
    # The first of the largest delivered witnesses; its size is the
    # floor a pool failure resets the incumbent to.
    best_witness = None
    with fan.span(tasks=len(viable), workers=workers):
        for witness in fan.run(
                run_mdc_chunk_task,
                chunk_vertices([t.u for t in viable], workers)):
            if witness is not None and len(witness[1]) + 1 > fan.certified:
                fan.certified = len(witness[1]) + 1
                best_witness = witness

    if best_witness is None:
        return best
    u, members = best_witness
    return BalancedClique.from_anchor(u, members)


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
    ``engine`` selects the workers' search, as in
    :func:`mbc_ego_fanout`, and ``workers > 1`` starts a pool as
    there.
    """
    tracer = trace if trace is not None else current_tracer()
    # The scaffold's certified floor is the bar proven by *delivered*
    # successes.  On a pool failure the incumbent drops back to it: a
    # lost chunk may have published a bar it can no longer prove, and
    # its re-run (asked at that elevated bar) would fail the +1
    # question its original run answered — silently losing the optimum.
    fan = _Fanout(pos_bits, neg_bits, n, 0, order, tau_star, workers,
                  stats, tracer, budget, engine)

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
    # Anytime: on budget expiry the (tau_star, witness) pair from the
    # last full round is certified; in-flight round work is abandoned.
    with fan.span(tasks=len(pending), workers=workers):
        while True:
            if budget is not None:
                budget.check()
            # Lemma 5: pn(u) bounds gamma(g_u); once the bar passes
            # it, the vertex can never answer a +1 question
            # positively.  A vertex absent from pn was dropped by
            # PDecompose's own reduction, so it gets the no-op default
            # tau_star + 1 and the DCC question decides (it bounds,
            # never filters, so a loose default costs one question,
            # not correctness).
            if pn_map is not None:
                pending = [u for u in pending
                           if pn_map.get(u, tau_star + 1) > tau_star]
            if not pending:
                break
            if stats is not None:
                stats.vertices_examined += len(pending)
            payloads = [(tau_star, chunk) for chunk
                        in chunk_vertices(pending, workers)]
            round_successes: list[tuple[int, int, list]] = []
            with tracer.span("round", bar=tau_star,
                             pending=len(pending)) as round_span:
                for successes in fan.run(run_dcc_chunk_task, payloads):
                    round_successes.extend(successes)
                    for _u, bar, _m in successes:
                        fan.certified = max(fan.certified, bar + 1)
                round_span.set(successes=len(round_successes))
            if not round_successes:
                break
            new_tau = max(bar + 1 for _u, bar, _m in round_successes)
            # Deterministic witness: among the successes proving the
            # new bar, keep the earliest vertex in dispatch order.
            position = {u: i for i, u in enumerate(pending)}
            top = min(
                (s for s in round_successes if s[1] + 1 == new_tau),
                key=lambda s: position[s[0]])
            u, _bar, members = top
            witness = BalancedClique.from_anchor(u, members)
            tau_star = new_tau
            fan.incumbent.improve(tau_star)
            survivors = {s[0] for s in round_successes}
            pending = [u for u in pending if u in survivors]
    return tau_star, witness
