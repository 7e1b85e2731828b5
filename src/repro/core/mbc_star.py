"""MBC* — the paper's maximum balanced clique algorithm (Algorithm 2).

Pipeline:

1. ``VertexReduction`` of [13] (``EdgeReduction`` only in the
   ``MBC*-withER`` variant — the paper shows it is a net overhead);
2. ``MBC-Heu`` supplies an initial solution ``C*``;
3. reduce the graph to its ``|C*|``-core (signs ignored) and compute
   the degeneracy ordering;
4. for each vertex ``u`` in *reverse* degeneracy order, run the MDC
   ego step of :mod:`repro.dichromatic.ego`: skip ``u`` when its
   higher-ranked neighbour counts cannot meet ``tau`` or beat ``|C*|``,
   or when the core of ``g_u`` (peeled on the global masks) is too
   small, otherwise build the dichromatic network ``g_u``, core-reduce
   it, skip it when the colouring bound cannot beat ``|C*|``, and solve a
   maximum dichromatic clique instance
   (:func:`repro.dichromatic.mdc.solve_mdc`).  This module keeps only
   the loop: the order, the higher-ranked mask, the incumbent, budget
   checkpoints and the ``check_only`` early exit.

Every size bar below also folds in the feasibility bound
``|C| >= 2 * tau`` (both sides need ``tau`` vertices), which is what
lets gMBC* seed the search with ``(2 tau - 1)``-cores.
"""

from __future__ import annotations

from ..dichromatic.ego import MDC_STEPS, ego_adjacency, witness_members
from ..kernels import validate_engine
from ..kernels.active import degeneracy_ordering_array, k_core_array
from ..kernels.bitset import bits_of, mask_of
from ..obs import Tracer, current_tracer
from ..parallel.engine import mbc_ego_fanout, pool_pays, resolve_workers
from ..parallel.tasks import peel_costs, planned_later
from ..resilience.budget import Budget, BudgetExceeded
from ..signed.graph import SignedGraph
from ..unsigned.cores import k_core_subset
from ..unsigned.graph import UnsignedGraph
from ..unsigned.ordering import degeneracy_ordering
from .heuristic import mbc_heuristic
from .reductions import degrees_inside, edge_reduction, \
    edge_reduction_fast, vertex_reduction
from .result import EMPTY_RESULT, BalancedClique
from .stats import SearchStats

__all__ = ["mbc_star"]


def mbc_star(
    graph: SignedGraph,
    tau: int,
    use_edge_reduction: bool = False,
    initial: BalancedClique | None = None,
    stats: SearchStats | None = None,
    check_only: bool = False,
    ordering: str = "degeneracy",
    use_coloring: bool = True,
    use_core: bool = True,
    engine: str = "bitset",
    parallel: int = 0,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> BalancedClique:
    """Maximum balanced clique satisfying the polarization constraint.

    Parameters
    ----------
    graph, tau:
        The signed graph and polarization constraint.
    use_edge_reduction:
        Apply ``EdgeReduction`` too (the ``MBC*-withER`` variant of
        Figure 6); off by default, as in the paper.
    initial:
        Optional known balanced clique satisfying ``tau`` (gMBC* passes
        the optimum for ``tau + 1``); used as the starting lower bound
        and returned unchanged when nothing larger exists.
    stats:
        Optional instrumentation (Table IV counters).
    check_only:
        If True, return the first balanced clique satisfying ``tau``
        that the search encounters (not necessarily maximum) — the
        early-termination mode PF-BS uses.  Returns the empty result if
        none exists.
    ordering:
        Vertex processing order: ``'degeneracy'`` (the paper's choice —
        minimizes ego-network sizes), ``'degree'`` (non-decreasing
        degree) or ``'id'`` (vertex id); the alternatives exist for the
        ordering ablation benchmark.
    use_coloring, use_core:
        Ablation switches for the colouring-bound and core-reduction
        pruning (both on by default, as in the paper).
    engine:
        ``"bitset"`` (default) runs every phase -- reductions,
        ordering, the ego step of :mod:`repro.dichromatic.ego` and the
        MDC search -- on int-mask adjacency (see :mod:`repro.kernels`).
        ``"numpy"`` = vectorised MDC/DCC search, everything else
        shared: the same phases, with the MDC branch and bound on
        uint64 mask rows (:mod:`repro.kernels.npmask`).  ``"set"`` is
        the original adjacency-set path, retained for differential
        testing and the ablation benchmarks.
    parallel:
        Number of worker processes for the ego-network sweep.  ``0`` or
        ``1`` run the serial sweep; larger values fan the per-vertex
        MDC instances out across a process pool with a shared incumbent
        (:mod:`repro.parallel`) when the sweep is big enough to pay for
        one (:func:`repro.parallel.engine.pool_pays`), and run the
        serial sweep, witness and ``stats`` included, otherwise.
        Requires an engine whose registry descriptor reports parallel
        support (bitset and numpy; the set engine is serial-only); the
        optimum size is identical to the serial sweep's.
        ``check_only`` runs always stay serial (the first witness ends
        the search, so there is nothing to fan out).
    trace:
        Optional :class:`repro.obs.Tracer`; defaults to the ambient
        tracer.  A traced run closes one ``mbc_star`` root span with
        per-phase children (``vertex_reduction``, ``heuristic``,
        ``core_reduction``, ``ordering``, ``sweep``) and one ``ego``
        span per examined vertex — see ``docs/OBSERVABILITY.md``.
    budget:
        Optional :class:`repro.resilience.Budget` making this an
        *anytime* solve: reduction and heuristic always run, then the
        budget is checked per ego network and charged per
        branch-and-bound node; on exhaustion the current incumbent is
        returned and ``budget.status`` reads ``BUDGET_EXHAUSTED``
        (``check_only`` truncation returns the empty result — "not
        proven").  See ``docs/ROBUSTNESS.md``.

    Returns
    -------
    BalancedClique
        The maximum balanced clique (or the feasibility witness in
        ``check_only`` mode); empty when no clique satisfies ``tau``.
        Under an exhausted budget: the best incumbent proven so far.
    """
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if ordering not in ("degeneracy", "degree", "id"):
        raise ValueError(f"unknown ordering {ordering!r}")
    workers = resolve_workers(parallel)
    validate_engine(engine, workers)
    best = initial if initial is not None else EMPTY_RESULT
    if not best.is_empty and not best.satisfies(tau):
        raise ValueError("initial clique violates the tau constraint")

    tracer = trace if trace is not None else current_tracer()
    root = tracer.span(
        "mbc_star", n=graph.num_vertices, tau=tau, engine=engine,
        workers=workers, check_only=check_only)
    with root:
        result = _pipeline(
            graph, tau, use_edge_reduction, stats, check_only, ordering,
            use_coloring, use_core, engine, workers, best, tracer,
            budget)
        if tracer.enabled:
            root.set(size=result.size)
            if budget is not None:
                root.set(status=budget.status.value,
                         budget_nodes=budget.nodes)
    return result


def _pipeline(
    graph: SignedGraph,
    tau: int,
    use_edge_reduction: bool,
    stats: SearchStats | None,
    check_only: bool,
    ordering: str,
    use_coloring: bool,
    use_core: bool,
    engine: str,
    workers: int,
    best: BalancedClique,
    tracer: Tracer,
    budget: "Budget | None",
) -> BalancedClique:
    """The MBC* pipeline behind :func:`mbc_star` (root span open)."""
    # Line 1: VertexReduction (plus EdgeReduction for the variant).
    # Every later phase runs in the caller's vertex ids on the
    # survivors' ``alive`` mask over the graph's cached adjacency masks:
    # no relabelled subgraph copy is ever built, and every phase reads
    # only survivors' rows, so only those are built.
    working = graph
    n = graph.num_vertices
    with tracer.span("vertex_reduction", n=n) as phase:
        survivors = vertex_reduction(graph, tau)
        alive = mask_of(survivors)
        phase.set(kept=len(survivors))
    if use_edge_reduction:
        # EdgeReduction runs on a copy whose non-survivors are
        # isolated, which is the vertex-reduced graph in the caller's
        # ids, so the fixpoint matches reducing the induced subgraph.
        working = graph.copy()
        for v in graph.vertices():
            if v not in survivors:
                working.isolate_vertex(v)
        with tracer.span("edge_reduction",
                         edges=working.num_edges) as phase:
            reducer = edge_reduction_fast if engine != "set" \
                else edge_reduction
            working = reducer(working, tau)
            survivors = vertex_reduction(working, tau)
            alive = mask_of(survivors)
            phase.set(kept_edges=working.num_edges,
                      kept=len(survivors))

    # Line 2: heuristic initial solution.
    with tracer.span("heuristic") as phase:
        heuristic = mbc_heuristic(working, tau, engine=engine, alive=alive)
        phase.set(size=heuristic.size)
    if stats is not None:
        stats.heuristic_size = heuristic.size
    if heuristic.size > best.size:
        best = heuristic
    if check_only and best.satisfies(tau) and not best.is_empty:
        return best

    # First budget checkpoint: the polynomial preprocessing above
    # always runs (so a truncated answer is at least the heuristic);
    # everything exponential from here on is interruptible.
    if budget is not None:
        try:
            budget.check()
        except BudgetExceeded:
            return EMPTY_RESULT if check_only else best

    # Line 3: reduce to the |C*|-core, signs ignored.  ``required`` is
    # the minimum acceptable clique size: beat the incumbent and leave
    # room for tau vertices per side.  Degrees count inside ``alive``.
    required = max(best.size + 1, 2 * tau)
    with tracer.span("core_reduction", required=required) as phase:
        if engine != "set":
            # Degrees inside ``alive`` are popcounts of the signed
            # masks; the peel walks the survivors' neighbour rows, and
            # leaves ``degree`` holding the degrees inside the core.
            members = bits_of(alive)
            degree = degrees_inside(working, members, alive)
            neighbors = working.neighbor_rows(members)
            inside = k_core_array(neighbors, required - 1, members,
                                  degree)
            core = [v for v in members if inside[v]]
        else:
            unsigned = UnsignedGraph.from_signed(working)
            core = sorted(k_core_subset(
                unsigned, required - 1, survivors))
        phase.set(kept=len(core))
        if not core:
            return best

    # Line 4: vertex ordering (degeneracy by default; ego-networks of
    # higher-ranked neighbours then have at most degeneracy(G) many
    # vertices).
    with tracer.span("ordering", kind=ordering) as phase:
        if ordering == "degeneracy":
            if engine != "set":
                # Ordering the core-induced subgraph suffices: every
                # clique able to beat the incumbent lies inside the
                # |C*|-core, and the sweep only ever ranks core vertices.
                order = degeneracy_ordering_array(
                    neighbors, core, degree)
            else:
                core_set = set(core)
                order = [v for v in degeneracy_ordering(
                    unsigned, survivors) if v in core_set]
        elif ordering == "degree":
            # Non-decreasing degree inside ``alive``, ties by id.
            if engine != "set":
                degree = degrees_inside(working, members, alive)
                order = sorted(core, key=degree.__getitem__)
            else:
                order = sorted(core, key=lambda v: len(
                    unsigned.neighbors(v) & survivors))
        else:
            order = core
        phase.set(n=len(order))
        # The pool gate: the per-vertex instances of the sweep are
        # order-independent, so a sweep big enough to pay for a process
        # pool is dispatched to one (identical optimum size; see
        # repro.parallel).  A task's cost is u's count of higher-ranked
        # neighbours, which the degeneracy peel left in ``degree``.
        # check_only stays serial: its contract is "stop at the first
        # witness", which a fan-out cannot honour cheaply.
        pays = False
        if workers > 1 and not check_only:
            if engine != "set" and ordering == "degeneracy":
                later = degree
            else:
                later = planned_later(*working.adjacency_rows(order),
                                      order)
            costs = peel_costs(order, later, required - 1)
            pays = pool_pays(costs, workers)
            if tracer.enabled:
                phase.set(work=sum(c * c for c in costs), pool=pays)

    if pays:
        # The pool ships every row to its workers.
        pos_bits, neg_bits = working.adjacency_rows()
        return mbc_ego_fanout(
            pos_bits, neg_bits, n, tau, best, order, workers,
            use_core=use_core, use_coloring=use_coloring, stats=stats,
            engine=engine, trace=tracer, budget=budget)

    # Line 5: process vertices in reverse order, one ego step each (the
    # per-vertex body -- count bounds, g_u, its |C*|-core, colouring
    # bound, MDC -- lives in repro.dichromatic.ego).  The higher-ranked
    # filter is a mask accumulated over the vertices already processed,
    # exactly those ranked above the current one.
    mdc_step = MDC_STEPS[engine]
    adjacency = ego_adjacency(working, engine, order)
    with tracer.span("sweep", n=len(order)):
        allowed = 0
        for u in reversed(order):
            # Anytime contract: a budgeted sweep stops between (or,
            # via the per-node spend inside solve_mdc, within) ego
            # networks and falls through to return the incumbent.
            if budget is not None:
                try:
                    budget.check()
                except BudgetExceeded:
                    break
            if stats is not None:
                stats.vertices_examined += 1
            with tracer.span("ego", v=u) as ego:
                try:
                    _pruned, _upper, network, found = mdc_step(
                        adjacency, u, allowed, tau,
                        max(best.size + 1, 2 * tau),
                        use_core=use_core, use_coloring=use_coloring,
                        stats=stats, tracer=tracer, ego=ego,
                        check_only=check_only, budget=budget)
                except BudgetExceeded:
                    break
            allowed |= 1 << u
            if found is None or network is None:
                continue
            candidate = BalancedClique.from_anchor(
                u, witness_members(network, found))
            if check_only:
                return candidate
            if candidate.size > best.size:
                best = candidate

    if check_only:
        return EMPTY_RESULT
    return best

