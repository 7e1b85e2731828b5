"""Polarization factor algorithms (Section IV).

``beta(G)`` is the largest ``tau`` for which a balanced clique with
both sides of size ``>= tau`` exists.  Three solvers, mirroring the
paper's experimental line-up:

* :func:`pf_enumeration` (``PF-E``) — enumerate balanced cliques and
  track the best ``min(|C_L|, |C_R|)`` (with the natural size-bound
  pruning);
* :func:`pf_binary_search` (``PF-BS``) — binary search on ``tau``,
  deciding feasibility with MBC* in early-termination mode;
* :func:`pf_star` (``PF*``, Algorithm 4) — direct adaptation of MBC*:
  process vertices in reverse *polarization order* (``PDecompose``),
  and for each ask only the +1 question — "does ``g_u`` hold a
  dichromatic clique with ``tau* + 1`` vertices per side?" — via DCC,
  justified by Lemma 4.  The question is the DCC ego step of
  :mod:`repro.dichromatic.ego` (candidate bound, bicore, DCC), shared
  with the pool workers and the dynamic solver; this module keeps the
  loop.  ``ordering='degeneracy'`` gives the ``PF*-DOrder`` variant of
  Figure 9.
"""

from __future__ import annotations

from bisect import bisect_right

from ..dichromatic.ego import DCC_STEPS, ego_adjacency, witness_members
from ..kernels import validate_engine
from ..kernels.active import degeneracy_ordering_array
from ..kernels.bitset import bits_of, mask_of
from ..obs import Tracer, current_tracer
from ..parallel.engine import pf_round_fanout, pool_pays, resolve_workers
from ..parallel.tasks import peel_costs
from ..resilience.budget import Budget, BudgetExceeded
from ..signed.graph import SignedGraph
from ..unsigned.graph import UnsignedGraph
from ..unsigned.ordering import degeneracy_ordering
from .heuristic import mbc_heuristic
from .mbc_star import mbc_star
from .reductions import degrees_inside, polar_core_numbers, \
    polarization_upper_bound, vertex_reduction
from .result import BalancedClique
from .stats import SearchStats

__all__ = ["pf_enumeration", "pf_binary_search", "pf_star"]


def pf_enumeration(
    graph: SignedGraph,
    stats: SearchStats | None = None,
    node_limit: int | None = None,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> int:
    """PF-E: polarization factor by exhaustive enumeration.

    An exhausted ``budget`` (anytime contract) returns the best
    polarization proven so far — unlike ``node_limit``, which is a
    hard error used by tests to bound runaway enumerations.
    """
    tracer = trace if trace is not None else current_tracer()
    with tracer.span("pf_enum", n=graph.num_vertices) as span:
        best = _pf_enumeration(graph, stats, node_limit, budget)
        span.set(beta=best)
        if tracer.enabled and budget is not None:
            span.set(status=budget.status.value)
    return best


def _pf_enumeration(
    graph: SignedGraph,
    stats: SearchStats | None,
    node_limit: int | None,
    budget: "Budget | None" = None,
) -> int:
    """The PF-E recursion behind :func:`pf_enumeration`."""
    best = 0
    nodes = 0

    def enum(
        c_left: set[int],
        c_right: set[int],
        p_left: set[int],
        p_right: set[int],
    ) -> None:
        nonlocal best, nodes
        nodes += 1
        if stats is not None:
            stats.nodes += 1
        if budget is not None:
            budget.spend()
        if node_limit is not None and nodes > node_limit:
            raise RuntimeError(
                f"PF-E exceeded node limit {node_limit}")
        polarization = min(len(c_left), len(c_right))
        if polarization > best:
            best = polarization
        # Upper bound on what this branch can still achieve.
        if min(len(c_left) + len(p_left),
               len(c_right) + len(p_right)) <= best:
            return
        while p_left or p_right:
            if min(len(c_left) + len(p_left),
                   len(c_right) + len(p_right)) <= best:
                return
            if not c_left and not c_right:
                v, to_left = min(p_left), True
            elif p_left and (not p_right or len(c_left) <= len(c_right)):
                v, to_left = min(p_left), True
            else:
                v, to_left = min(p_right), False
            if to_left:
                enum(
                    c_left | {v}, c_right,
                    graph.pos_neighbors(v) & p_left,
                    graph.neg_neighbors(v) & p_right)
            else:
                enum(
                    c_left, c_right | {v},
                    graph.neg_neighbors(v) & p_left,
                    graph.pos_neighbors(v) & p_right)
            p_left.discard(v)
            p_right.discard(v)

    vertices = set(graph.vertices())
    try:
        enum(set(), set(), set(vertices), set(vertices))
    except BudgetExceeded:
        pass  # anytime: return the best polarization proven so far
    return best


def pf_binary_search(
    graph: SignedGraph,
    stats: SearchStats | None = None,
    engine: str = "bitset",
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> int:
    """PF-BS: binary search on ``tau``, feasibility via MBC*.

    Each probe runs MBC* in ``check_only`` mode (terminate as soon as
    both residual thresholds hit zero — the Section IV-B optimization).
    The probes run serially: ``check_only`` searches stop at the first
    witness.

    A ``budget`` is shared by all probes.  On exhaustion the returned
    value is the last *certified* ``tau`` — a probe that produced a
    real witness certifies its ``tau`` even when truncated afterwards,
    but a truncated probe that found nothing is inconclusive and never
    shrinks the search window.
    """
    tracer = trace if trace is not None else current_tracer()
    with tracer.span("pf_bs", n=graph.num_vertices,
                     engine=engine) as root:
        low = 0
        high = polarization_upper_bound(graph)
        while low < high:
            if budget is not None and budget.exhausted:
                break
            mid = (low + high + 1) // 2
            with tracer.span("probe", tau=mid) as probe:
                witness = mbc_star(
                    graph, mid, check_only=True, stats=stats,
                    engine=engine, trace=tracer, budget=budget)
                feasible = witness.satisfies(mid) \
                    and not witness.is_empty
                probe.set(feasible=feasible)
            if feasible:
                low = mid
            elif budget is not None and budget.exhausted:
                break  # "infeasible" was not proven, only truncated
            else:
                high = mid - 1
        root.set(beta=low)
        if tracer.enabled and budget is not None:
            root.set(status=budget.status.value)
    return low


def pf_star(
    graph: SignedGraph,
    stats: SearchStats | None = None,
    ordering: str = "polarization",
    return_witness: bool = False,
    engine: str = "bitset",
    parallel: int = 0,
    trace: Tracer | None = None,
    budget: "Budget | None" = None,
) -> "int | tuple[int, BalancedClique]":
    """PF* (Algorithm 4): the dichromatic-clique-checking algorithm.

    Parameters
    ----------
    ordering:
        ``'polarization'`` (default, POrder from ``PDecompose``) or
        ``'degeneracy'`` (the ``PF*-DOrder`` variant).  The
        polarization order additionally enables the Lemma-5 early
        break: once ``pn(u) <= tau*``, no later vertex can improve.
    return_witness:
        Also return a balanced clique achieving the factor.
    engine:
        ``"bitset"`` (default) runs the ordering and the DCC ego step
        of :mod:`repro.dichromatic.ego` (candidate bound, bicore
        reduction, DCC check) on int-mask adjacency.  ``"numpy"`` =
        vectorised MDC/DCC search, everything else shared: the same
        phases, with the DCC branch and bound on uint64 mask rows.
        ``"set"`` is the original adjacency-set path.
    parallel:
        Number of worker processes.  ``0``/``1`` run the serial sweep;
        larger values run the round-based fan-out of
        :func:`repro.parallel.engine.pf_round_fanout`, which asks the
        +1 questions of all still-viable vertices concurrently and
        iterates until the bar stops rising — the fixpoint is exactly
        ``beta(G)`` — when the sweep is big enough to pay for a pool
        (:func:`repro.parallel.engine.pool_pays`), and the serial
        sweep, witness and ``stats`` included, otherwise.  Requires an
        engine with parallel support (bitset or numpy).
    budget:
        Optional :class:`repro.resilience.Budget` (anytime contract):
        the heuristic always runs, then the budget is checked per ego
        network / round and charged per branch-and-bound node inside
        the DCC probes.  On exhaustion the returned ``tau*`` is the
        last *proven* bar — its witness clique certifies it — and
        ``budget.status`` reads ``BUDGET_EXHAUSTED``.

    Returns
    -------
    int | tuple[int, BalancedClique]
        ``beta(G)``; with ``return_witness``, also a clique whose
        smaller side has exactly ``beta(G)`` vertices.  Under an
        exhausted budget these are a certified lower bound and its
        witness.
    """
    if ordering not in ("polarization", "degeneracy"):
        raise ValueError(f"unknown ordering {ordering!r}")
    workers = resolve_workers(parallel)
    validate_engine(engine, workers)

    tracer = trace if trace is not None else current_tracer()
    root = tracer.span(
        "pf_star", n=graph.num_vertices, engine=engine,
        workers=workers, ordering=ordering)
    with root:
        tau_star, witness = _pf_pipeline(
            graph, stats, ordering, engine, workers, tracer, budget)
        if tracer.enabled:
            root.set(beta=tau_star)
            if budget is not None:
                root.set(status=budget.status.value,
                         budget_nodes=budget.nodes)
    if return_witness:
        return tau_star, witness
    return tau_star


def _pf_pipeline(
    graph: SignedGraph,
    stats: SearchStats | None,
    ordering: str,
    engine: str,
    workers: int,
    tracer: Tracer,
    budget: "Budget | None",
) -> "tuple[int, BalancedClique]":
    """The PF* pipeline behind :func:`pf_star` (root span open)."""
    # Line 1: heuristic lower bound.
    with tracer.span("heuristic") as phase:
        heuristic = mbc_heuristic(graph, 0, engine=engine)
        tau_star = heuristic.polarization
        witness = heuristic
        phase.set(size=tau_star)
    if stats is not None:
        stats.heuristic_size = tau_star

    # First budget checkpoint: the heuristic above always runs, so a
    # truncated solve still returns a real witness for its bound.
    if budget is not None:
        try:
            budget.check()
        except BudgetExceeded:
            return tau_star, witness

    # Line 2: VertexReduction for tau* + 1.  The survivors stay in the
    # caller's ids as the ``alive`` mask the later phases AND in.
    n = graph.num_vertices
    with tracer.span("vertex_reduction", n=n) as phase:
        survivors = vertex_reduction(graph, tau_star + 1)
        alive = mask_of(survivors)
        phase.set(kept=len(survivors))

    # Line 3: total ordering of G[alive].  With workers requested,
    # ``later[v]`` collects v's count of neighbours after it in the
    # order, the cost of its task at the pool gate below.
    pooling = workers > 1
    later = [0] * n if pooling else []
    with tracer.span("ordering", kind=ordering) as phase:
        pn: "list[int] | None" = None
        if ordering == "polarization":
            # PDecompose's clamped degrees bound the count from above
            # (see polar_core_numbers); the gate is calibrated on them.
            order, pn = polar_core_numbers(
                graph, alive, later=later if pooling else None)
        elif engine != "set":
            members = bits_of(alive)
            degree = degrees_inside(graph, members, alive)
            order = degeneracy_ordering_array(
                graph.neighbor_rows(members), members, degree)
            later = degree
        else:
            order = degeneracy_ordering(
                UnsignedGraph.from_signed(graph), survivors)
        phase.set(n=len(order))
        # The pool gate: rounds of concurrent +1 questions instead of
        # the serial sweep (identical beta(G); see repro.parallel) when
        # the questions the sweep can ask -- those with pn(u) > tau*,
        # a suffix of the polarization order (Lemma 5) -- pay for a
        # pool.  Smaller sweeps run the serial loop below.  (Every
        # survivor of VertexReduction(tau* + 1) has pn > tau*, so the
        # suffix is the whole order unless that reduction changes.)
        pays = False
        if pooling:
            start = 0 if pn is None else bisect_right(
                order, tau_star, key=pn.__getitem__)
            costs = peel_costs(order[start:], later)
            pays = pool_pays(costs, workers)
            if tracer.enabled:
                phase.set(work=sum(c * c for c in costs), pool=pays)

    if pays:
        # The pool ships every row to its workers.
        return pf_round_fanout(
            *graph.adjacency_rows(), n, order, pn, tau_star, witness,
            workers, stats=stats, engine=engine, trace=tracer,
            budget=budget)

    # Lines 4-8: reverse-order sweep, one +1 feasibility question per
    # vertex (Lemma 4) through the DCC ego step of
    # repro.dichromatic.ego (candidate bound, g_u, its
    # (tau*+1, tau*+1)-core, DCC).  As in MBC*, the higher-ranked
    # filter is a mask of already-processed vertices.
    dcc_step = DCC_STEPS[engine]
    adjacency = ego_adjacency(graph, engine, order)
    with tracer.span("sweep", n=len(order)):
        allowed = 0
        for u in reversed(order):
            if pn is not None and pn[u] <= tau_star:
                # Lemma 5: pn(u) >= gamma(g_u); nothing later helps.
                break
            # Anytime contract: tau_star below is always proven by
            # ``witness``, so stopping here returns a certified bound.
            if budget is not None:
                try:
                    budget.check()
                except BudgetExceeded:
                    break
            if stats is not None:
                stats.vertices_examined += 1
            with tracer.span("ego", v=u, bar=tau_star) as ego:
                try:
                    _pruned, _upper, network, found = dcc_step(
                        adjacency, u, allowed, tau_star, stats=stats,
                        tracer=tracer, ego=ego, budget=budget)
                except BudgetExceeded:
                    break
            allowed |= 1 << u
            if found is not None and network is not None:
                tau_star += 1
                witness = BalancedClique.from_anchor(
                    u, witness_members(network, found))

    return tau_star, witness
