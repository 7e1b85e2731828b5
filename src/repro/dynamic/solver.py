"""The incremental dynamic solver: dirty-ego invalidation + bound cache.

:class:`DynamicSolver` wraps a mutable :class:`~repro.signed.graph.
SignedGraph` and keeps the answer to "what is the maximum structural
balanced clique *now*?" cheap to re-ask as the graph streams edits.
The static MBC* sweep (:func:`repro.core.mbc_star.mbc_star`) already
decomposes the problem into one *ego instance* per vertex ``u`` — the
maximum balanced clique whose lowest-ranked member is ``u``, searched
over ``u``'s higher-ranked neighbours — and the global optimum is the
best anchored optimum over all ``u``.  The dynamic solver makes that
decomposition *persistent*:

* a fixed degeneracy order over **all** vertices is computed once at
  construction, by the peel MBC* runs
  (:func:`~repro.kernels.active.degeneracy_ordering_array` over the
  graph's neighbour rows, every one of them built).  Any fixed order
  keeps the decomposition exhaustive (every clique has a unique
  lowest-ranked member), so the order never needs to track edits —
  only the per-ego answers do;
* per vertex ``u`` an :class:`EgoEntry` caches certified bounds
  ``lower <= val(u) <= upper`` plus the witness clique backing
  ``lower``.  Bounds come from the exhaustive-above-floor contract of
  :func:`repro.dichromatic.mdc.solve_mdc` and are unconditionally
  certified (the ego-step contract of :mod:`repro.dichromatic.ego`:
  an MDC step's ``upper`` rests only on facts about the ego instance),
  so they survive budget truncation;
* an edit ``(u, v)`` invalidates exactly the ego instances whose
  candidate cliques can contain both endpoints: a clique through
  ``u`` and ``v`` anchored at ``w`` needs ``u, v ∈ N[w]``, i.e.
  ``w ∈ (N(u) ∩ N(v)) ∪ {u, v}``.  That dirty set is three mask ``&``
  / ``|`` ops on the graph's signed masks, which the graph's own edge
  mutators keep current in place — never a graph scan;
* :meth:`DynamicSolver.solve` refreshes the dirty entries (cheap
  candidate-count bounds + witness revalidation), then re-solves only
  the entries whose cached upper bound can still beat the surviving
  incumbent.  Clean entries are pruned by their cached bounds alone.
  When *no* entry can beat the incumbent the solve is skipped
  entirely and the cached result returned.

The re-solve queue deliberately ranges over **all** entries, not just
the dirty ones: a removal can destroy the old optimum, which *lowers*
the bar and may re-expose clean entries whose cached upper bound was
previously beaten.  Their bounds are still certified (their egos did
not change), so re-running them is the bound cache working as
intended, not an invalidation bug.

:meth:`DynamicSolver.beta` maintains the analogous per-ego cache for
the polarization factor ``beta(G) = max_C min(|C_L|, |C_R|)`` with a
bar-raising loop over cached ``gamma`` bounds (the dynamic counterpart
of PF*'s DCC sweep; see ``docs/DYNAMIC.md``).

Mutations **must** go through :meth:`add_edge` / :meth:`remove_edge` /
:meth:`flip_sign` (lint rule R011 enforces this inside the package):
each makes one :class:`SignedGraph` call, which validates the edit and
patches the graph's masks, and then marks the dirty egos.  Out-of-band
edits to the wrapped graph are detected by fingerprint mismatch at the
solver's next edit, ``solve()`` or ``beta()`` and answered with a full
(correct, cache-cold) rebuild.
"""

from __future__ import annotations

from ..core.balance import split_sides_mask
from ..core.result import EMPTY_RESULT, BalancedClique, SolveResult
from ..dichromatic.ego import (
    DCC_STEPS, MDC_STEPS, ego_adjacency, witness_members)
from ..kernels import validate_engine
from ..kernels.active import degeneracy_ordering_array, suffix_masks
from ..kernels.bitset import iter_bits, mask_of
from ..obs import current_tracer
from ..resilience.budget import Budget, BudgetExceeded
from ..signed.graph import SignedGraph

__all__ = ["DynamicSolver", "EgoEntry"]

#: ``(u, certified upper, members or None)`` for one re-solved ego, as
#: :meth:`DynamicSolver._solve_serial` delivers it.
_Resolved = tuple[int, int, "list[tuple[int, bool]] | None"]


class EgoEntry:
    """Certified bounds for one cached ego instance.

    ``lower <= val(u) <= upper`` where ``val(u)`` is the target
    quantity anchored at ``u`` — the maximum tau-balanced clique size
    for the solve cache, the maximum anchored polarization for the
    gamma cache.  ``witness`` is the clique backing ``lower`` (``None``
    iff ``lower == 0``); ``upper`` is certified by an exhaustive
    search, a pruning bound, or the cheap candidate-count bound.
    """

    __slots__ = ("lower", "upper", "witness")

    def __init__(self) -> None:
        self.lower = 0
        self.upper = 0
        self.witness: BalancedClique | None = None


class DynamicSolver:
    """Incremental maximum-balanced-clique solver over a mutable graph.

    Parameters mirror :func:`repro.core.mbc_star.mbc_star` where they
    exist there.  ``tau >= 1`` is required: the ``tau = 0`` problem
    degenerates to unsigned maximum clique with single-vertex bases,
    which the ego decomposition's feasibility bounds do not model.
    Every re-solve runs the serial ego loop: a re-solve queue is far
    below the size at which a process pool pays (EXPERIMENTS.md,
    "Pool crossover").

    The solver takes ownership of mutations: edit the graph through
    :meth:`add_edge` / :meth:`remove_edge` / :meth:`flip_sign` only
    (an edit made on the graph directly costs a full rebuild).
    ``solve()`` returns a :class:`~repro.core.result.SolveResult`
    (anytime under a :class:`~repro.resilience.Budget`: truncated
    solves return the certified incumbent, never cache an uncertified
    bound, and resume where they stopped on the next call).
    """

    def __init__(
        self,
        graph: SignedGraph,
        tau: int,
        engine: str = "bitset",
        use_core: bool = True,
        use_coloring: bool = True,
    ) -> None:
        if tau < 1:
            raise ValueError(
                f"DynamicSolver requires tau >= 1, got {tau}")
        validate_engine(engine)
        self._graph = graph
        self._tau = tau
        self._engine = engine
        self._use_core = use_core
        self._use_coloring = use_coloring
        self._rebuild()

    # -- public state --------------------------------------------------

    @property
    def graph(self) -> SignedGraph:
        """The wrapped (live) graph.  Mutate via the solver only."""
        return self._graph

    @property
    def tau(self) -> int:
        """The polarization constraint."""
        return self._tau

    @property
    def dirty_count(self) -> int:
        """Ego instances invalidated since the last ``solve()``."""
        return len(self._dirty)

    @property
    def edits(self) -> int:
        """Edits applied through the solver since construction."""
        return self._edits

    # -- construction / resync -----------------------------------------

    def _rebuild(self) -> None:
        """(Re)prime every cache from the current graph state.

        Runs once at construction and again whenever an out-of-band
        mutation is detected (fingerprint mismatch).  O(n + m) — the
        price of bypassing the mutation API is a cold cache, not a
        wrong answer.
        """
        graph = self._graph
        n = graph.num_vertices
        self._n = n
        # Every ego reads its own rows, so the solver asks the graph
        # for every mask row and neighbour row up front; edits then
        # patch the mask rows in place.
        graph.adjacency_rows()
        neighbors = graph.neighbor_rows()
        # The peel MBC* runs, over every vertex of the graph.
        self._order = degeneracy_ordering_array(
            neighbors, list(range(n)), list(map(len, neighbors)))
        self._allowed = suffix_masks(self._order)
        self._entries = [EgoEntry() for _ in range(n)]
        self._dirty: set[int] = set()
        for u in range(n):
            self._refresh_entry(u)
        self._gamma: list[EgoEntry] | None = None
        self._gamma_dirty: set[int] = set()
        self._result: SolveResult | None = None
        self._edits = 0
        self._fingerprint = graph.fingerprint()

    def _sync_external(self) -> None:
        """Full rebuild if the graph was mutated behind our back.

        Compares cached digests: :meth:`_record_edit` stores the
        graph's fingerprint after every solver edit, so the check
        costs one SHA-256 only after an out-of-band edit.
        """
        if self._graph.fingerprint() != self._fingerprint:
            current_tracer().counter("dynamic.resyncs").inc()
            self._rebuild()

    # -- mutation API --------------------------------------------------

    def add_edge(self, u: int, v: int, sign: int) -> bool:
        """Insert edge ``(u, v)``; returns False for a same-sign
        duplicate (a no-op, nothing is invalidated).

        Raises exactly what :meth:`SignedGraph.add_edge` raises; a
        rejected edit marks nothing dirty.
        """
        self._sync_external()
        with current_tracer().span("edit", kind="add", u=u, v=v):
            added = self._graph.add_edge(u, v, sign)
            if added:
                self._record_edit(u, v)
        return added

    def remove_edge(self, u: int, v: int) -> int:
        """Delete edge ``(u, v)``; returns the sign it had.

        Raises what :meth:`SignedGraph.remove_edge` raises:
        ``KeyError`` when no edge joins ``u`` and ``v``.
        """
        self._sync_external()
        with current_tracer().span("edit", kind="remove", u=u, v=v):
            sign = self._graph.remove_edge(u, v)
            self._record_edit(u, v)
        return sign

    def flip_sign(self, u: int, v: int) -> int:
        """Toggle the sign of edge ``(u, v)``; returns the new sign.

        Raises what :meth:`SignedGraph.flip_sign` raises: ``KeyError``
        when no edge joins ``u`` and ``v``.
        """
        self._sync_external()
        with current_tracer().span("edit", kind="flip", u=u, v=v):
            sign = self._graph.flip_sign(u, v)
            self._record_edit(u, v)
        return sign

    def _record_edit(self, u: int, v: int) -> None:
        """Mark the ego instances an edit of ``(u, v)`` can affect.

        A clique through both endpoints anchored at ``w`` needs
        ``u, v ∈ N[w]``, i.e. ``w`` a common neighbour of ``u`` and
        ``v`` — or an endpoint itself.  The common-neighbour mask is
        identical before and after editing the ``(u, v)`` edge itself
        (``u ∉ N(u)``, and ``u ∈ N(v)`` only matters for ``w = u``,
        covered explicitly), so marking after the edit is safe.
        """
        self._edits += 1
        self._fingerprint = self._graph.fingerprint()
        self._result = None
        pos, neg = self._graph.adjacency_rows()
        adjacency_u = pos[u] | neg[u]
        adjacency_v = pos[v] | neg[v]
        rest = (adjacency_u & adjacency_v) | (1 << u) | (1 << v)
        marked = 0
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            self._dirty.add(w)
            if self._gamma is not None:
                self._gamma_dirty.add(w)
            marked += 1
        tracer = current_tracer()
        tracer.counter("dynamic.edits").inc()
        tracer.counter("dynamic.egos_invalidated").inc(marked)

    # -- cache refresh -------------------------------------------------

    def _revalidate(self, witness: BalancedClique,
                    check_tau: bool) -> BalancedClique | None:
        """Re-derive a cached witness against the current graph.

        The vertex set and the (static) order pin the anchor, so only
        cliqueness, balance, and (for the solve cache) the tau
        constraint can have been broken by edits; sides are recomputed
        because a sign flip can re-split a still-balanced clique.  The
        check is :func:`~repro.core.balance.split_sides_mask` on the
        graph's signed masks, O(|C|) big-int operations (the set-based
        :func:`~repro.core.balance.split_sides` it agrees with probes
        all O(|C|²) pairs); unchanged sides return ``witness`` itself.
        """
        left, right = mask_of(witness.left), mask_of(witness.right)
        sides = split_sides_mask(self._graph, left | right)
        if sides is None:
            return None
        if sides != (left, right):
            witness = BalancedClique.from_sides(
                set(iter_bits(sides[0])), set(iter_bits(sides[1])))
        if check_tau and not witness.satisfies(self._tau):
            return None
        return witness

    def _later_counts(self, u: int) -> tuple[int, int]:
        """``u``'s positive and negative higher-ranked neighbour
        counts, read off the graph's masks."""
        allowed = self._allowed[u]
        pos, neg = self._graph.adjacency_rows()
        return ((pos[u] & allowed).bit_count(),
                (neg[u] & allowed).bit_count())

    def _refresh_entry(self, u: int) -> None:
        """Recompute ``u``'s cheap certified bounds (mask ops only)."""
        entry = self._entries[u]
        pos_count, neg_count = self._later_counts(u)
        tau = self._tau
        if pos_count < tau - 1 or neg_count < tau:
            entry.upper = 0
        else:
            entry.upper = pos_count + neg_count + 1
        witness = entry.witness
        if witness is not None:
            witness = self._revalidate(witness, check_tau=True)
        entry.witness = witness
        entry.lower = witness.size if witness is not None else 0

    def _refresh_gamma(self, u: int) -> None:
        """Recompute ``u``'s cheap gamma bounds (mask ops only)."""
        assert self._gamma is not None
        entry = self._gamma[u]
        pos_count, neg_count = self._later_counts(u)
        # Anchored polarization: u's side has at most pos_count + 1
        # members, the other side at most neg_count.
        entry.upper = min(pos_count + 1, neg_count)
        witness = entry.witness
        if witness is not None:
            witness = self._revalidate(witness, check_tau=False)
        entry.witness = witness
        entry.lower = (witness.polarization
                       if witness is not None else 0)

    def _best_witness(self) -> BalancedClique:
        """The largest surviving cached witness (the live incumbent)."""
        best = EMPTY_RESULT
        for entry in self._entries:
            witness = entry.witness
            if witness is not None and witness.size > best.size:
                best = witness
        return best

    # -- solve ---------------------------------------------------------

    def solve(self, budget: Budget | None = None) -> SolveResult:
        """The maximum balanced clique of the *current* graph.

        Refreshes dirty entries, re-solves only the ego instances
        whose certified upper bound beats the surviving incumbent,
        and skips everything when none can.  Under a ``budget`` the
        solve is anytime: unprocessed egos keep their (certified)
        cheap bounds and are retried by the next call; a bound is
        only ever cached when its certificate was delivered.
        """
        tracer = current_tracer()
        self._sync_external()
        with tracer.span(
                "dynamic_solve", n=self._n, tau=self._tau,
                engine=self._engine, dirty=len(self._dirty)) as span:
            if not self._dirty and self._result is not None \
                    and self._result.optimal:
                tracer.counter("dynamic.solves_skipped").inc()
                span.set(skipped=True, size=self._result.clique.size)
                return self._result
            for u in sorted(self._dirty):
                self._refresh_entry(u)
            self._dirty.clear()
            best = self._best_witness()
            required = max(best.size + 1, 2 * self._tau)
            queue = [
                u for u in reversed(self._order)
                if self._entries[u].upper >= required
                and self._entries[u].upper > self._entries[u].lower]
            tracer.counter("dynamic.egos_reused").inc(
                self._n - len(queue))
            tracer.counter("dynamic.egos_resolved").inc(len(queue))
            if not queue:
                tracer.counter("dynamic.solves_skipped").inc()
                result = SolveResult.capture(best, budget)
                span.set(skipped=True, size=best.size)
                self._result = result
                return result
            outcomes, completed = self._solve_serial(
                queue, best.size, budget)
            for u, upper, members in outcomes:
                entry = self._entries[u]
                if members is None:
                    entry.upper = min(entry.upper, upper)
                    continue
                # The MDC step is exhaustive above its floor, so a
                # delivered witness pins val(u) exactly.  The bar rose
                # with each one, so the last delivered beats every
                # earlier and every cached witness: it is the incumbent.
                best = entry.witness = BalancedClique.from_anchor(
                    u, members)
                entry.lower = entry.upper = upper
            result = SolveResult.capture(best, budget)
            span.set(size=best.size, resolved=len(queue),
                     completed=completed)
            self._result = result
            return result

    def _solve_serial(
        self, queue: list[int], floor: int, budget: Budget | None,
    ) -> "tuple[list[_Resolved], bool]":
        """Serial re-solve of ``queue``, the same loop for every engine.

        Runs the MBC* serial sweep's ego step (``MDC_STEPS``), raising
        the bar as witnesses arrive, and returns the delivered ``(u,
        upper, members)`` outcomes with whether every queued ego was
        processed.  A budget stop mid-instance certifies nothing for
        that ego: it keeps its cheap bound and is retried next call.
        """
        tracer = current_tracer()
        mdc_step = MDC_STEPS[self._engine]
        adjacency = ego_adjacency(self._graph, self._engine)
        outcomes: "list[_Resolved]" = []
        best_size = floor
        for u in queue:
            if budget is not None:
                try:
                    budget.check()
                except BudgetExceeded:
                    return outcomes, False
            required = max(best_size + 1, 2 * self._tau)
            if self._entries[u].upper < required:
                continue
            with tracer.span("ego", v=u) as ego:
                try:
                    _pruned, upper, network, found = mdc_step(
                        adjacency, u, self._allowed[u], self._tau,
                        required, use_core=self._use_core,
                        use_coloring=self._use_coloring, tracer=tracer,
                        ego=ego, budget=budget)
                except BudgetExceeded:
                    return outcomes, False
            if found is None or network is None:
                outcomes.append((u, upper, None))
                continue
            outcomes.append((u, upper, witness_members(network, found)))
            best_size = max(best_size, upper)
        return outcomes, True

    # -- beta ----------------------------------------------------------

    def beta(
        self,
        budget: Budget | None = None,
        return_witness: bool = False,
    ) -> "int | tuple[int, BalancedClique]":
        """The polarization factor ``beta(G)`` of the current graph.

        Maintains a second per-ego cache of certified gamma bounds
        (the maximum anchored polarization), invalidated by the same
        dirty events, and raises the bar with one DCC question per
        step — each failure certifies an upper bound that outlives
        the call.  Under a ``budget`` the returned bar is always
        witness-certified (a valid lower bound on ``beta(G)``) and
        the loop resumes from the cached bounds next call.

        With ``return_witness`` the certifying clique comes back
        alongside the factor (mirroring
        :func:`~repro.core.pf.pf_star`): the cached gamma witness
        whose polarization equals the returned bar, or the empty
        clique at ``bar == 0``.
        """
        tracer = current_tracer()
        self._sync_external()
        with tracer.span("dynamic_beta", n=self._n,
                         dirty=len(self._gamma_dirty)) as span:
            if self._gamma is None:
                self._gamma = [EgoEntry() for _ in range(self._n)]
                self._gamma_dirty.clear()
                for u in range(self._n):
                    self._refresh_gamma(u)
            else:
                for u in sorted(self._gamma_dirty):
                    self._refresh_gamma(u)
                self._gamma_dirty.clear()
            gamma = self._gamma
            bar = 0
            for entry in gamma:
                if entry.lower > bar:
                    bar = entry.lower
            candidates = [u for u in range(self._n)
                          if gamma[u].upper > bar]
            dcc_step = DCC_STEPS[self._engine]
            adjacency = ego_adjacency(self._graph, self._engine)
            questions = 0
            truncated = False
            while candidates:
                if budget is not None:
                    try:
                        budget.check()
                    except BudgetExceeded:
                        truncated = True
                        break
                # Most-promising first: the highest cached upper bound
                # is the entry that can raise the bar the furthest.
                pick = max(candidates,
                           key=lambda u: (gamma[u].upper, -u))
                questions += 1
                try:
                    with tracer.span("ego", v=pick, bar=bar) as ego:
                        _pruned, upper, network, found = dcc_step(
                            adjacency, pick, self._allowed[pick], bar,
                            tracer=tracer, ego=ego, budget=budget)
                except BudgetExceeded:
                    truncated = True
                    break
                entry = gamma[pick]
                if found is None or network is None:
                    # No anchored clique with polarization > bar.
                    entry.upper = min(entry.upper, upper)
                else:
                    entry.witness = BalancedClique.from_anchor(
                        pick, witness_members(network, found))
                    entry.lower = entry.witness.polarization
                    bar = max(bar, entry.lower)
                candidates = [u for u in candidates
                              if gamma[u].upper > bar]
            tracer.counter("dynamic.gamma_questions").inc(questions)
            span.set(beta=bar, questions=questions,
                     truncated=truncated)
            if not return_witness:
                return bar
            return bar, self._beta_witness(gamma, bar)

    @staticmethod
    def _beta_witness(gamma: "list[EgoEntry]",
                      bar: int) -> BalancedClique:
        """The cached gamma witness backing ``bar``.

        Every raise of the bar stored the clique that achieved it
        (``lower == witness.polarization``), so at ``bar > 0`` a
        match always exists; ``bar == 0`` is backed by the empty
        clique.
        """
        if bar > 0:
            for entry in gamma:
                witness = entry.witness
                if witness is not None \
                        and witness.polarization == bar:
                    return witness
        return EMPTY_RESULT
