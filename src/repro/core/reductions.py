"""Graph reductions: VertexReduction, EdgeReduction, polar cores.

* :func:`vertex_reduction` / :func:`edge_reduction` re-implement the
  reductions of Chen et al. [13] that the paper reuses: a vertex of a
  balanced clique satisfying the polarization constraint ``tau`` has
  positive degree ``>= tau - 1`` and negative degree ``>= tau``; an edge
  of such a clique participates in a sign-compatible set of triangles
  (see :func:`edge_reduction`).
* :func:`polar_core_numbers` implements ``PDecompose`` (Algorithm 5):
  the peeling that yields every vertex's polar-core number ``pn(u)`` and
  the *polarization order* used by PF*.
* :func:`polar_core_vertices` extracts the ``k``-polar-core directly
  (Definition 3), used to cross-check ``PDecompose`` in tests.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..kernels.bitset import bits_of
from ..signed.graph import SignedGraph

__all__ = [
    "degrees_inside",
    "vertex_reduction",
    "edge_reduction",
    "edge_reduction_fast",
    "polar_core_numbers",
    "polarization_order",
    "polar_core_vertices",
    "polarization_upper_bound",
]


def degrees_inside(graph: SignedGraph, members: list[int],
                   alive: int) -> list[int]:
    """Signs-ignored degree inside the vertex mask ``alive`` of each of
    ``members`` (``0`` for every other vertex), as popcounts of the
    graph's cached masks (only ``members``' rows are built): the
    starting degrees of the array peels."""
    pos_bits, neg_bits = graph.adjacency_rows(members)
    degree = [0] * graph.num_vertices
    for v in members:
        degree[v] = (pos_bits[v] & alive).bit_count() \
            + (neg_bits[v] & alive).bit_count()
    return degree


def vertex_reduction(graph: SignedGraph, tau: int) -> set[int]:
    """``VertexReduction`` of [13]: survivors of degree-based peeling.

    Iteratively discards vertices with ``d+ < tau - 1`` or ``d- < tau``
    (degrees measured among survivors).  Every balanced clique whose
    sides both have ``>= tau`` vertices is contained in the returned
    set.  ``O(n + m)``.
    """
    n = graph.num_vertices
    if tau <= 0:
        return set(range(n))
    need_pos = tau - 1
    pos_deg = [graph.pos_degree(v) for v in range(n)]
    neg_deg = [graph.neg_degree(v) for v in range(n)]
    # A vertex is marked removed when it is queued; the survivor set is
    # the unique fixpoint whatever the peeling order.
    removed = bytearray(n)
    queue = [v for v in range(n)
             if pos_deg[v] < need_pos or neg_deg[v] < tau]
    for v in queue:
        removed[v] = 1
    for v in queue:  # grows while it is walked
        for u in graph.pos_neighbors(v):
            if not removed[u]:
                pos_deg[u] -= 1
                if pos_deg[u] < need_pos:
                    removed[u] = 1
                    queue.append(u)
        for u in graph.neg_neighbors(v):
            if not removed[u]:
                neg_deg[u] -= 1
                if neg_deg[u] < tau:
                    removed[u] = 1
                    queue.append(u)
    return {v for v in range(n) if not removed[v]}


def edge_reduction(graph: SignedGraph, tau: int) -> SignedGraph:
    """``EdgeReduction`` of [13]: drop edges missing required triangles.

    For an edge of a balanced clique ``C`` with ``|C_L|, |C_R| >= tau``:

    * a **positive** edge joins two same-side vertices, so it closes at
      least ``tau - 2`` triangles with two further positive edges
      (third vertex on the same side) and at least ``tau`` triangles
      with two negative edges (third vertex on the other side);
    * a **negative** edge joins opposite sides, so it closes at least
      ``tau - 1`` triangles whose third vertex sees one endpoint
      positively and the other negatively — in *both* orientations.

    Edges violating these counts are removed; removal is iterated to a
    fixpoint since deleting an edge invalidates other edges' triangles.
    Returns a reduced copy (the input graph is untouched).  This is the
    ``O(m^{3/2})``-style reduction that helps the slow baseline but is a
    net overhead for MBC* (Figure 6).
    """
    reduced = graph.copy()
    if tau <= 0:
        return reduced
    changed = True
    while changed:
        changed = False
        to_remove: list[tuple[int, int]] = []
        for u, v, sign in reduced.edges():
            if sign == 1:
                same_pos = len(
                    reduced.pos_neighbors(u) & reduced.pos_neighbors(v))
                cross_neg = len(
                    reduced.neg_neighbors(u) & reduced.neg_neighbors(v))
                if same_pos < tau - 2 or cross_neg < tau:
                    to_remove.append((u, v))
            else:
                forward = len(
                    reduced.pos_neighbors(u) & reduced.neg_neighbors(v))
                backward = len(
                    reduced.neg_neighbors(u) & reduced.pos_neighbors(v))
                if forward < tau - 1 or backward < tau - 1:
                    to_remove.append((u, v))
        for u, v in to_remove:
            if reduced.has_edge(u, v):
                reduced.remove_edge(u, v)
                changed = True
    return reduced


def edge_reduction_fast(graph: SignedGraph, tau: int) -> SignedGraph:
    """Worklist :func:`edge_reduction`: same fixpoint, no full rescans.

    Deleting ``(u, v)`` only destroys triangles ``{u, v, w}`` with
    ``w`` adjacent to both endpoints, so only the edges ``(u, w)`` and
    ``(v, w)`` for ``w ∈ N(u) ∩ N(v)`` can newly fall below their
    support thresholds — the pass-based rescan of every surviving edge
    is replaced by exactly those re-checks.  The reduction is monotone
    (removals only shrink supports), hence the fixpoint is unique and
    both implementations keep the same edges; this is differential-
    tested in ``tests/test_engines.py``.

    Supports are counted with sparse set intersections rather than the
    bitset kernels: on the vertex-reduced benchmark graphs
    (``n`` up to a few thousand, mean degree ~20) an ``O(min degree)``
    C-level set intersection beats an ``O(n/64)`` wide-mask AND by
    3-10x, so the worklist — not the mask — is the win here.  Used by
    the ``bitset`` engine's ``use_edge_reduction`` path; the ``set``
    engine keeps the pass-based original as the reference.
    """
    reduced = graph.copy()
    if tau <= 0:
        return reduced
    queue = deque((u, v) for u, v, _ in reduced.edges())
    queued = set(queue)
    while queue:
        u, v = queue.popleft()
        queued.discard((u, v))
        pos_u = reduced.pos_neighbors(u)
        neg_u = reduced.neg_neighbors(u)
        if v in pos_u:
            survives = \
                len(pos_u & reduced.pos_neighbors(v)) >= tau - 2 \
                and len(neg_u & reduced.neg_neighbors(v)) >= tau
        elif v in neg_u:
            survives = \
                len(pos_u & reduced.neg_neighbors(v)) >= tau - 1 \
                and len(neg_u & reduced.pos_neighbors(v)) >= tau - 1
        else:
            continue  # already removed by an earlier re-check
        if survives:
            continue
        reduced.remove_edge(u, v)
        common = reduced.neighbors(u) & reduced.neighbors(v)
        for w in common:
            for key in ((u, w) if u < w else (w, u),
                        (v, w) if v < w else (w, v)):
                if key not in queued:
                    queued.add(key)
                    queue.append(key)
    return reduced


def polar_core_numbers(
    graph: SignedGraph, alive: int | None = None,
    later: "list[int] | None" = None,
) -> tuple[list[int], list[int]]:
    """``PDecompose`` (Algorithm 5): polarization order + ``pn`` values.

    Iteratively removes the vertex ``u`` minimizing
    ``min(d+(u) + 1, d-(u))`` in the remaining graph, records
    ``pn(u)`` as that value, and decrements neighbour degrees — but only
    while they exceed ``pn(u)``, which keeps the sequence of recorded
    values non-decreasing (same clamping as degeneracy peeling).

    ``alive`` (a vertex mask) restricts the decomposition to the
    induced subgraph ``G[alive]`` without copying it: PF* passes the
    ``VertexReduction`` survivors, and degrees come from the graph's
    cached adjacency masks, of which only the survivors' rows are
    built.  Ties pop lowest id first (one int heap key
    ``key * n + v``), so the result in the caller's ids is the
    relabelled-subgraph result mapped back.  A neighbour's entry is
    pushed only when its key actually drops (it lost an edge on its
    smaller side); otherwise its live entry is still current, so the
    pops, and ``(order, pn)``, are those of pushing on every
    decrement.

    Returns ``(order, pn)``: ``order`` lists the (alive) vertices in
    non-decreasing ``pn`` (the *polarization order*), ``pn[v]`` is the
    polar-core number of ``v`` (``0`` outside ``alive``).  A ``later``
    list (length ``n``) receives, for each ordered vertex, its two
    degrees when it was peeled.  The clamp skips decrements, so their
    sum bounds ``v``'s count of neighbours after it in ``order`` from
    above, by at most ``pn[v]`` per side.
    """
    n = graph.num_vertices
    if alive is None:
        members: list[int] = list(range(n))
        alive = graph.all_bits()
    else:
        members = bits_of(alive)
    pos_bits, neg_bits = graph.adjacency_rows(members)
    # Vertices outside ``alive`` start out removed, so the peel skips
    # them like already-peeled ones.
    removed = bytearray(b"\x01") * n
    pos_deg = [0] * n
    neg_deg = [0] * n
    heap: list[int] = []
    for v in members:
        removed[v] = 0
        d_pos = pos_deg[v] = (pos_bits[v] & alive).bit_count()
        d_neg = neg_deg[v] = (neg_bits[v] & alive).bit_count()
        heap.append(min(d_pos + 1, d_neg) * n + v)
    heapq.heapify(heap)
    pn = [0] * n
    order: list[int] = []
    current = 0
    # The heap keys below inline ``min(d+ + 1, d-)``: it runs per edge.
    while heap:
        value, u = divmod(heapq.heappop(heap), n)
        if removed[u]:
            continue  # stale heap entry
        key = pos_deg[u] + 1
        if neg_deg[u] < key:
            key = neg_deg[u]
        if value != key:
            continue  # stale heap entry
        removed[u] = 1
        if value > current:
            current = value
        pn[u] = current
        order.append(u)
        # A neighbour's key min(d+ + 1, d-) drops only when the side
        # it loses is the smaller one; otherwise its live heap entry
        # is still current and nothing is pushed.
        for v in graph.pos_neighbors(u):
            if not removed[v] and pos_deg[v] >= current:
                key = pos_deg[v]  # the new d+ plus one
                pos_deg[v] = key - 1
                if key < neg_deg[v]:
                    heapq.heappush(heap, key * n + v)
        for v in graph.neg_neighbors(u):
            if not removed[v] and neg_deg[v] > current:
                key = neg_deg[v] - 1
                neg_deg[v] = key
                if key <= pos_deg[v]:
                    heapq.heappush(heap, key * n + v)
    if later is not None:
        for v in order:
            later[v] = pos_deg[v] + neg_deg[v]
    return order, pn


def polarization_order(graph: SignedGraph) -> list[int]:
    """The polarization order ``POrder`` (vertices by non-decreasing
    polar-core number)."""
    order, _pn = polar_core_numbers(graph)
    return order


def polar_core_vertices(graph: SignedGraph, k: int) -> set[int]:
    """The ``k``-polar-core (Definition 3) by direct peeling.

    The maximal subgraph ``g`` with ``min(d+_g(u) + 1, d-_g(u)) >= k``
    for every vertex.  Equals ``{u : pn(u) >= k}``; the equivalence is
    property-tested.
    """
    alive = set(graph.vertices())
    if k <= 0:
        return alive
    pos_deg = {v: graph.pos_degree(v) for v in alive}
    neg_deg = {v: graph.neg_degree(v) for v in alive}

    def violates(v: int) -> bool:
        return min(pos_deg[v] + 1, neg_deg[v]) < k

    queue = deque(v for v in alive if violates(v))
    queued = set(queue)
    while queue:
        v = queue.popleft()
        if v not in alive:
            continue
        alive.discard(v)
        for u in graph.pos_neighbors(v):
            if u in alive:
                pos_deg[u] -= 1
                if u not in queued and violates(u):
                    queue.append(u)
                    queued.add(u)
        for u in graph.neg_neighbors(v):
            if u in alive:
                neg_deg[u] -= 1
                if u not in queued and violates(u):
                    queue.append(u)
                    queued.add(u)
    return alive


def polarization_upper_bound(graph: SignedGraph) -> int:
    """Upper bound on ``beta(G)`` used by PF-BS:
    ``max_v min(d+(v) + 1, d-(v))``."""
    return max(
        (min(graph.pos_degree(v) + 1, graph.neg_degree(v))
         for v in graph.vertices()),
        default=0,
    )
