"""Bitset variants of the branch-and-bound hot kernels.

These are the four primitives every MDC/DCC node executes — candidate
intersection, degree-in-active counting, k-core peeling and the greedy
colouring bound — plus the ``(tau_L, tau_R)``-bicore used by DCC.  Each
takes the adjacency as ``list[int]`` masks (see
:mod:`repro.kernels.bitset`) and the active candidate set as one int
mask, and touches no graph objects at all, so a graph only pays the
mask-building cost once and every node after that runs on word-parallel
integer ops.

The graph-level peels of MBC* and PF* (the ``|C*|``-core and the
degeneracy ordering) also come fed from a graph's ascending neighbour
lists (:meth:`repro.signed.graph.SignedGraph.neighbor_rows`):
:func:`k_core_array` and :func:`degeneracy_ordering_array` walk them,
one machine-word read per edge where the mask forms extract bits from
wide ints, and read only the rows of the subgraph they peel.
:func:`degeneracy_ordering_mask` extracts such lists from masks and
runs the same bucket loop, so both orderings return the same order,
and :func:`suffix_masks` turns an order into the ego instances'
higher-ranked candidate masks.

Semantics mirror the set implementations in
:mod:`repro.dichromatic.cores` exactly (the differential engine tests
assert this); only tie-breaking inside the greedy colouring order may
differ, which affects neither soundness nor the search result.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "intersect_active",
    "degree_in_active",
    "k_core_active_mask",
    "bicore_active_mask",
    "coloring_upper_bound_active_mask",
    "first_fit_color_count",
    "active_edge_count_mask",
    "degeneracy_ordering_mask",
    "degeneracy_ordering_array",
    "k_core_array",
    "suffix_masks",
]


def intersect_active(adj: list[int], v: int, active: int) -> int:
    """Candidate-set intersection ``N(v) ∩ active`` as a mask."""
    return adj[v] & active


def degree_in_active(adj: list[int], v: int, active: int) -> int:
    """``|N(v) ∩ active|``."""
    return (adj[v] & active).bit_count()


def k_core_active_mask(adj: list[int], k: int, active: int) -> int:
    """Label-blind ``k``-core of the subgraph induced by ``active``.

    Peels with an explicit stack and incrementally maintained degrees;
    a vertex is (re-)pushed exactly when its degree first drops below
    ``k``.  Returns the surviving vertex set as a mask.
    """
    if k <= 0 or not active:
        return active
    alive = active
    degree = [0] * len(adj)
    stack: list[int] = []
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        d = (adj[v] & active).bit_count()
        degree[v] = d
        if d < k:
            stack.append(v)
    while stack:
        v = stack.pop()
        bit = 1 << v
        if not (alive & bit):
            continue
        alive ^= bit
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            du = degree[u] - 1
            degree[u] = du
            if du == k - 1:
                stack.append(u)
    return alive


def bicore_active_mask(
    adj: list[int],
    left_mask: int,
    tau_l: int,
    tau_r: int,
    active: int,
) -> int:
    """``(tau_L, tau_R)``-core of the subgraph induced by ``active``.

    Mask analogue of :func:`repro.dichromatic.cores.bicore_active`:
    every surviving L-vertex keeps ``>= tau_L - 1`` L-neighbours and
    ``>= tau_R`` R-neighbours, every surviving R-vertex ``>= tau_L``
    L-neighbours and ``>= tau_R - 1`` R-neighbours.  Negative
    thresholds are treated as zero.
    """
    tau_l = max(tau_l, 0)
    tau_r = max(tau_r, 0)
    if (tau_l == 0 and tau_r == 0) or not active:
        return active
    alive = active
    left_deg = [0] * len(adj)
    right_deg = [0] * len(adj)

    def violates(v: int) -> bool:
        if left_mask & (1 << v):
            return left_deg[v] < tau_l - 1 or right_deg[v] < tau_r
        return left_deg[v] < tau_l or right_deg[v] < tau_r - 1

    stack: list[int] = []
    queued = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        nb = adj[v] & active
        l_count = (nb & left_mask).bit_count()
        left_deg[v] = l_count
        right_deg[v] = nb.bit_count() - l_count
        if violates(v):
            stack.append(v)
            queued |= low
    while stack:
        v = stack.pop()
        bit = 1 << v
        if not (alive & bit):
            continue
        alive ^= bit
        v_left = bool(left_mask & bit)
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if v_left:
                left_deg[u] -= 1
            else:
                right_deg[u] -= 1
            if not (queued & low) and violates(u):
                stack.append(u)
                queued |= low
    return alive


def coloring_upper_bound_active_mask(adj: list[int], active: int) -> int:
    """Greedy-colouring clique bound over ``active`` (``colorUB``).

    Vertices are processed in non-increasing degree-in-active order and
    each takes the first colour class it does not conflict with; a
    colour class is itself a mask, so the conflict test is one ``&``.
    """
    if not active:
        return 0
    ranked: list[tuple[int, int]] = []
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        ranked.append((-(adj[v] & active).bit_count(), v))
    ranked.sort()
    return first_fit_color_count(adj, [v for _neg_degree, v in ranked])


def first_fit_color_count(adj: list[int], order: list[int]) -> int:
    """First-fit greedy placement: number of colour classes used.

    Shared placement loop of the colouring bound — each vertex of
    ``order`` takes the first colour class its neighbourhood misses; a
    class is a single mask, so the conflict test is one ``&``.  The
    numpy engine computes the degree order vectorised and feeds the
    same loop (:func:`repro.kernels.npmask.coloring_upper_bound_active`),
    which keeps the two engines' bounds equal by construction.
    """
    color_masks: list[int] = []
    for v in order:
        neighbors = adj[v]
        bit = 1 << v
        for i, members in enumerate(color_masks):
            if not (neighbors & members):
                color_masks[i] = members | bit
                break
        else:
            color_masks.append(bit)
    return len(color_masks)


def degeneracy_ordering_mask(adj: list[int], active: int) -> list[int]:
    """Smallest-first (degeneracy) ordering of ``active``.

    Mask analogue of :func:`repro.unsigned.ordering.degeneracy_ordering`
    with the same lazy bucket-queue scheme.  Tie-breaking (and hence the
    exact order) may differ from the set implementation — any valid
    degeneracy order is acceptable to the callers.

    No solver calls it: MBC*, PF*-DOrder and the dynamic solver order
    with :func:`degeneracy_ordering_array`.  It stays as the reference
    the order-equality tests (``tests/test_property.py``) compare that
    path against.
    """
    # Extract neighbour lists once — the peel itself then runs entirely
    # on machine-word ints (a wide-mask op per *edge* would dominate on
    # sparse graphs).
    members: list[int] = []
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        members.append(low.bit_length() - 1)
    neighbors: list[list[int]] = [[]] * len(adj)
    degree = [0] * len(adj)
    for v in members:
        lst: list[int] = []
        rest = adj[v] & active
        while rest:
            low = rest & -rest
            rest ^= low
            lst.append(low.bit_length() - 1)
        neighbors[v] = lst
        degree[v] = len(lst)
    return degeneracy_ordering_array(neighbors, members, degree)


def degeneracy_ordering_array(neighbors: "Sequence[Sequence[int]]",
                              members: list[int],
                              degree: list[int]) -> list[int]:
    """The bucket-queue degeneracy peel over ascending neighbour lists.

    ``neighbors[v]`` lists ``v``'s neighbours ascending (a graph's
    :meth:`~repro.signed.graph.SignedGraph.neighbor_rows`; only the
    rows of ``members`` are read), ``members`` the induced subgraph's
    vertices ascending and ``degree[v]`` their degrees inside it.
    ``degree`` is updated in place: an entry freezes when its vertex
    is peeled, at its count of neighbours after it in the order.
    Neighbours outside ``members`` are skipped.  Ties break by bucket
    insertion order, so equal inputs give equal orders whatever
    representation fed them: the order
    :func:`degeneracy_ordering_mask` gives on the same subgraph.
    """
    if not members:
        return []
    n = len(degree)
    max_degree = max(degree[v] for v in members)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    # Vertices outside ``members`` start out removed, so the peel never
    # visits them.
    removed = bytearray(b"\x01") * n
    for v in members:
        buckets[degree[v]].append(v)
        removed[v] = 0
    pointer = [0] * (max_degree + 1)
    order: list[int] = []
    scan_from = 0
    total = len(members)
    while len(order) < total:
        d = scan_from
        while d <= max_degree and pointer[d] >= len(buckets[d]):
            d += 1
        if d > max_degree:
            break
        v = buckets[d][pointer[d]]
        pointer[d] += 1
        if removed[v] or degree[v] != d:
            continue
        scan_from = max(0, d - 1)
        removed[v] = 1
        order.append(v)
        for u in neighbors[v]:
            if not removed[u]:
                du = degree[u] - 1
                degree[u] = du
                buckets[du].append(u)
    return order


def k_core_array(neighbors: "Sequence[Sequence[int]]", k: int,
                 members: list[int], degree: list[int]) -> bytearray:
    """Label-blind ``k``-core of the subgraph induced by ``members``,
    peeled over ascending neighbour lists.

    ``neighbors`` is as in :func:`degeneracy_ordering_array` (only the
    rows of ``members`` are read) and ``degree[v]`` holds each
    member's degree inside ``members``; on return it holds each
    survivor's degree inside the core.  Returns a flag per vertex, set
    exactly for the survivors: the vertices :func:`k_core_active_mask`
    keeps.
    """
    inside = bytearray(len(degree))
    stack: list[int] = []
    for v in members:
        if degree[v] < k:
            stack.append(v)
        else:
            inside[v] = 1
    while stack:
        v = stack.pop()
        for u in neighbors[v]:
            if inside[u]:
                du = degree[u] - 1
                degree[u] = du
                if du < k:
                    inside[u] = 0
                    stack.append(u)
    return inside


def suffix_masks(order: list[int]) -> dict[int, int]:
    """``{u: mask of vertices after u in order}`` for every vertex.

    The higher-ranked candidate masks of the ego instances, one
    O(len(order)) pass over a peel's order: the dynamic solver keeps
    them across edits, and pool workers rebuild them from the shipped
    ordering instead of receiving an n-bit mask per dispatched task.
    """
    masks: dict[int, int] = {}
    accumulated = 0
    for u in reversed(order):
        masks[u] = accumulated
        accumulated |= 1 << u
    return masks


def active_edge_count_mask(adj: list[int], active: int) -> int:
    """Number of edges of the subgraph induced by ``active``."""
    total = 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        total += (adj[low.bit_length() - 1] & active).bit_count()
    return total // 2
