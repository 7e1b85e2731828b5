"""Vertex orderings for the search algorithms.

MBC* (Algorithm 2) processes vertices in reverse *degeneracy ordering*
(smallest-first ordering [29]): the first vertex has minimum degree in
the graph, the second has minimum degree after removing the first, and
so on.  Ego-networks built from higher-ranked neighbours then have at
most ``degeneracy(G)`` vertices.
"""

from __future__ import annotations

from .graph import UnsignedGraph

__all__ = ["degeneracy_ordering", "rank_of_ordering"]


def degeneracy_ordering(
    graph: UnsignedGraph, active: "set[int] | None" = None
) -> list[int]:
    """Smallest-first (degeneracy) ordering of the vertices.

    Returns the peeling order: position 0 holds the globally
    smallest-degree vertex.  A vertex "ranks higher" when it appears
    *later* in this list.  Runs in ``O(n + m)`` using bucket queues.
    ``active`` restricts the ordering to the induced subgraph
    ``G[active]`` (degrees count inside it) without copying it.
    """
    n = graph.num_vertices
    members = range(n) if active is None else sorted(active)
    # Vertices outside ``active`` start out removed, so the peel never
    # counts or visits them.
    removed = [active is not None] * n
    degree = [0] * n
    for v in members:
        removed[v] = False
        degree[v] = graph.degree(v) if active is None \
            else len(graph.neighbors(v) & active)
    max_degree = max((degree[v] for v in members), default=0)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    for v in members:
        buckets[degree[v]].append(v)
    pointer = [0] * (max_degree + 1)
    order: list[int] = []
    total = len(members)
    scan_from = 0
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
        removed[v] = True
        order.append(v)
        for u in graph.neighbors(v):
            if not removed[u]:
                degree[u] -= 1
                buckets[degree[u]].append(u)
    return order


def rank_of_ordering(order: list[int]) -> list[int]:
    """Inverse permutation: ``rank[v]`` is the position of ``v`` in
    ``order`` (higher rank = later = processed earlier by MBC*)."""
    rank = [0] * len(order)
    for position, v in enumerate(order):
        rank[v] = position
    return rank
