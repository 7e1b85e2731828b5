"""Ego-network extraction and the dichromatic transformation.

This is the paper's central graph-reduction technique (Section III-B).
For a vertex ``u`` of the signed graph ``G`` (optionally restricted to a
set of *allowed* neighbours, e.g. those ranked higher in the degeneracy
ordering):

1. the **ego-network** ``G_u`` is the signed subgraph induced by ``u``'s
   (allowed) neighbours;
2. the **dichromatic network** ``g_u`` labels ``u``'s positive
   neighbours L and negative neighbours R, drops all *conflicting
   edges* —

   * negative edges between two L-vertices,
   * negative edges between two R-vertices,
   * positive edges between an L-vertex and an R-vertex —

   and finally discards the signs.

Following the paper's implementation note, ``u`` itself is *excluded*
from the returned network: ``u`` is adjacent to every remaining vertex
and none of its incident edges can be conflicting, so including it only
inflates every degree by one.  Callers account for ``u`` by lowering the
L-side threshold by one.

Every clique of ``g_u`` plus ``u`` is a balanced clique of ``G``
(soundness), and every balanced clique containing ``u`` survives the
transformation (completeness) — the two directions of Theorem 2, both
covered by property tests.
"""

from __future__ import annotations

from typing import Container

from ..kernels.bitset import bits_of
from ..signed.graph import SignedGraph
from .graph import DichromaticGraph

__all__ = [
    "build_dichromatic_network",
    "build_dichromatic_network_bits",
    "dichromatic_network_from_masks",
    "ego_network_edge_count",
    "ego_edge_count_from_masks",
]


def build_dichromatic_network(
    graph: SignedGraph,
    u: int,
    allowed: Container[int] | None = None,
) -> DichromaticGraph:
    """Build the dichromatic network ``g_u`` (without ``u`` itself).

    Parameters
    ----------
    graph:
        The signed graph ``G``.
    u:
        The anchor vertex assumed to be in the clique (on the L side).
    allowed:
        If given, only neighbours contained in ``allowed`` participate
        (MBC* passes the set of higher-ranked vertices).

    Returns
    -------
    DichromaticGraph
        Local ids cover ``u``'s retained neighbours; ``origin`` maps
        back to ``G``'s vertex ids; ``is_left[v]`` is True for positive
        neighbours of ``u``.
    """
    if allowed is None:
        left = sorted(graph.pos_neighbors(u))
        right = sorted(graph.neg_neighbors(u))
    else:
        left = sorted(v for v in graph.pos_neighbors(u) if v in allowed)
        right = sorted(v for v in graph.neg_neighbors(u) if v in allowed)
    origin = left + right
    is_left = [True] * len(left) + [False] * len(right)
    network = DichromaticGraph(is_left, origin)
    local = {orig: idx for idx, orig in enumerate(origin)}

    for idx, orig in enumerate(origin):
        left_vertex = network.is_left[idx]
        # Keep positive edges only towards same-side vertices...
        for other in graph.pos_neighbors(orig):
            jdx = local.get(other)
            if jdx is None or jdx <= idx:
                continue
            if network.is_left[jdx] == left_vertex:
                network.add_edge(idx, jdx)
        # ...and negative edges only towards opposite-side vertices.
        for other in graph.neg_neighbors(orig):
            jdx = local.get(other)
            if jdx is None or jdx <= idx:
                continue
            if network.is_left[jdx] != left_vertex:
                network.add_edge(idx, jdx)
    return network


def build_dichromatic_network_bits(
    graph: SignedGraph,
    u: int,
    allowed_mask: int | None = None,
) -> DichromaticGraph:
    """Bitset fast path of :func:`build_dichromatic_network`.

    Works entirely on the signed graph's cached global adjacency
    bitmasks: the sign/side filtering that the set builder performs with
    one dict probe per *candidate* edge collapses into two ``&`` ops per
    member, and only the retained edges are translated into local ids.
    The returned network is mask-backed
    (:meth:`DichromaticGraph.from_masks`) so the kernels reuse the masks
    without a rebuild.

    ``allowed_mask`` is the bitmask analogue of the set builder's
    ``allowed`` container (MBC*/PF* pass the higher-ranked vertex set).
    """
    return dichromatic_network_from_masks(
        graph.pos_adjacency_bits(), graph.neg_adjacency_bits(),
        u, allowed_mask)


def dichromatic_network_from_masks(
    pos_bits: list[int],
    neg_bits: list[int],
    u: int,
    allowed_mask: int | None = None,
) -> DichromaticGraph:
    """:func:`build_dichromatic_network_bits` over raw mask arrays.

    The parallel fan-out workers hold the graph only as the two
    adjacency-mask lists shipped at pool start (no :class:`SignedGraph`
    object exists in the worker), so the builder's real implementation
    lives at this level.
    """
    pos_u = pos_bits[u]
    neg_u = neg_bits[u]
    if allowed_mask is not None:
        pos_u &= allowed_mask
        neg_u &= allowed_mask
    left = bits_of(pos_u)
    right = bits_of(neg_u)
    origin = left + right
    is_left = [True] * len(left) + [False] * len(right)
    local = {orig: idx for idx, orig in enumerate(origin)}
    boundary = len(left)

    # Positive edges survive towards same-side vertices, negative edges
    # towards opposite-side vertices.  Each retained edge is translated
    # exactly once: same-side pairs from their lower-global-id endpoint
    # (the remainder after the ``>> (orig + 1)`` shift), cross pairs
    # from their L endpoint.
    adjacency = [0] * len(origin)
    for idx, orig in enumerate(origin):
        bit = 1 << idx
        if idx < boundary:
            same_hi = (pos_bits[orig] & pos_u) >> (orig + 1)
            cross = neg_bits[orig] & neg_u
        else:
            same_hi = (pos_bits[orig] & neg_u) >> (orig + 1)
            cross = 0
        while same_hi:
            low = same_hi & -same_hi
            same_hi ^= low
            jdx = local[low.bit_length() + orig]
            adjacency[idx] |= 1 << jdx
            adjacency[jdx] |= bit
        while cross:
            low = cross & -cross
            cross ^= low
            jdx = local[low.bit_length() - 1]
            adjacency[idx] |= 1 << jdx
            adjacency[jdx] |= bit
    return DichromaticGraph.from_masks(is_left, origin, adjacency)


def ego_network_edge_count(
    graph: SignedGraph,
    u: int,
    allowed: Container[int] | None = None,
) -> int:
    """``|E(G_u)|``: edges (any sign) among ``u``'s retained neighbours.

    Excludes ``u``'s own incident edges, matching
    :func:`build_dichromatic_network`; used for the SR1/SR2 reduction
    statistics of Table IV.
    """
    if allowed is None:
        members = graph.pos_neighbors(u) | graph.neg_neighbors(u)
    else:
        members = {v for v in graph.pos_neighbors(u) if v in allowed}
        members |= {v for v in graph.neg_neighbors(u) if v in allowed}
    count = 0
    for v in members:
        count += sum(1 for w in graph.pos_neighbors(v) if w in members)
        count += sum(1 for w in graph.neg_neighbors(v) if w in members)
    return count // 2


def ego_edge_count_from_masks(
    pos_bits: list[int],
    neg_bits: list[int],
    u: int,
    allowed_mask: int | None = None,
) -> int:
    """Bitset fast path of :func:`ego_network_edge_count`, over raw mask
    arrays (the representation the ego steps take)."""
    members = pos_bits[u] | neg_bits[u]
    if allowed_mask is not None:
        members &= allowed_mask
    count = 0
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        count += ((pos_bits[v] | neg_bits[v]) & members).bit_count()
    return count // 2
