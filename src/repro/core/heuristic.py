"""MBC-Heu — the greedy heuristic of Algorithm 3.

Starting from an anchor vertex ``u`` (the implementation note in the
paper picks the vertex maximizing ``min(d+(u), d-(u))``), grow a clique
inside the dichromatic network ``g_u``: repeatedly take the
maximum-degree vertex of the current candidate subgraph, preferring the
side that is currently smaller so the result stays balanced, and
restrict the candidates to the new vertex's neighbourhood.

One growth pass is ``O(m)``; trying ``tries`` anchors costs
``O(tries * m)``.  The result (when it meets the polarization
constraint ``tau``) seeds MBC* with a lower bound — the ``Heu`` column
of Table IV.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..dichromatic.build import build_dichromatic_network
from ..kernels import validate_engine
from ..kernels.bitset import bits_of
from ..signed.graph import SignedGraph
from .result import EMPTY_RESULT, BalancedClique

__all__ = ["mbc_heuristic"]


def mbc_heuristic(
    graph: SignedGraph,
    tau: int,
    anchor: int | None = None,
    tries: int = 8,
    engine: str = "bitset",
    alive: int | None = None,
) -> BalancedClique:
    """Greedy balanced clique satisfying ``tau``, or the empty result.

    Parameters
    ----------
    graph:
        The signed graph.
    tau:
        Polarization constraint both sides must meet.
    anchor:
        Optional start vertex; by default the vertices with the largest
        ``min(d+, d-)`` (most capable of anchoring a polarized clique)
        are tried.
    tries:
        How many top-ranked anchors to attempt when ``anchor`` is not
        given (the paper's implementation note uses the single best
        anchor; trying a handful costs ``O(tries * m)`` and makes the
        initial bound far more robust).
    engine:
        ``"bitset"`` (default) and ``"numpy"`` grow the clique straight
        on the graph's cached adjacency masks (numpy = vectorised
        MDC/DCC search, everything else shared, and the heuristic has
        no search); ``"set"`` is the original implementation.
        The mask growth picks the lowest id among equal-degree
        candidates and anchors are ranked stably by id; the set
        engine's ties follow set iteration order, so its greedy result
        can legitimately differ — all are valid lower bounds for the
        exact search they seed.
    alive:
        Optional vertex mask restricting the heuristic to the induced
        subgraph ``G[alive]`` (MBC* passes the ``VertexReduction``
        survivors); degrees, anchors and growth all stay inside it and
        the clique is in ``graph``'s own vertex ids.

    The mask engines build the graph's mask rows they read and no
    others: with ``alive`` its rows, to rank the anchors, and without
    it each anchor's row and those of the candidates its growth ranks
    (a part of the anchor's neighbourhood).
    """
    validate_engine(engine)
    if graph.num_vertices == 0 or alive == 0:
        return EMPTY_RESULT
    members = list(graph.vertices()) if alive is None else bits_of(alive)
    keep = set(members) if engine == "set" and alive is not None \
        else None
    if anchor is not None:
        anchors = [anchor]
    else:
        # ``nlargest`` equals the stable ``sorted(..., reverse=True)``
        # prefix: ties keep ascending id order.
        anchors = heapq.nlargest(
            max(tries, 1), members,
            key=_anchor_rank(graph, members, alive, keep))
    best = EMPTY_RESULT
    for candidate in anchors:
        if engine == "set":
            clique = _grow_from(graph, candidate, tau, keep)
        else:
            clique = _grow_from_bits(graph, candidate, tau, alive)
        if clique.size > best.size:
            best = clique
    return best


def _anchor_rank(graph: SignedGraph, members: list[int],
                 alive: int | None,
                 keep: "set[int] | None") -> Callable[[int], int]:
    """Anchor rank ``min(d+(v), d-(v))`` with degrees counted inside
    ``alive``: set intersections when the set engine passes ``keep``
    (the same vertices as a set), popcounts of ``members``' mask rows
    otherwise."""
    if alive is None:
        return lambda v: min(graph.pos_degree(v), graph.neg_degree(v))
    if keep is not None:
        return lambda v: min(len(graph.pos_neighbors(v) & keep),
                             len(graph.neg_neighbors(v) & keep))
    pos, neg = graph.adjacency_rows(members)
    return lambda v: min((pos[v] & alive).bit_count(),
                         (neg[v] & alive).bit_count())


def _grow_from_bits(
    graph: SignedGraph, anchor: int, tau: int, alive: int | None
) -> BalancedClique:
    """Bitset fast path of :func:`_grow_from`, on the global masks.

    The network ``g_u`` is never built: its L/R sides are the anchor's
    positive/negative neighbours, and a candidate's neighbourhood in
    ``g_u`` is its positive neighbours on its own side plus its
    negative neighbours on the other side.  So the candidate pools are
    two masks over ``graph``'s ids and each degree is one popcount of
    ``(pos[v] & same) | (neg[v] & other)``.  Each step asks for the
    rows of the pool it ranks, so the growth builds the anchor's row
    and those of the candidates it ranks, a part of the anchor's
    neighbourhood (inside ``alive``).
    """
    pos, neg = graph.adjacency_rows((anchor,))
    left_pool = pos[anchor]
    right_pool = neg[anchor]
    if alive is not None:
        left_pool &= alive
        right_pool &= alive
    left: set[int] = {anchor}
    right: set[int] = set()

    while left_pool or right_pool:
        take_right = not left_pool or (right_pool and
                                       len(left) >= len(right))
        same, other = (right_pool, left_pool) if take_right \
            else (left_pool, right_pool)
        best_v = -1
        best_degree = -1
        members = bits_of(same)
        graph.adjacency_rows(members)
        for v in members:
            degree = ((pos[v] & same) | (neg[v] & other)).bit_count()
            if degree > best_degree:
                best_degree = degree
                best_v = v
        v = best_v
        # ``v``'s own side keeps its positive neighbours, the other
        # side its negative ones (``v`` itself is in neither mask).
        if take_right:
            right.add(v)
            right_pool &= pos[v]
            left_pool &= neg[v]
        else:
            left.add(v)
            left_pool &= pos[v]
            right_pool &= neg[v]

    clique = BalancedClique.from_sides(left, right)
    if clique.satisfies(tau):
        return clique
    return EMPTY_RESULT


def _grow_from(
    graph: SignedGraph, anchor: int, tau: int, alive: "set[int] | None"
) -> BalancedClique:
    """One greedy growth pass from ``anchor`` (Algorithm 3 proper)."""
    network = build_dichromatic_network(graph, anchor, alive)
    active = set(network.vertices())
    left: set[int] = {anchor}
    right: set[int] = set()

    while active:
        left_pool = {v for v in active if network.is_left[v]}
        right_pool = active - left_pool
        take_right = not left_pool or (right_pool and
                                       len(left) >= len(right))
        pool = right_pool if take_right else left_pool
        v = max(pool, key=lambda x: len(network.neighbors(x) & active))
        if network.is_left[v]:
            left.add(network.origin[v])
        else:
            right.add(network.origin[v])
        active &= network.neighbors(v)

    clique = BalancedClique.from_sides(left, right)
    if clique.satisfies(tau):
        return clique
    return EMPTY_RESULT
