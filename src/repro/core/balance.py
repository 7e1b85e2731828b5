"""Structural balance: side-splitting and balanced-clique validation.

Definitions 1 and 2 of the paper.  A vertex set ``C`` of a signed graph
is a *balanced clique* when (1) every pair is joined by an edge and
(2) ``C`` splits into sides ``C_L``/``C_R`` with all within-side edges
positive and all cross-side edges negative.  The split is unique up to
swapping the sides (and one side may be empty).

:func:`split_sides` recovers the split — it two-colours the *negative*
subgraph of ``G[C]``; a balanced clique's negative edges form a complete
bipartite graph, so a BFS two-colouring plus a full verification pass
decides balance.  It is the set-based reference: O(|C|²) ``sign()``
probes.  :func:`split_sides_mask` decides the same question on the
graph's signed bitmasks in O(|C|) big-int operations, for callers that
re-check the same clique after every edit.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from ..signed.graph import SignedGraph

__all__ = ["split_sides", "split_sides_mask", "is_balanced_clique",
           "is_clique"]


def is_clique(graph: SignedGraph, vertices: Iterable[int]) -> bool:
    """Whether the vertices are pairwise joined by (signed) edges."""
    members = list(vertices)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            if not graph.has_edge(u, v):
                return False
    return True


def split_sides(
    graph: SignedGraph, vertices: Iterable[int]
) -> tuple[set[int], set[int]] | None:
    """Split a vertex set into balanced sides, or ``None``.

    Returns ``(C_L, C_R)`` such that within-side pairs are positive
    edges and cross-side pairs are negative edges, or ``None`` if the
    set is not a balanced clique.  When both sides are non-empty the
    side containing the smallest vertex id is returned first, making
    the output deterministic.
    """
    members = sorted(set(vertices))
    if not members:
        return set(), set()
    member_set = set(members)
    # Two-colour via negative edges: endpoints of a negative edge must
    # be on opposite sides; positive edges demand the same side.
    side: dict[int, int] = {}
    for start in members:
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in graph.neg_neighbors(v) & member_set:
                expected = 1 - side[v]
                if u not in side:
                    side[u] = expected
                    queue.append(u)
                elif side[u] != expected:
                    return None
            for u in graph.pos_neighbors(v) & member_set:
                if u not in side:
                    side[u] = side[v]
                    queue.append(u)
                elif side[u] != side[v]:
                    return None
    # Full verification: clique-ness plus sign/side agreement.
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            sign = graph.sign(u, v)
            if sign is None:
                return None
            same_side = side[u] == side[v]
            if same_side and sign != 1:
                return None
            if not same_side and sign != -1:
                return None
    left = {v for v in members if side[v] == side[members[0]]}
    right = member_set - left
    return left, right


def split_sides_mask(
    graph: SignedGraph, members: int
) -> tuple[int, int] | None:
    """:func:`split_sides` on a vertex bitmask, read off the graph's
    signed masks.

    With ``f`` the smallest member, the only candidate split is
    ``L = {f} ∪ (pos[f] & C)`` and ``R = neg[f] & C``; ``C`` is a
    balanced clique iff every member ``v`` sees exactly its own side
    (minus itself) positively and exactly the other side negatively.
    That also gives ``L | R == C``: a member outside both would need a
    negative edge to ``f``, or itself among its positive neighbours.
    One ``&`` and compare per member and sign instead of a ``sign()``
    probe per pair.  Returns ``(L, R)`` as bitmasks — the sides
    :func:`split_sides` returns, ``L`` holding the smallest member —
    or ``None`` exactly when it does.
    """
    if not members:
        return 0, 0
    pos = graph.pos_adjacency_bits()
    neg = graph.neg_adjacency_bits()
    low = members & -members
    first = low.bit_length() - 1
    left = low | (pos[first] & members)
    right = neg[first] & members
    rest = members
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        own, other = (left, right) if left & bit else (right, left)
        if pos[v] & members != own ^ bit or neg[v] & members != other:
            return None
    return left, right


def is_balanced_clique(
    graph: SignedGraph,
    vertices: Iterable[int],
    tau: int = 0,
) -> bool:
    """Whether ``vertices`` is a balanced clique whose sides both have
    at least ``tau`` members (the polarization constraint)."""
    sides = split_sides(graph, vertices)
    if sides is None:
        return False
    left, right = sides
    return min(len(left), len(right)) >= tau
