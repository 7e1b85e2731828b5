"""Lightweight unsigned graph used by the pruning/bounding machinery.

``MBC*`` repeatedly treats (sub)graphs *without* edge signs: the
``|C*|``-core reduction, the degeneracy ordering and the colouring upper
bound all operate on the unsigned view of the signed graph.  This module
provides that view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from ..kernels.bitset import adjacency_masks, full_mask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..signed.graph import SignedGraph

__all__ = ["UnsignedGraph"]


class UnsignedGraph:
    """Undirected simple graph over vertices ``0..n-1`` (adjacency sets)."""

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._adj_bits: list[int] | None = None

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]]
    ) -> "UnsignedGraph":
        graph = cls(n)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_signed(cls, signed: "SignedGraph") -> "UnsignedGraph":
        """Unsigned view of a signed graph (signs discarded)."""
        graph = cls(signed.num_vertices)
        for u, v, _sign in signed.edges():
            graph.add_edge(u, v)
        return graph

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return sum(len(adj) for adj in self._adj) // 2

    def vertices(self) -> range:
        return range(self.num_vertices)

    def neighbors(self, v: int) -> set[int]:
        """Live adjacency set of ``v`` — callers must not mutate it."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        adj = self._adj
        for u in self.vertices():
            for v in adj[u]:
                if u < v:
                    yield u, v

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj = self._adj
        adj[u].add(v)
        adj[v].add(u)
        self._adj_bits = None

    def adjacency_bits(self) -> list[int]:
        """Per-vertex neighbourhood bitmasks, built lazily and cached.

        The cache is invalidated by :meth:`add_edge`; callers must not
        mutate the returned list or its entries between edits.
        """
        if self._adj_bits is None:
            self._adj_bits = adjacency_masks(self._adj)
        return self._adj_bits

    def all_bits(self) -> int:
        """Mask of the full vertex set ``0..n-1``."""
        return full_mask(self.num_vertices)

    def copy(self) -> "UnsignedGraph":
        clone = UnsignedGraph(self.num_vertices)
        clone._adj = [set(adj) for adj in self._adj]
        return clone

    def is_clique(self, vertices: Iterable[int]) -> bool:
        """Whether the given vertices are pairwise adjacent."""
        members = list(vertices)
        sets = self._adj
        for i, u in enumerate(members):
            adj = sets[u]
            for v in members[i + 1:]:
                if v not in adj:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnsignedGraph(n={self.num_vertices}, m={self.num_edges})"
