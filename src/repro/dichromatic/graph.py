"""Dichromatic graphs (Problem 3 of the paper).

A *dichromatic graph* ``g = (V_L ∪ V_R, E)`` is an unsigned graph whose
vertices carry one of two labels, L or R.  A clique ``C`` of ``g`` is a
*dichromatic clique satisfying the constraint* ``(tau_L, tau_R)`` when
``|C ∩ V_L| >= tau_L`` and ``|C ∩ V_R| >= tau_R``.

:class:`DichromaticGraph` stores the label array, adjacency sets, and an
``origin`` array mapping local vertex ids back to vertices of the signed
graph the network was extracted from (see :mod:`repro.dichromatic.build`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..kernels.bitset import adjacency_masks, full_mask, iter_bits, \
    left_side_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernels.npmask import Matrix, Row

__all__ = ["DichromaticGraph"]


class DichromaticGraph:
    """Vertex-labelled unsigned graph over local ids ``0..n-1``.

    Parameters
    ----------
    is_left:
        ``is_left[v]`` is True for L-vertices, False for R-vertices.
    origin:
        Optional mapping from local id to the original vertex id of the
        signed graph (defaults to the identity).
    """

    def __init__(
        self,
        is_left: Sequence[bool],
        origin: Sequence[int] | None = None,
    ) -> None:
        self.is_left: list[bool] = list(is_left)
        n = len(self.is_left)
        if origin is None:
            self.origin: list[int] = list(range(n))
        else:
            if len(origin) != n:
                raise ValueError(
                    f"expected {n} origin entries, got {len(origin)}")
            self.origin = list(origin)
        self._adj: list[set[int]] | None = [set() for _ in range(n)]
        self._adj_bits: list[int] | None = None
        self._adj_np: "Matrix | None" = None
        self._left_bits: int | None = None
        self._left_row: "Row | None" = None

    @classmethod
    def from_masks(
        cls,
        is_left: Sequence[bool],
        origin: Sequence[int],
        adjacency: Sequence[int],
    ) -> "DichromaticGraph":
        """Build directly from per-vertex adjacency bitmasks.

        The fast ego-network builder
        (:func:`repro.dichromatic.build.build_dichromatic_network_bits`)
        produces masks natively; adjacency *sets* are materialized
        lazily only if a set-based accessor is used.  ``adjacency`` must
        be symmetric and self-loop-free — callers own that invariant.
        """
        network = cls.__new__(cls)
        network.is_left = list(is_left)
        n = len(network.is_left)
        if len(origin) != n or len(adjacency) != n:
            raise ValueError(
                f"expected {n} origin/adjacency entries, got "
                f"{len(origin)}/{len(adjacency)}")
        network.origin = list(origin)
        network._adj = None
        network._adj_bits = list(adjacency)
        network._adj_np = None
        network._left_bits = None
        network._left_row = None
        return network

    def _sets(self) -> list[set[int]]:
        """Adjacency sets, materialized from the masks on first use."""
        if self._adj is None:
            self._adj = [
                set(iter_bits(mask)) for mask in self.adjacency_bits()]
        return self._adj

    @property
    def num_vertices(self) -> int:
        return len(self.is_left)

    @property
    def num_edges(self) -> int:
        if self._adj_bits is not None:
            return sum(mask.bit_count() for mask in self._adj_bits) // 2
        return sum(len(adj) for adj in self._sets()) // 2

    def vertices(self) -> range:
        return range(self.num_vertices)

    def left_vertices(self) -> set[int]:
        """``V_L`` as a fresh set of local ids."""
        return {v for v in self.vertices() if self.is_left[v]}

    def right_vertices(self) -> set[int]:
        """``V_R`` as a fresh set of local ids."""
        return {v for v in self.vertices() if not self.is_left[v]}

    def neighbors(self, v: int) -> set[int]:
        """Live adjacency set of ``v`` — callers must not mutate it."""
        return self._sets()[v]

    def degree(self, v: int) -> int:
        if self._adj_bits is not None:
            return self._adj_bits[v].bit_count()
        return len(self._sets()[v])

    def has_edge(self, u: int, v: int) -> bool:
        if self._adj_bits is not None:
            return bool(self._adj_bits[u] & (1 << v))
        return v in self._sets()[u]

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        n = self.num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj = self._sets()
        adj[u].add(v)
        adj[v].add(u)
        self._adj_bits = None
        self._adj_np = None

    # ------------------------------------------------------------------
    # Bitset adjacency (kernel layer)
    # ------------------------------------------------------------------
    def adjacency_bits(self) -> list[int]:
        """Per-vertex neighbourhood bitmasks, built lazily and cached.

        The cache is invalidated by :meth:`add_edge`; callers must not
        mutate the returned list or its entries between edits.
        """
        if self._adj_bits is None:
            self._adj_bits = adjacency_masks(self._sets())
        return self._adj_bits

    def left_bits(self) -> int:
        """Mask of ``V_L`` (labels are fixed at construction time)."""
        if self._left_bits is None:
            self._left_bits = left_side_mask(self.is_left)
        return self._left_bits

    def all_bits(self) -> int:
        """Mask of the full vertex set ``0..n-1``."""
        return full_mask(self.num_vertices)

    # ------------------------------------------------------------------
    # Matrix adjacency (the numpy engine's MDC/DCC search; each method
    # imports npmask itself, so numpy loads only for this engine)
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> "Matrix":
        """Adjacency as a uint64 mask matrix, built lazily and cached.

        Invalidated by :meth:`add_edge`, like :meth:`adjacency_bits`;
        callers must not mutate the returned array between edits.
        """
        from ..kernels import npmask

        if self._adj_np is None:
            self._adj_np = npmask.matrix_from_masks(
                self.adjacency_bits(), self.num_vertices)
        return self._adj_np

    def left_row(self) -> "Row":
        """``V_L`` as a uint64 mask row, cached."""
        from ..kernels import npmask

        if self._left_row is None:
            self._left_row = npmask.bool_to_row(
                self.is_left, self.num_vertices)
        return self._left_row

    def all_row(self) -> "Row":
        """The full vertex set ``0..n-1`` as a fresh uint64 mask row."""
        from ..kernels import npmask

        return npmask.full_row(self.num_vertices)

    def edges(self) -> Iterable[tuple[int, int]]:
        adj = self._sets()
        for u in self.vertices():
            for v in adj[u]:
                if u < v:
                    yield u, v

    def is_clique(self, vertices: Iterable[int]) -> bool:
        members = list(vertices)
        sets = self._sets()
        for i, u in enumerate(members):
            adj = sets[u]
            for v in members[i + 1:]:
                if v not in adj:
                    return False
        return True

    def side_counts(self, vertices: Iterable[int]) -> tuple[int, int]:
        """``(|S ∩ V_L|, |S ∩ V_R|)`` for a local vertex set ``S``."""
        left = 0
        right = 0
        for v in vertices:
            if self.is_left[v]:
                left += 1
            else:
                right += 1
        return left, right

    def to_original(self, vertices: Iterable[int]) -> set[int]:
        """Translate local ids back to original signed-graph ids."""
        return {self.origin[v] for v in vertices}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        left = sum(1 for flag in self.is_left if flag)
        return (f"DichromaticGraph(|V_L|={left}, "
                f"|V_R|={self.num_vertices - left}, m={self.num_edges})")
