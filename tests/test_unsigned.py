"""Tests for the unsigned substrate: graph, cores, ordering, coloring,
and the reference maximum-clique solver."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signed.graph import SignedGraph
from repro.unsigned.clique import maximum_clique, maximum_clique_size
from repro.unsigned.coloring import coloring_upper_bound, greedy_coloring, \
    is_proper_coloring
from repro.unsigned.cores import core_numbers, degeneracy, k_core_subset, \
    k_core_vertices, verify_core_property
from repro.unsigned.graph import UnsignedGraph
from repro.unsigned.ordering import degeneracy_ordering, rank_of_ordering

from .conftest import signed_graphs


@st.composite
def unsigned_graphs(draw, max_vertices: int = 14) -> UnsignedGraph:
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    p = draw(st.floats(min_value=0.0, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    import random

    rng = random.Random(seed)
    graph = UnsignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def to_networkx(graph: UnsignedGraph) -> nx.Graph:
    result = nx.Graph()
    result.add_nodes_from(graph.vertices())
    result.add_edges_from(graph.edges())
    return result


class TestUnsignedGraph:
    def test_from_edges(self):
        graph = UnsignedGraph.from_edges(3, [(0, 1), (1, 2)])
        assert graph.num_edges == 2
        assert graph.has_edge(1, 0)

    def test_from_signed_drops_signs(self):
        signed = SignedGraph.from_edges(
            3, positive_edges=[(0, 1)], negative_edges=[(1, 2)])
        graph = UnsignedGraph.from_signed(signed)
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1) and graph.has_edge(1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            UnsignedGraph(2).add_edge(0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            UnsignedGraph(2).add_edge(0, 5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            UnsignedGraph(-2)

    def test_is_clique(self):
        graph = UnsignedGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        assert graph.is_clique([0, 1, 2])
        assert not graph.is_clique([0, 1, 3])

    def test_copy_is_independent(self):
        graph = UnsignedGraph.from_edges(3, [(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert not graph.has_edge(1, 2)

    def test_degree(self):
        graph = UnsignedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1


class TestCores:
    def test_triangle_core_numbers(self):
        graph = UnsignedGraph.from_edges(
            4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        cores = core_numbers(graph)
        assert cores == [2, 2, 2, 1]

    def test_core_numbers_match_networkx(self):
        graph = UnsignedGraph.from_edges(
            8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3),
                (6, 7)])
        expected = nx.core_number(to_networkx(graph))
        assert core_numbers(graph) == [expected[v] for v in range(8)]

    @given(unsigned_graphs())
    @settings(max_examples=60, deadline=None)
    def test_core_numbers_match_networkx_random(self, graph):
        expected = nx.core_number(to_networkx(graph))
        assert core_numbers(graph) == [
            expected[v] for v in graph.vertices()]

    def test_k_core_vertices(self):
        graph = UnsignedGraph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert k_core_vertices(graph, 2) == {0, 1, 2}
        assert k_core_vertices(graph, 3) == set()

    def test_k_core_zero_keeps_all(self):
        graph = UnsignedGraph(4)
        assert k_core_vertices(graph, 0) == {0, 1, 2, 3}

    @given(unsigned_graphs(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_k_core_has_min_degree_k(self, graph, k):
        survivors = k_core_vertices(graph, k)
        assert verify_core_property(graph, k, survivors)

    @given(unsigned_graphs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_k_core_is_maximal(self, graph, k):
        """No removed vertex could have survived: adding any one back
        leaves it with degree < k inside the augmented set."""
        survivors = k_core_vertices(graph, k)
        for v in set(graph.vertices()) - survivors:
            inside = len(graph.neighbors(v) & survivors)
            # v may have had more neighbours among other removed
            # vertices, but within the core itself it must fall short.
            assert inside + 0 < k or not verify_core_property(
                graph, k, survivors | {v})

    def test_k_core_subset_respects_active(self):
        graph = UnsignedGraph.from_edges(
            4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        survivors = k_core_subset(graph, 2, {0, 1, 3})
        assert survivors == set()  # without 2, no triangle remains

    def test_degeneracy_of_clique(self):
        graph = UnsignedGraph.from_edges(
            4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert degeneracy(graph) == 3


class TestOrdering:
    def test_ordering_is_permutation(self):
        graph = UnsignedGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        order = degeneracy_ordering(graph)
        assert sorted(order) == list(range(5))

    @given(unsigned_graphs())
    @settings(max_examples=60, deadline=None)
    def test_ordering_property(self, graph):
        """Each vertex's back-degree (neighbours ranked later) is at
        most the graph degeneracy — the defining property MBC* needs
        for small ego-networks."""
        order = degeneracy_ordering(graph)
        assert sorted(order) == list(graph.vertices())
        rank = rank_of_ordering(order)
        limit = degeneracy(graph)
        for v in graph.vertices():
            back = sum(1 for u in graph.neighbors(v)
                       if rank[u] > rank[v])
            assert back <= limit

    @given(unsigned_graphs(), st.integers(min_value=0,
                                          max_value=2**14 - 1))
    @settings(max_examples=60, deadline=None)
    def test_active_orders_the_induced_subgraph(self, graph, bits):
        """``active`` orders ``G[active]`` in place: a permutation of
        the active vertices with the degeneracy property inside it."""
        active = {v for v in graph.vertices() if bits >> v & 1}
        order = degeneracy_ordering(graph, active)
        assert sorted(order) == sorted(active)
        induced = UnsignedGraph.from_edges(
            graph.num_vertices,
            [(u, v) for u, v in graph.edges()
             if u in active and v in active])
        position = {v: i for i, v in enumerate(order)}
        limit = degeneracy(induced)
        for v in active:
            back = sum(1 for u in induced.neighbors(v)
                       if position[u] > position[v])
            assert back <= limit

    def test_rank_inverse(self):
        order = [2, 0, 1]
        rank = rank_of_ordering(order)
        assert rank == [1, 2, 0]
        assert [order[rank[v]] for v in range(3)] == [0, 1, 2]

    def test_star_ordering_puts_center_last(self):
        graph = UnsignedGraph.from_edges(5, [(0, v) for v in range(1, 5)])
        order = degeneracy_ordering(graph)
        # Leaves peel first; the hub is peeled last or near-last.
        assert order[-1] == 0 or graph.degree(order[-1]) == 1


class TestColoring:
    @given(unsigned_graphs())
    @settings(max_examples=60, deadline=None)
    def test_coloring_is_proper(self, graph):
        colors = greedy_coloring(graph)
        assert is_proper_coloring(graph, colors)
        assert set(colors) == set(graph.vertices())

    @given(unsigned_graphs())
    @settings(max_examples=40, deadline=None)
    def test_bound_at_least_clique(self, graph):
        assert coloring_upper_bound(graph) >= maximum_clique_size(graph)

    def test_bound_on_bipartite(self):
        graph = UnsignedGraph.from_edges(
            6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert coloring_upper_bound(graph) == 2

    def test_bound_on_empty_set(self):
        graph = UnsignedGraph(5)
        assert coloring_upper_bound(graph, active=set()) == 0

    def test_bound_restricted_to_active(self):
        graph = UnsignedGraph.from_edges(
            4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert coloring_upper_bound(graph, active={0, 3}) == 1

    def test_improper_coloring_detected(self):
        graph = UnsignedGraph.from_edges(2, [(0, 1)])
        assert not is_proper_coloring(graph, {0: 0, 1: 0})


class TestMaximumClique:
    def test_triangle(self):
        graph = UnsignedGraph.from_edges(
            5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        clique = maximum_clique(graph)
        assert clique == {0, 1, 2}

    def test_empty_graph(self):
        assert maximum_clique(UnsignedGraph(0)) == set()

    def test_edgeless_graph(self):
        assert len(maximum_clique(UnsignedGraph(4))) == 1

    def test_complete_graph(self):
        n = 7
        graph = UnsignedGraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert maximum_clique_size(graph) == n

    @given(unsigned_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, graph):
        expected = max(
            (len(c) for c in nx.find_cliques(to_networkx(graph))),
            default=0)
        found = maximum_clique(graph)
        assert len(found) == expected
        assert graph.is_clique(found)
