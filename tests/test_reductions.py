"""Tests for VertexReduction, EdgeReduction, polar cores, PDecompose."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import enumerate_balanced_cliques
from repro.core.reductions import edge_reduction, polar_core_numbers, \
    polar_core_vertices, polarization_order, polarization_upper_bound, \
    vertex_reduction
from repro.kernels.bitset import iter_bits
from repro.signed.graph import SignedGraph

from .conftest import make_random_signed_graph, signed_graphs


class TestVertexReduction:
    def test_tau_zero_keeps_all(self, toy_figure2):
        assert vertex_reduction(toy_figure2, 0) == set(range(8))

    def test_removes_low_degree(self, balanced_six):
        # Vertices 6 and 7 hang off the clique with a single edge.
        survivors = vertex_reduction(balanced_six, 3)
        assert survivors == {0, 1, 2, 3, 4, 5}

    def test_cascades(self):
        # A chain of marginal vertices collapses entirely.
        graph = SignedGraph.from_edges(
            4, positive_edges=[(0, 1)], negative_edges=[(1, 2), (2, 3)])
        assert vertex_reduction(graph, 2) == set()

    def test_keeps_qualifying_clique(self, balanced_six):
        survivors = vertex_reduction(balanced_six, 3)
        assert {0, 1, 2, 3, 4, 5} <= survivors

    @given(signed_graphs(max_vertices=9),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_never_removes_clique_members(self, graph, tau):
        """Safety: no vertex of any balanced clique satisfying tau is
        ever peeled."""
        survivors = vertex_reduction(graph, tau)
        for clique in enumerate_balanced_cliques(graph, tau):
            assert set(clique.vertices) <= survivors

    @given(signed_graphs(max_vertices=9),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_survivor_degrees(self, graph, tau):
        """Survivors meet the degree thresholds within the survivor
        set."""
        survivors = vertex_reduction(graph, tau)
        for v in survivors:
            assert len(graph.pos_neighbors(v) & survivors) >= tau - 1
            assert len(graph.neg_neighbors(v) & survivors) >= tau


class TestEdgeReduction:
    def test_tau_zero_no_change(self, toy_figure2):
        reduced = edge_reduction(toy_figure2, 0)
        assert sorted(reduced.edges()) == sorted(toy_figure2.edges())

    def test_input_untouched(self, toy_figure2):
        before = sorted(toy_figure2.edges())
        edge_reduction(toy_figure2, 3)
        assert sorted(toy_figure2.edges()) == before

    def test_keeps_planted_clique(self, balanced_six):
        reduced = edge_reduction(balanced_six, 3)
        for u in range(6):
            for v in range(u + 1, 6):
                assert reduced.has_edge(u, v)

    def test_removes_stray_edges(self, balanced_six):
        # (6, 0) and (7, 3) are in no triangle at all.
        reduced = edge_reduction(balanced_six, 3)
        assert not reduced.has_edge(6, 0)
        assert not reduced.has_edge(7, 3)

    @given(signed_graphs(max_vertices=9),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_never_removes_clique_edges(self, graph, tau):
        """Safety: every edge of a balanced clique satisfying tau
        survives."""
        reduced = edge_reduction(graph, tau)
        import itertools

        for clique in enumerate_balanced_cliques(graph, tau):
            for u, v in itertools.combinations(clique.vertices, 2):
                assert reduced.has_edge(u, v), (
                    f"edge ({u}, {v}) of {sorted(clique.vertices)} "
                    f"removed at tau={tau}")

    def test_fixpoint(self):
        graph = make_random_signed_graph(20, 0.3, 0.2, seed=5)
        once = edge_reduction(graph, 2)
        twice = edge_reduction(once, 2)
        assert sorted(once.edges()) == sorted(twice.edges())


class TestPolarCore:
    def test_pn_values_on_balanced_clique(self, balanced_six):
        _order, pn = polar_core_numbers(balanced_six)
        # Clique members: min(d+ + 1, d-) = min(3, 3) = 3.
        for v in range(6):
            assert pn[v] == 3

    def test_order_is_permutation(self, toy_figure2):
        order = polarization_order(toy_figure2)
        assert sorted(order) == list(range(8))

    def test_pn_non_decreasing_along_order(self, toy_figure2):
        order, pn = polar_core_numbers(toy_figure2)
        values = [pn[v] for v in order]
        assert values == sorted(values)

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=60, deadline=None)
    def test_pn_matches_direct_peeling(self, graph):
        """pn(u) >= k iff u is in the k-polar-core (Definition 3)."""
        _order, pn = polar_core_numbers(graph)
        top = max(pn, default=0)
        for k in range(0, top + 2):
            expected = polar_core_vertices(graph, k)
            assert {v for v in graph.vertices()
                    if pn[v] >= k} == expected

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_polar_core_degree_property(self, graph):
        for k in range(1, 4):
            survivors = polar_core_vertices(graph, k)
            for v in survivors:
                pos = len(graph.pos_neighbors(v) & survivors)
                neg = len(graph.neg_neighbors(v) & survivors)
                assert min(pos + 1, neg) >= k

    @given(signed_graphs(max_vertices=9))
    @settings(max_examples=40, deadline=None)
    def test_lemma5_pn_bounds_gamma(self, graph):
        """Lemma 5: pn(u) upper-bounds the best polarization of any
        balanced clique containing u (for any ordering, so in
        particular for the whole-neighbourhood one)."""
        _order, pn = polar_core_numbers(graph)
        for clique in enumerate_balanced_cliques(graph):
            for u in clique.vertices:
                assert pn[u] >= clique.polarization


class TestPolarizationUpperBound:
    def test_empty_graph(self):
        assert polarization_upper_bound(SignedGraph(0)) == 0

    def test_balanced_clique(self, balanced_six):
        assert polarization_upper_bound(balanced_six) >= 3

    @given(signed_graphs(max_vertices=9))
    @settings(max_examples=40, deadline=None)
    def test_bounds_beta(self, graph):
        from repro.core.bruteforce import brute_force_polarization_factor

        assert polarization_upper_bound(graph) >= \
            brute_force_polarization_factor(graph)


class TestPolarCoreAliveMask:
    @given(signed_graphs(max_vertices=12),
           st.integers(min_value=0, max_value=2**12 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_relabelled_subgraph(self, graph, bits):
        """PDecompose over ``alive`` equals PDecompose of the relabelled
        induced subgraph mapped back: same order, same pn values."""
        alive = bits & graph.all_bits()
        sub, mapping = graph.subgraph(iter_bits(alive))
        sub_order, sub_pn = polar_core_numbers(sub)
        order, pn = polar_core_numbers(graph, alive)
        assert order == [mapping[v] for v in sub_order]
        assert [pn[v] for v in order] == [sub_pn[v] for v in sub_order]
        assert all(pn[v] == 0 for v in graph.vertices()
                   if not alive >> v & 1)
