"""Tests for MBC-Heu (Algorithm 3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import is_balanced_clique
from repro.core.heuristic import mbc_heuristic
from repro.kernels.bitset import iter_bits
from repro.signed.graph import SignedGraph

from .conftest import SOLVER_ENGINES, signed_graphs

MASK_ENGINES = [engine for engine in SOLVER_ENGINES if engine != "set"]


class TestHeuristic:
    def test_finds_planted_clique(self, balanced_six):
        clique = mbc_heuristic(balanced_six, 3)
        assert clique.size == 6
        assert clique.polarization == 3

    def test_result_is_balanced_clique(self, toy_figure2):
        clique = mbc_heuristic(toy_figure2, 2)
        assert not clique.is_empty
        assert is_balanced_clique(
            toy_figure2, clique.vertices, tau=2)

    def test_empty_when_tau_unreachable(self, all_positive_clique):
        clique = mbc_heuristic(all_positive_clique, 1)
        assert clique.is_empty

    def test_tau_zero_nonempty(self, all_positive_clique):
        clique = mbc_heuristic(all_positive_clique, 0)
        assert clique.size >= 1

    def test_empty_graph(self):
        assert mbc_heuristic(SignedGraph(0), 0).is_empty

    def test_anchor_override(self, balanced_six):
        clique = mbc_heuristic(balanced_six, 0, anchor=6)
        assert 6 in clique.vertices

    def test_isolated_anchor(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, 1)
        clique = mbc_heuristic(graph, 0, anchor=2)
        assert clique.vertices == {2}

    @given(signed_graphs(max_vertices=12),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_result_always_valid(self, graph, tau):
        """Whatever the heuristic returns is a genuine balanced clique
        satisfying tau (or empty)."""
        clique = mbc_heuristic(graph, tau)
        if clique.is_empty:
            return
        assert is_balanced_clique(graph, clique.vertices, tau=tau)

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_optimum(self, graph):
        from repro.core.bruteforce import \
            brute_force_maximum_balanced_clique

        clique = mbc_heuristic(graph, 0)
        optimum = brute_force_maximum_balanced_clique(graph, 0)
        assert clique.size <= optimum.size


class TestAliveMask:
    """``alive`` restricts the heuristic to ``G[alive]`` in the caller's
    ids: the mask engines must return exactly what the relabelled
    induced subgraph returns, mapped back."""

    @given(signed_graphs(max_vertices=12),
           st.integers(min_value=0, max_value=2**12 - 1),
           st.integers(min_value=0, max_value=2),
           st.sampled_from(MASK_ENGINES))
    @settings(max_examples=80, deadline=None)
    def test_matches_relabelled_subgraph(self, graph, bits, tau, engine):
        alive = bits & graph.all_bits()
        sub, mapping = graph.subgraph(iter_bits(alive))
        expected = mbc_heuristic(sub, tau, engine=engine)
        got = mbc_heuristic(graph, tau, engine=engine, alive=alive)
        assert got.left == {mapping[v] for v in expected.left}
        assert got.right == {mapping[v] for v in expected.right}

    @given(signed_graphs(max_vertices=12),
           st.integers(min_value=0, max_value=2**12 - 1))
    @settings(max_examples=40, deadline=None)
    def test_set_engine_stays_inside_alive(self, graph, bits):
        alive = bits & graph.all_bits()
        clique = mbc_heuristic(graph, 0, engine="set", alive=alive)
        assert not clique.vertices - set(iter_bits(alive))
        if not clique.is_empty:
            assert is_balanced_clique(graph, clique.vertices, tau=0)
