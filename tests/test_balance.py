"""Tests for structural-balance checking and side splitting."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import (
    is_balanced_clique, is_clique, split_sides, split_sides_mask)
from repro.core.bruteforce import enumerate_balanced_cliques
from repro.kernels.bitset import mask_of
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

from .conftest import signed_graphs


class TestIsClique:
    def test_clique_any_signs(self, toy_figure2):
        assert is_clique(toy_figure2, [0, 1, 2, 3])

    def test_missing_edge(self, toy_figure2):
        assert not is_clique(toy_figure2, [0, 4])

    def test_empty_and_singleton(self, toy_figure2):
        assert is_clique(toy_figure2, [])
        assert is_clique(toy_figure2, [5])


class TestSplitSides:
    def test_balanced_four(self, toy_figure2):
        sides = split_sides(toy_figure2, [0, 1, 2, 3])
        assert sides is not None
        left, right = sides
        assert {frozenset(left), frozenset(right)} == {
            frozenset({0, 1}), frozenset({2, 3})}

    def test_all_positive_is_one_sided(self, all_positive_clique):
        sides = split_sides(all_positive_clique, range(5))
        assert sides is not None
        left, right = sides
        assert {len(left), len(right)} == {5, 0}

    def test_empty_set(self, toy_figure2):
        assert split_sides(toy_figure2, []) == (set(), set())

    def test_singleton(self, toy_figure2):
        sides = split_sides(toy_figure2, [4])
        assert sides == ({4}, set())

    def test_non_clique_rejected(self, toy_figure2):
        assert split_sides(toy_figure2, [0, 4]) is None

    def test_unbalanced_triangle_rejected(self):
        # Two positive edges and one negative edge: v0-v1 +, v1-v2 +,
        # v0-v2 - cannot be two-sided.
        graph = SignedGraph.from_edges(
            3, positive_edges=[(0, 1), (1, 2)], negative_edges=[(0, 2)])
        assert split_sides(graph, [0, 1, 2]) is None

    def test_all_negative_triangle_rejected(self):
        graph = SignedGraph.from_edges(
            3, negative_edges=[(0, 1), (1, 2), (0, 2)])
        assert split_sides(graph, [0, 1, 2]) is None

    def test_negative_pair_is_balanced(self):
        graph = SignedGraph.from_edges(2, negative_edges=[(0, 1)])
        sides = split_sides(graph, [0, 1])
        assert sides is not None
        assert {len(s) for s in sides} == {1}

    def test_deterministic_side_order(self, toy_figure2):
        left, right = split_sides(toy_figure2, [0, 1, 2, 3])
        assert min(left) < min(right)

    def test_sides_partition_input(self, toy_figure2):
        left, right = split_sides(toy_figure2, [2, 3, 4, 5, 6, 7])
        assert left | right == {2, 3, 4, 5, 6, 7}
        assert not (left & right)


class TestIsBalancedClique:
    def test_tau_zero(self, all_positive_clique):
        assert is_balanced_clique(all_positive_clique, range(5), tau=0)

    def test_tau_one_fails_one_sided(self, all_positive_clique):
        assert not is_balanced_clique(
            all_positive_clique, range(5), tau=1)

    def test_figure2_tau2(self, toy_figure2):
        assert is_balanced_clique(
            toy_figure2, [2, 3, 4, 5, 6, 7], tau=2)

    def test_figure2_tau3_fails(self, toy_figure2):
        assert not is_balanced_clique(
            toy_figure2, [2, 3, 4, 5, 6, 7], tau=3)

    def test_non_clique(self, toy_figure2):
        assert not is_balanced_clique(toy_figure2, [0, 5])


class TestAgainstBruteForce:
    @given(signed_graphs(max_vertices=8))
    @settings(max_examples=40, deadline=None)
    def test_split_agrees_with_enumeration(self, graph):
        """Every clique reported balanced by the oracle splits, and
        the split sides reproduce the clique."""
        for clique in enumerate_balanced_cliques(graph):
            sides = split_sides(graph, clique.vertices)
            assert sides is not None
            left, right = sides
            assert left | right == set(clique.vertices)

    @given(signed_graphs(max_vertices=8))
    @settings(max_examples=40, deadline=None)
    def test_split_validates_signs(self, graph):
        """Whenever split_sides succeeds, the sign pattern is balanced:
        positive within sides, negative across."""
        import itertools

        vertices = list(graph.vertices())
        for size in (2, 3):
            for combo in itertools.combinations(vertices, size):
                sides = split_sides(graph, combo)
                if sides is None:
                    continue
                left, right = sides
                for u, v in itertools.combinations(combo, 2):
                    sign = graph.sign(u, v)
                    assert sign is not None
                    same = (u in left) == (v in left)
                    assert sign == (POSITIVE if same else NEGATIVE)


#: The vertex subsets the mask differential draws, each from its own
#: seeded signed graph.
SUBSET_KINDS = ("single", "random", "unbalanced_triangle", "all_positive",
                "planted", "planted_flipped", "planted_missing_edge")


@st.composite
def graphs_with_subsets(draw) -> tuple[SignedGraph, list[int], str]:
    """A seeded random signed graph plus a vertex subset of one of
    :data:`SUBSET_KINDS`; planted subsets have every pair's sign
    overwritten before the graph is built."""
    kind = draw(st.sampled_from(SUBSET_KINDS))
    n = draw(st.integers(min_value=3, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    p_pos, p_neg = rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.4)
    signs: dict[tuple[int, int], int] = {}
    for pair in itertools.combinations(range(n), 2):
        roll = rng.random()
        if roll < p_pos:
            signs[pair] = POSITIVE
        elif roll < p_pos + p_neg:
            signs[pair] = NEGATIVE
    if kind == "single":
        members = [rng.randrange(n)]
    elif kind == "random":
        members = rng.sample(range(n), rng.randint(0, n))
    elif kind == "unbalanced_triangle":
        members = rng.sample(range(n), 3)
        # One or three negative edges: no two-sided split exists.
        negatives = rng.choice((1, 3))
        for i, pair in enumerate(itertools.combinations(sorted(members), 2)):
            signs[pair] = NEGATIVE if i < negatives else POSITIVE
    else:
        smallest = 2 if kind == "planted_missing_edge" else 1
        members = rng.sample(range(n), rng.randint(smallest, n))
        left = set(members) if kind == "all_positive" else {
            v for v in members if rng.random() < 0.5}
        for pair in itertools.combinations(sorted(members), 2):
            same = (pair[0] in left) == (pair[1] in left)
            signs[pair] = POSITIVE if same else NEGATIVE
        pairs = list(itertools.combinations(sorted(members), 2))
        if pairs and kind == "planted_flipped":
            for pair in rng.sample(pairs, rng.randint(1, len(pairs))):
                signs[pair] = -signs[pair]
        if kind == "planted_missing_edge":
            del signs[rng.choice(pairs)]
    graph = SignedGraph.from_signed_edges(
        n, [(u, v, sign) for (u, v), sign in signs.items()])
    return graph, members, kind


class TestSplitSidesMask:
    """:func:`split_sides_mask` against the set-based reference."""

    @given(graphs_with_subsets())
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    def test_agrees_with_split_sides(self, case):
        graph, members, kind = case
        reference = split_sides(graph, members)
        sides = split_sides_mask(graph, mask_of(members))
        if reference is None:
            assert sides is None
        else:
            assert sides == (mask_of(reference[0]), mask_of(reference[1]))
        if kind in ("single", "all_positive", "planted"):
            assert sides is not None
        if kind in ("unbalanced_triangle", "planted_missing_edge"):
            assert sides is None

    def test_figure2_sides(self, toy_figure2):
        assert split_sides_mask(toy_figure2, mask_of([0, 1, 2, 3])) == (
            mask_of([0, 1]), mask_of([2, 3]))
        assert split_sides_mask(toy_figure2, mask_of([4])) == (1 << 4, 0)
        assert split_sides_mask(toy_figure2, 0) == (0, 0)
        assert split_sides_mask(toy_figure2, mask_of([0, 4])) is None
