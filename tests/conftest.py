"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.kernels import available_engines
from repro.kernels.npmask import HAVE_NUMPY
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

#: ``HYPOTHESIS_PROFILE=stateful-10x`` runs the state machines of
#: ``tests/test_stateful.py`` with ten times the default profile's
#: examples (the CI ``dynamic`` job); tier-1 keeps the default.
settings.register_profile(
    "stateful-10x", max_examples=10 * settings.get_profile(
        "default").max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Skip marker for tests that exercise the numpy kernel backend
#: directly.  numpy is an optional extra (``pip install repro[numpy]``)
#: and ``available_engines()`` leaves it out when absent, so the
#: differential matrices (which parametrize over
#: :data:`SOLVER_ENGINES`) degrade gracefully without it.
requires_numpy = pytest.mark.skipif(
    not HAVE_NUMPY,
    reason="numpy not installed (pip install repro[numpy])")

#: Every engine that is usable in this environment — the axis the
#: differential matrices sweep.  ``set`` and ``bitset`` are always
#: present; ``numpy`` joins when numpy imports.
SOLVER_ENGINES: tuple[str, ...] = available_engines()

#: The available engines that support the parallel fan-out.
PARALLEL_ENGINES: tuple[str, ...] = tuple(
    e for e in SOLVER_ENGINES if e != "set")


def make_random_signed_graph(
    n: int,
    p_pos: float,
    p_neg: float,
    seed: int,
) -> SignedGraph:
    """Deterministic G(n, p) signed graph for tests."""
    rng = random.Random(seed)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.random()
            if roll < p_pos:
                graph.add_edge(u, v, POSITIVE)
            elif roll < p_pos + p_neg:
                graph.add_edge(u, v, NEGATIVE)
    return graph


@st.composite
def signed_graphs(
    draw,
    max_vertices: int = 10,
    min_vertices: int = 1,
) -> SignedGraph:
    """Hypothesis strategy: small random signed graphs.

    Sized so the brute-force oracle stays fast; edge signs are drawn
    per pair with tunable densities.
    """
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    graph = SignedGraph(n)
    p_pos = draw(st.floats(min_value=0.0, max_value=0.6))
    p_neg = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.random()
            if roll < p_pos:
                graph.add_edge(u, v, POSITIVE)
            elif roll < min(p_pos + p_neg, 1.0):
                graph.add_edge(u, v, NEGATIVE)
    return graph


@pytest.fixture
def toy_figure2() -> SignedGraph:
    """A Figure-2-style toy graph.

    Vertices 0..7 (the paper's v1..v8): {0, 1} and {2, 3} form a
    balanced 4-clique; {2, 3, 6, 7} vs {4, 5} form the maximum balanced
    clique for tau = 2 (size 6).
    """
    graph = SignedGraph(8)
    positive = [(0, 1), (2, 3), (4, 5), (6, 7), (2, 6), (3, 7), (2, 7),
                (3, 6)]
    negative = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4),
                (3, 5), (6, 4), (6, 5), (7, 4), (7, 5)]
    for u, v in positive:
        graph.add_edge(u, v, POSITIVE)
    for u, v in negative:
        graph.add_edge(u, v, NEGATIVE)
    return graph


@pytest.fixture
def balanced_six() -> SignedGraph:
    """A clean balanced 6-clique (3|3) plus two stray vertices."""
    graph = SignedGraph(8)
    left = [0, 1, 2]
    right = [3, 4, 5]
    for i, u in enumerate(left):
        for v in left[i + 1:]:
            graph.add_edge(u, v, POSITIVE)
    for i, u in enumerate(right):
        for v in right[i + 1:]:
            graph.add_edge(u, v, POSITIVE)
    for u in left:
        for v in right:
            graph.add_edge(u, v, NEGATIVE)
    graph.add_edge(6, 0, POSITIVE)
    graph.add_edge(7, 3, NEGATIVE)
    return graph


@pytest.fixture
def all_positive_clique() -> SignedGraph:
    """A 5-clique of purely positive edges (one side empty)."""
    graph = SignedGraph(5)
    for u in range(5):
        for v in range(u + 1, 5):
            graph.add_edge(u, v, POSITIVE)
    return graph
