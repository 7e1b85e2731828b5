"""Solves read the caller's cached adjacency masks: keep them honest.

``mbc_star`` and ``pf_star`` run their preprocessing on the graph's own
lazily cached ``pos_adjacency_bits()``/``neg_adjacency_bits()``.  These
tests solve a graph, mutate the *same object* so the optimum moves,
and solve again: the answer must equal a solve of a fresh ``copy()``
(which has no cache at all).  They also pin that a solve never changes
the caller's edges or fingerprint.
"""

from __future__ import annotations

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.signed.generators import plant_balanced_clique
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

from .conftest import SOLVER_ENGINES, make_random_signed_graph

LEFT = [0, 1, 2, 3, 4]
RIGHT = [5, 6, 7, 8, 9, 10]


def _planted() -> SignedGraph:
    graph = make_random_signed_graph(40, 0.12, 0.12, seed=7)
    return plant_balanced_clique(graph, LEFT, RIGHT)


def _remove(graph: SignedGraph) -> None:
    graph.remove_edge(0, 5)


def _flip(graph: SignedGraph) -> None:
    graph.flip_sign(1, 2)


def _grow(graph: SignedGraph) -> None:
    """Complete vertex 11 into the planted clique's right side; the
    last edge (added by the mutation under test) is what lets it in."""
    for v in LEFT + RIGHT:
        if graph.has_edge(11, v):
            graph.remove_edge(11, v)
    for v in LEFT[1:]:
        graph.add_edge(11, v, NEGATIVE)
    for v in RIGHT:
        graph.add_edge(11, v, POSITIVE)


def _add(graph: SignedGraph) -> None:
    graph.add_edge(11, LEFT[0], NEGATIVE)


def _solve(graph: SignedGraph, engine: str, parallel: int) -> tuple:
    clique = mbc_star(graph, 3, engine=engine, parallel=parallel)
    beta, witness = pf_star(graph, return_witness=True, engine=engine,
                            parallel=parallel)
    return (clique.size, beta) if parallel > 1 else (clique, beta, witness)


def _edge_set(graph: SignedGraph) -> set[tuple[int, int, int]]:
    return set(graph.edges())


ENGINE_WORKERS = [(engine, 0) for engine in SOLVER_ENGINES] + [
    (engine, 2) for engine in SOLVER_ENGINES if engine != "set"]


@pytest.mark.parametrize("engine,parallel", ENGINE_WORKERS)
@pytest.mark.parametrize("prepare,mutate", [
    (None, _remove), (None, _flip), (_grow, _add)],
    ids=["remove", "flip", "add"])
def test_resolve_after_mutation_matches_fresh_copy(
        engine, parallel, prepare, mutate):
    graph = _planted()
    if prepare is not None:
        prepare(graph)
    before = _solve(graph, engine, parallel)
    mutate(graph)
    after = _solve(graph, engine, parallel)
    assert after == _solve(graph.copy(), engine, parallel)
    # The mutation really moved the optimum, so a stale mask cache
    # would have been caught.
    assert after != before
    if parallel <= 1:
        assert after[0].size != before[0].size


@pytest.mark.parametrize("engine,parallel", ENGINE_WORKERS)
@pytest.mark.parametrize("use_edge_reduction", [False, True])
def test_solve_leaves_graph_untouched(engine, parallel,
                                      use_edge_reduction):
    graph = _planted()
    edges = _edge_set(graph)
    fingerprint = graph.fingerprint()
    mbc_star(graph, 3, engine=engine, parallel=parallel,
             use_edge_reduction=use_edge_reduction)
    pf_star(graph, engine=engine, parallel=parallel)
    assert _edge_set(graph) == edges
    assert graph.num_edges == len(edges)
    assert graph.fingerprint() == fingerprint
