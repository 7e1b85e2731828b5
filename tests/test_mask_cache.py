"""Solves read the caller's cached adjacency masks: keep them honest.

``mbc_star`` and ``pf_star`` run their preprocessing on the graph's own
lazily cached ``pos_adjacency_bits()``/``neg_adjacency_bits()``.  These
tests solve a graph, mutate the *same object* so the optimum moves,
and solve again: the answer must equal a solve of a fresh ``copy()``
(which has no cache at all).  They also pin that a solve never changes
the caller's edges or fingerprint.

The masks themselves stay current across edge edits (patched in
place, the same list object); vertex edits drop them.

The graph-level peels walk a third cache, the ascending neighbour
lists of ``neighbor_rows()``.  A stale row still yields the right
optimum (it only reorders the sweep), so its guards check the cache
itself: built once, dropped (the touched rows) by every mutator, never
shared by ``copy()``, and after each mutation the degeneracy order it
feeds equals the order on a fresh copy.  Both caches fill per row, on
demand; ``tests/test_rows.py`` covers what a solve asks for.
"""

from __future__ import annotations

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.reductions import degrees_inside
from repro.dynamic import random_edits
from repro.kernels.active import degeneracy_ordering_array
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


def _array_order(graph: SignedGraph) -> list[int]:
    """Degeneracy order of the whole graph, fed from its cached
    neighbour rows (the path MBC* and PF* order on)."""
    members = list(graph.vertices())
    return degeneracy_ordering_array(
        graph.neighbor_rows(), members,
        degrees_inside(graph, members, graph.all_bits()))


#: One edit per mutator.  Each edit but the sign flip moves the
#: row-fed order, so a stale row also fails the order check; the flip
#: leaves the signs-ignored adjacency alone and is caught by identity.
NEIGHBOR_MUTATORS = {
    "add_vertex": lambda g: g.add_vertex(),
    "add_edge": lambda g: g.add_edge(*next(
        (0, v) for v in g.vertices() if v and not g.has_edge(0, v)),
        NEGATIVE),
    "remove_edge": lambda g: g.remove_edge(0, 11),
    "flip_sign": _flip,
    "isolate_vertex": lambda g: g.isolate_vertex(LEFT[0]),
}


def test_edge_edits_keep_the_masks_current():
    graph = _planted()
    pos = graph.pos_adjacency_bits()
    neg = graph.neg_adjacency_bits()
    for edit in random_edits(graph, 50, seed=11):
        if edit.kind == "add":
            graph.add_edge(edit.u, edit.v, edit.sign)
        elif edit.kind == "remove":
            graph.remove_edge(edit.u, edit.v)
        else:
            graph.flip_sign(edit.u, edit.v)
        assert graph.pos_adjacency_bits() is pos
        assert graph.neg_adjacency_bits() is neg
        clone = graph.copy()
        assert pos == clone.pos_adjacency_bits()
        assert neg == clone.neg_adjacency_bits()
    # Vertex edits drop the masks: the next call builds fresh lists.
    for mutate in (NEIGHBOR_MUTATORS["add_vertex"],
                   NEIGHBOR_MUTATORS["isolate_vertex"]):
        mutate(graph)
        fresh_pos = graph.pos_adjacency_bits()
        fresh_neg = graph.neg_adjacency_bits()
        assert fresh_pos is not pos and fresh_neg is not neg
        assert fresh_pos == graph.copy().pos_adjacency_bits()
        assert fresh_neg == graph.copy().neg_adjacency_bits()
        pos, neg = fresh_pos, fresh_neg


def test_neighbor_array_is_built_once():
    graph = _planted()
    rows = graph.neighbor_rows()
    built = list(rows)
    assert graph.neighbor_rows() is rows
    assert all(a is b for a, b in zip(graph.neighbor_rows(), built))
    for v in graph.vertices():
        assert rows[v] == sorted(graph.neighbors(v))


@pytest.mark.parametrize("mutate", list(NEIGHBOR_MUTATORS.values()),
                         ids=list(NEIGHBOR_MUTATORS))
def test_every_mutator_drops_the_neighbor_array(mutate):
    graph = _planted()
    stale = list(graph.neighbor_rows())
    _array_order(graph)
    mutate(graph)
    fresh = graph.neighbor_rows()
    assert any(fresh[v] is not row for v, row in enumerate(stale))
    assert fresh == graph.copy().neighbor_rows()
    assert _array_order(graph) == _array_order(graph.copy())


def test_copy_does_not_share_the_neighbor_array():
    graph = _planted()
    rows = graph.neighbor_rows()
    snapshot = [list(row) for row in rows]
    clone = graph.copy()
    assert clone.neighbor_rows() is not rows
    assert not any(a is b for a, b in zip(clone.neighbor_rows(), rows))
    clone.isolate_vertex(LEFT[0])
    assert graph.neighbor_rows() == snapshot
    assert clone.neighbor_rows() != snapshot
