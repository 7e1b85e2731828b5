"""Adjacency rows built on demand: what a solve asks for, and the guard
that makes an unasked row fail loudly.

``SignedGraph.adjacency_rows(rows)`` and ``neighbor_rows(rows)`` fill
one row at a time.  MBC* asks for its VertexReduction survivors' rows
only, PF* for its survivors' rows and the rows its heuristic growths
rank, and every other entry is an unbuilt row that raises on any use.
These tests pin that a cold solve builds no more than that, that an
unbuilt row can never be read as an empty mask or list, and that
threads filling rows of one shared graph end with the serial build.
"""

from __future__ import annotations

import copy
import operator
import pickle
import sys
import threading

import pytest

from perfbench.inputs import cold_graph
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.reductions import vertex_reduction
from repro.signed.graph import SignedGraph

from .conftest import make_random_signed_graph

COLD = [(seed, index) for seed in (0, 1) for index in range(4)]


@pytest.mark.parametrize("seed, index", COLD)
def test_mbc_star_builds_only_survivor_rows(seed, index):
    graph = cold_graph(seed, index)
    survivors = sorted(vertex_reduction(graph, 3))
    assert 0 < len(survivors) < graph.num_vertices // 10
    assert mbc_star(graph, 3) == mbc_star(graph.copy(), 3)
    assert graph.built_rows() == (survivors, survivors)


@pytest.mark.parametrize("seed, index", COLD)
def test_pf_star_builds_no_neighbor_rows_and_not_every_mask_row(
        seed, index):
    graph = cold_graph(seed, index)
    assert pf_star(graph, return_witness=True) \
        == pf_star(graph.copy(), return_witness=True)
    masks, lists = graph.built_rows()
    assert lists == []
    assert 0 < len(masks) < graph.num_vertices


def _path() -> SignedGraph:
    return SignedGraph.from_signed_edges(4, [(0, 1, 1), (1, 2, -1)])


MASK_USES = {
    "bool": bool,
    "not": operator.not_,
    "and": lambda row: row & 1,
    "rand": lambda row: 1 & row,
    "or": lambda row: row | 0,
    "ror": lambda row: 0 | row,
    "xor": lambda row: row ^ 0,
    "invert": operator.invert,
    "shift": lambda row: row >> 1,
    "rshift": lambda row: 1 << row,
    "eq": lambda row: row == 0,
    "ne": lambda row: row != 0,
    "int": int,
    "index": operator.index,
    "bit_count": lambda row: row.bit_count(),
    "to_bytes": lambda row: row.to_bytes(1, "little"),
}

LIST_USES = {
    "bool": bool,
    "len": len,
    "iter": list,
    "contains": lambda row: 0 in row,
    "getitem": lambda row: row[0],
    "eq": lambda row: row == [],
}


@pytest.mark.parametrize("use", list(MASK_USES.values()),
                         ids=list(MASK_USES))
def test_unbuilt_mask_row_raises_on_any_use(use):
    graph = _path()
    pos, neg = graph.adjacency_rows([1])
    assert (pos[1], neg[1]) == (0b1, 0b100)
    for row in (pos[0], neg[0], pos[3], neg[3]):
        with pytest.raises(LookupError, match="not built"):
            use(row)


@pytest.mark.parametrize("use", list(LIST_USES.values()),
                         ids=list(LIST_USES))
def test_unbuilt_neighbor_row_raises_on_any_use(use):
    graph = _path()
    lists = graph.neighbor_rows([1])
    assert lists[1] == [0, 2]
    for row in (lists[0], lists[3]):
        with pytest.raises(LookupError, match="not built"):
            use(row)


def test_edits_patch_built_rows_and_leave_unbuilt_ones():
    graph = _path()
    pos, neg = graph.adjacency_rows([0, 1])
    graph.neighbor_rows([0, 1, 2])
    graph.add_edge(0, 3, -1)
    graph.flip_sign(0, 1)
    assert (pos[0], neg[0]) == (0, 0b1010)
    assert (pos[1], neg[1]) == (0, 0b101)
    # The edits drop the edited endpoints' neighbour rows only.
    assert graph.built_rows() == ([0, 1], [2])
    graph.validate()
    assert graph.adjacency_rows() == graph.copy().adjacency_rows()
    assert graph.neighbor_rows() == graph.copy().neighbor_rows()


def test_pickled_graph_keeps_its_unbuilt_rows_unbuilt():
    graph = _path()
    graph.adjacency_rows([1])
    graph.neighbor_rows([2])
    for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert clone.built_rows() == ([1], [2])
        assert clone.adjacency_rows() == graph.copy().adjacency_rows()
        assert clone.neighbor_rows() == graph.copy().neighbor_rows()


def test_threads_fill_rows_of_a_shared_graph():
    base = make_random_signed_graph(400, 0.05, 0.03, seed=3)
    n = base.num_vertices
    serial = base.copy()
    expected = serial.adjacency_rows(), serial.neighbor_rows()
    # Eight overlapping windows, every other one walked backwards,
    # which together cover every vertex.
    windows = [range(max(0, k * n // 8 - n // 16),
                     min(n, (k + 1) * n // 8 + n // 16))
               for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph = base.copy()
            barrier = threading.Barrier(len(windows))

            def fill(rows: range, forward: bool) -> None:
                order = rows if forward else rows[::-1]
                barrier.wait()
                graph.adjacency_rows(order)
                graph.neighbor_rows(order)

            threads = [threading.Thread(target=fill, args=(rows, k % 2 == 0))
                       for k, rows in enumerate(windows)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert graph.built_rows() == (list(range(n)), list(range(n)))
            graph.validate()
            assert (graph.adjacency_rows(), graph.neighbor_rows()) \
                == expected
    finally:
        sys.setswitchinterval(interval)
