"""Golden witnesses: exact MBC*/PF* answers on the 14 stand-ins.

``golden_witnesses.json`` pins, for every built-in dataset at scale
1.0, the clique ``mbc_star(G, 3)`` returns and the
``pf_star(G, return_witness=True)`` pair, both on the default engine.
A serial solve must reproduce them exactly — size, beta *and* the
sorted sides — so a preprocessing change that moves a tie-break shows
up here rather than as a silent witness drift.  The serial numpy engine
runs the same ego steps on mask matrices and must reproduce the same
witnesses.  Every stand-in sits below the pool gate
(:func:`repro.parallel.engine.pool_pays`), so ``parallel=2`` runs the
serial sweep and must reproduce them too, counters included, without
a ``fanout`` or ``round`` span.  The set engine may legitimately break
ties differently, so for ``engine="set"`` only the size and beta are
pinned.

``PINNED_COUNTERS`` pins the serial bitset :class:`SearchStats` of
both solvers on four stand-ins: examined vertices, launched instances,
search nodes and the Table IV reduction samples.  A prune that moves
before the network build (or any other preprocessing change) must
leave every solved instance as it was, so these do not move either.

Regenerate (only for an intended witness change) with::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.stats import SearchStats
from repro.datasets.registry import dataset_names, load
from repro.obs import get_tracer

from .conftest import requires_numpy

GOLDEN_PATH = Path(__file__).with_name("golden_witnesses.json")
TAU = 3
SCALE = 1.0

GOLDEN = json.loads(GOLDEN_PATH.read_text())["datasets"]

#: ``(dataset, problem) -> (vertices_examined, instances, nodes,
#: sum of SR1 samples, sum of SR2 samples)``; one sample per instance.
PINNED_COUNTERS = {
    ("bitcoin", "mbc"): (161, 12, 104, 4.365275577, 5.18658434),
    ("bitcoin", "pf"): (152, 3, 24, 0.739304813, 1.601604278),
    ("douban", "mbc"): (114, 6, 148, 1.116053619, 1.949491238),
    ("douban", "pf"): (0, 0, 0, 0.0, 0.0),
    ("sn1", "mbc"): (2396, 22, 157, 4.385690833, 5.215423787),
    ("sn1", "pf"): (2266, 2, 18, 0.0, 0.0),
    ("tripadvisor", "mbc"): (0, 0, 0, 0.0, 0.0),
    ("tripadvisor", "pf"): (70, 25, 900, 0.0, 0.0),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: load(name, scale=SCALE) for name in dataset_names()}


def _answers(graph, parallel: int = 0, engine: str = "bitset") -> dict:
    clique = mbc_star(graph, TAU, parallel=parallel, engine=engine)
    beta, witness = pf_star(graph, return_witness=True, parallel=parallel,
                            engine=engine)
    return {
        "mbc": {"size": clique.size, "left": sorted(clique.left),
                "right": sorted(clique.right)},
        "pf": {"beta": beta, "left": sorted(witness.left),
               "right": sorted(witness.right)},
    }


def test_fixture_covers_every_dataset():
    assert sorted(GOLDEN) == sorted(dataset_names())


@pytest.mark.parametrize("name", dataset_names())
def test_serial_witnesses_exact(graphs, name):
    assert _answers(graphs[name]) == GOLDEN[name]


@requires_numpy
@pytest.mark.parametrize("name", dataset_names())
def test_numpy_serial_witnesses_exact(graphs, name):
    assert _answers(graphs[name], engine="numpy") == GOLDEN[name]


@pytest.mark.parametrize("name", dataset_names())
def test_parallel_sizes_exact(graphs, name):
    got = _answers(graphs[name], parallel=2)
    assert got["mbc"]["size"] == GOLDEN[name]["mbc"]["size"]
    assert got["pf"]["beta"] == GOLDEN[name]["pf"]["beta"]


@pytest.mark.parametrize("name", dataset_names())
def test_parallel_witnesses_exact(graphs, name):
    assert _answers(graphs[name], parallel=2) == GOLDEN[name]


@pytest.mark.parametrize("name", dataset_names())
def test_parallel_below_gate_runs_the_serial_sweep(graphs, name):
    graph = graphs[name]
    for problem in ("mbc", "pf"):
        serial, fanned = SearchStats(), SearchStats()
        tracer = get_tracer(True)
        if problem == "mbc":
            mbc_star(graph, TAU, stats=serial)
            mbc_star(graph, TAU, stats=fanned, parallel=2, trace=tracer)
        else:
            pf_star(graph, stats=serial)
            pf_star(graph, stats=fanned, parallel=2, trace=tracer)
        assert fanned == serial, problem
        names = {record["name"] for record in tracer.records}
        assert not names & {"fanout", "round"}, problem


@pytest.mark.parametrize("name", dataset_names())
def test_set_engine_sizes_exact(graphs, name):
    got = _answers(graphs[name], engine="set")
    assert got["mbc"]["size"] == GOLDEN[name]["mbc"]["size"]
    assert got["pf"]["beta"] == GOLDEN[name]["pf"]["beta"]


@pytest.mark.parametrize("name,problem", sorted(PINNED_COUNTERS))
def test_serial_search_counters_pinned(graphs, name, problem):
    stats = SearchStats()
    if problem == "mbc":
        mbc_star(graphs[name], TAU, stats=stats)
    else:
        pf_star(graphs[name], stats=stats)
    examined, instances, nodes, sr1, sr2 = PINNED_COUNTERS[name, problem]
    assert (stats.vertices_examined, stats.instances, stats.nodes) \
        == (examined, instances, nodes)
    assert len(stats.sr1_samples) == len(stats.sr2_samples) == instances
    assert sum(stats.sr1_samples) == pytest.approx(sr1, abs=1e-8)
    assert sum(stats.sr2_samples) == pytest.approx(sr2, abs=1e-8)


def _regenerate() -> None:
    datasets = {name: _answers(load(name, scale=SCALE))
                for name in dataset_names()}
    GOLDEN_PATH.write_text(json.dumps(
        {"tau": TAU, "scale": SCALE, "datasets": datasets},
        indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
