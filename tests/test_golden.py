"""Golden witnesses: exact MBC*/PF* answers on the 14 stand-ins.

``golden_witnesses.json`` pins, for every built-in dataset at scale
1.0, the clique ``mbc_star(G, 3)`` returns and the
``pf_star(G, return_witness=True)`` pair, both on the default engine.
A serial solve must reproduce them exactly — size, beta *and* the
sorted sides — so a preprocessing change that moves a tie-break shows
up here rather than as a silent witness drift.  The serial numpy engine
runs the same ego steps on mask matrices and must reproduce the same
witnesses.  The set engine may legitimately break ties differently,
and parallel fan-outs pick their witness by arrival order, so for
``engine="set"`` and ``parallel=2`` only the size and beta are pinned.

Regenerate (only for an intended witness change) with::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.datasets.registry import dataset_names, load

from .conftest import requires_numpy

GOLDEN_PATH = Path(__file__).with_name("golden_witnesses.json")
TAU = 3
SCALE = 1.0

GOLDEN = json.loads(GOLDEN_PATH.read_text())["datasets"]


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
def test_set_engine_sizes_exact(graphs, name):
    got = _answers(graphs[name], engine="set")
    assert got["mbc"]["size"] == GOLDEN[name]["mbc"]["size"]
    assert got["pf"]["beta"] == GOLDEN[name]["pf"]["beta"]


def _regenerate() -> None:
    datasets = {name: _answers(load(name, scale=SCALE))
                for name in dataset_names()}
    GOLDEN_PATH.write_text(json.dumps(
        {"tau": TAU, "scale": SCALE, "datasets": datasets},
        indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
