"""Fingerprint cost — priming and per-edit upkeep of
:meth:`repro.signed.graph.SignedGraph.fingerprint` (a system
measurement beyond the paper; EXPERIMENTS.md, "Cold ingest").

Three rows, each in process CPU time (``time.process_time``):

* ``prime cold`` — the first ``fingerprint()`` of a fresh copy of each
  of ten Chung-Lu graphs shaped like ``serve_mixed``'s cold inline
  graphs (n = 1,000, m = 4,000, 20% negative), per graph;
* ``prime stand-ins`` — the same on the 14 stand-ins at scale 1.0;
* ``flip + fingerprint`` — on a primed copy of douban, one
  ``flip_sign`` of a seeded existing edge followed by
  ``fingerprint()``, per edit (the upkeep a resident graph pays per
  edit).

Each row reports the median and the range over ``--repeats`` rounds;
a round's value is the mean per graph (per edit for the flip row).
The process-wide fingerprint keys are built by an untimed warm-up, as
in a daemon that has already primed a graph.

Run (about half a minute on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/bench_fingerprint.py --repeats 5
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.datasets.registry import dataset_names, load
from repro.signed.generators import chung_lu_signed_graph
from repro.signed.graph import SignedGraph

try:
    from ._common import print_table
except ImportError:
    from _common import print_table

#: Flips timed per round of the ``flip + fingerprint`` row.
FLIPS = 5000


def _prime_ms(graphs: "list[SignedGraph]") -> float:
    """Mean ms of a first ``fingerprint()`` over fresh copies."""
    total = 0.0
    for graph in graphs:
        fresh = graph.copy()
        started = time.process_time()
        fresh.fingerprint()
        total += time.process_time() - started
    return total / len(graphs) * 1000


def _flip_us(graph: SignedGraph, picks: "list[tuple[int, int]]") -> float:
    """Mean us of ``flip_sign`` + ``fingerprint()`` per edit."""
    started = time.process_time()
    for u, v in picks:
        graph.flip_sign(u, v)
        graph.fingerprint()
    return (time.process_time() - started) / len(picks) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    cold = [chung_lu_signed_graph(1000, 4000, neg_ratio=0.2, seed=seed)
            for seed in range(10)]
    stand_ins = [load(name) for name in dataset_names()]
    douban = load("douban").copy()
    douban.fingerprint()
    rng = random.Random(0)
    edges = sorted((u, v) for u, v, _ in douban.edges())
    picks = [rng.choice(edges) for _ in range(FLIPS)]
    largest = max(graph.num_vertices for graph in stand_ins)
    SignedGraph.from_signed_edges(
        largest, [(0, largest - 1, 1)]).fingerprint()  # warm-up

    rows = {"prime cold (ms/graph)": [],
            "prime stand-ins (ms/graph)": [],
            "flip + fingerprint (us/edit)": []}
    for _ in range(args.repeats):
        rows["prime cold (ms/graph)"].append(_prime_ms(cold))
        rows["prime stand-ins (ms/graph)"].append(_prime_ms(stand_ins))
        rows["flip + fingerprint (us/edit)"].append(
            _flip_us(douban, picks))
    print_table(
        f"Fingerprint cost ({args.repeats} rounds)",
        ["stage", "median", "min", "max"],
        [(name, f"{statistics.median(values):.2f}",
          f"{min(values):.2f}", f"{max(values):.2f}")
         for name, values in rows.items()])


if __name__ == "__main__":
    main()
