"""Resident reads on the ``serve_stream`` edit feed, replayed in process
(a system measurement beyond the paper; EXPERIMENTS.md, "Witness
re-check on masks").

One :class:`~repro.dynamic.DynamicSolver` holds douban at tau 3, as a
``serve_stream`` daemon's registered graph does, warmed by the same
``solve()``/``beta()`` pairs.  Each seed replays the writer's edit
feed (``perfbench.inputs.edit_feed``: scripts of 5 seeded edits, each
undoing the previous batch) and after every script asks the read the
``serve_stream`` reader would ask next (``perfbench.inputs.
reader_problems``: three ``solve()`` for every ``beta(return_witness
=True)``).  No HTTP, no daemon: the rows time the solver alone.

Printed per seed:

* read latency p50 and p99 in ms (``time.perf_counter`` around the
  ``solve()`` or ``beta()`` call, nearest-rank over all reads);
* a SHA-256 over every answer (problem, size or factor, both sides,
  status): two source trees that print the same digest answered every
  read identically.  ``--dump PATH`` also writes the answers as JSON
  lines, one per read, for a diff.

``--micro`` adds the per-witness cost of re-checking every witness
cached in the solve and gamma caches at the end of the last seed:
``BalancedClique.from_vertices`` (the set-based reference,
O(|C|^2) ``sign()`` probes) against ``split_sides_mask`` (O(|C|) mask
compares), mean us per witness over ``--micro-repeats`` calls each.

Run (about a second per 500-script seed on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/bench_stream_replay.py \\
        --seeds 5 6 7 --scripts 500 --micro

The feed comes from ``perfbench/inputs.py`` of the same checkout, so
pointing ``PYTHONPATH`` at another tree's ``src`` replays the identical
feed against that tree's solver.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from repro.core.result import BalancedClique
from repro.datasets.registry import load
from repro.dynamic import DynamicSolver, apply_edit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.common import SCALE, TAU, percentile  # noqa: E402
from perfbench.inputs import edit_feed, reader_problems  # noqa: E402
from perfbench.serve import EDITS_PER_BATCH, STREAM_DATASET  # noqa: E402

try:
    from ._common import print_table
except ImportError:
    from _common import print_table


def _answer(solver: DynamicSolver, problem: str) -> "tuple[dict, float]":
    """One read and its latency in ms, as the daemon would answer it."""
    started = time.perf_counter()
    if problem == "pf":
        outcome = solver.beta(return_witness=True)
        assert isinstance(outcome, tuple)
        value, clique = outcome
        status = "optimal"
    else:
        result = solver.solve()
        value, clique = result.clique.size, result.clique
        status = result.status.value
    elapsed = (time.perf_counter() - started) * 1000
    return {"problem": problem, "value": value,
            "left": sorted(clique.left), "right": sorted(clique.right),
            "status": status}, elapsed


def replay(seed: int, scripts: int,
           ) -> "tuple[DynamicSolver, list[dict], list[float]]":
    """Replay one seed's feed; the solver, answers and latencies."""
    base = load(STREAM_DATASET, scale=SCALE).copy()
    feed = edit_feed(base, seed, scripts, EDITS_PER_BATCH)
    solver = DynamicSolver(base, TAU)
    for _ in range(2):
        solver.solve()
        solver.beta()
    problems = reader_problems(seed)
    answers: "list[dict]" = []
    latencies: "list[float]" = []
    for index, script in enumerate(feed):
        for edit in script:
            apply_edit(solver, edit)
        answer, elapsed = _answer(solver, next(problems))
        answers.append({"seed": seed, "script": index, **answer})
        latencies.append(elapsed)
    return solver, answers, latencies


def _cached_witnesses(solver: DynamicSolver) -> "list[BalancedClique]":
    entries = list(solver._entries) + list(solver._gamma or [])
    return [entry.witness for entry in entries
            if entry.witness is not None]


def micro(solver: DynamicSolver, repeats: int) -> "list[tuple]":
    """Per-witness re-check cost, reference against mask check."""
    # Imported here so the replay also runs against trees without it.
    from repro.core.balance import split_sides_mask
    from repro.kernels.bitset import mask_of

    graph = solver.graph
    witnesses = _cached_witnesses(solver)
    reference, masked = [], []
    for witness in witnesses:
        vertices = witness.vertices
        started = time.perf_counter()
        for _ in range(repeats):
            BalancedClique.from_vertices(graph, vertices)
        reference.append((time.perf_counter() - started) / repeats)
        started = time.perf_counter()
        for _ in range(repeats):
            split_sides_mask(graph, mask_of(vertices))
        masked.append((time.perf_counter() - started) / repeats)
    sizes = [witness.size for witness in witnesses]
    return [
        ("witnesses", len(witnesses), ""),
        ("members (mean / max)", f"{statistics.mean(sizes):.1f}",
         f"{max(sizes)}"),
        ("from_vertices (us, mean / median)",
         f"{statistics.mean(reference) * 1e6:.1f}",
         f"{statistics.median(reference) * 1e6:.1f}"),
        ("split_sides_mask (us, mean / median)",
         f"{statistics.mean(masked) * 1e6:.1f}",
         f"{statistics.median(masked) * 1e6:.1f}"),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[5, 6, 7])
    parser.add_argument("--scripts", type=int, default=500)
    parser.add_argument("--dump", type=Path, default=None)
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--micro-repeats", type=int, default=50)
    args = parser.parse_args()

    rows = []
    dumped: "list[dict]" = []
    solver = None
    for seed in args.seeds:
        solver, answers, latencies = replay(seed, args.scripts)
        digest = hashlib.sha256(
            json.dumps(answers, sort_keys=True).encode()).hexdigest()
        rows.append((seed, len(latencies),
                     f"{percentile(latencies, 0.5):.3f}",
                     f"{percentile(latencies, 0.99):.3f}",
                     digest[:16]))
        dumped += answers
    print_table(
        f"serve_stream feed on {STREAM_DATASET}, in process "
        f"({args.scripts} scripts per seed)",
        ["seed", "reads", "p50 ms", "p99 ms", "answers sha256"], rows)
    if args.dump is not None:
        args.dump.write_text(
            "".join(json.dumps(a, sort_keys=True) + "\n" for a in dumped))
    if args.micro and solver is not None:
        print_table(
            f"Witness re-check on the final state "
            f"({args.micro_repeats} calls each)",
            ["quantity", "value", ""], micro(solver, args.micro_repeats))


if __name__ == "__main__":
    main()
