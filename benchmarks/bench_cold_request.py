"""Where a cold inline ``/solve`` request spends its CPU, stage by stage
(a system measurement beyond the paper; EXPERIMENTS.md, "Rows on
demand").

``serve_mixed`` sends 20% of its requests as cold inline graphs:
``perfbench.inputs.cold_graph(seed, i)`` (n = 1,000, m ~ 4,100, a
planted balanced clique) posted as one ``u v sign`` text blob, mbc
for even ``i`` and pf for odd ``i``, tau 3.  This script runs the
daemon's own request steps on such bodies in process, with no socket
and no event loop, and times each with ``time.process_time``:

* **decode**: ``parse_json_body`` on the encoded body;
* **parse**: ``parse_solve_request`` and the inline graph's read
  (``SolverService.resolve_graph``);
* **fingerprint**: the first ``graph.fingerprint()`` (the cache key);
* **solve**: ``SolverService.execute``, the solve and its payload.

Each graph also reports the adjacency rows its solve built: mask rows
and neighbour rows, out of n (``SignedGraph.built_rows``; ``-`` on a
tree whose graphs build every row at once).  Printed per problem: the
mean ms of each stage and of the total, and the mean rows built; then
one line over every request.

Run (about a second per 40 graphs on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/bench_cold_request.py \\
        --seed 0 --graphs 40 --repeats 3

Each request is timed ``--repeats`` times on a freshly read graph and
the fastest pass per stage kept, which filters scheduler noise.  The
bodies come from ``perfbench/inputs.py`` of the same checkout, so
pointing ``PYTHONPATH`` at another tree's ``src`` times that tree on
identical bodies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.serve.protocol import parse_json_body, parse_solve_request
from repro.serve.service import SolverService

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.common import TAU  # noqa: E402
from perfbench.inputs import PROBLEMS, cold_graph, edge_text  # noqa: E402

STAGES = ("decode", "parse", "fingerprint", "solve")


def cold_body(seed: int, index: int) -> "tuple[str, bytes]":
    """The problem and encoded ``/solve`` body of cold graph
    ``index``, as ``serve_mixed`` sends them."""
    problem = PROBLEMS[index % 2]
    body = json.dumps({"graph": {"edges": edge_text(cold_graph(seed, index))},
                       "problem": problem, "tau": TAU}).encode()
    return problem, body


def time_request(service: SolverService,
                 body: bytes) -> "tuple[dict, tuple | None]":
    """One cold request's per-stage process CPU in ms, and the rows
    its solve built as ``(mask rows, neighbour rows, n)`` (``None``
    for a graph without ``built_rows``)."""
    ms: "dict[str, float]" = {}
    start = time.process_time()
    payload = parse_json_body(body)
    mark = time.process_time()
    ms["decode"] = (mark - start) * 1e3
    request = parse_solve_request(payload)
    graph, registered = service.resolve_graph(request.graph)
    start, mark = mark, time.process_time()
    ms["parse"] = (mark - start) * 1e3
    graph.fingerprint()
    start, mark = mark, time.process_time()
    ms["fingerprint"] = (mark - start) * 1e3
    service.execute(request, graph, registered, None)
    ms["solve"] = (time.process_time() - mark) * 1e3
    if not hasattr(graph, "built_rows"):
        return ms, None
    masks, neighbors = graph.built_rows()
    return ms, (len(masks), len(neighbors), graph.num_vertices)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--graphs", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    service = SolverService()
    bodies = [cold_body(args.seed, i) for i in range(args.graphs)]
    rows: "dict[str, list]" = {problem: [] for problem in PROBLEMS}
    for problem, body in bodies:
        passes = [time_request(service, body) for _ in range(args.repeats)]
        best = {stage: min(ms[stage] for ms, _ in passes)
                for stage in STAGES}
        rows[problem].append((best, passes[0][1]))

    header = ("problem", "graphs", *STAGES, "total", "mask rows",
              "nbr rows", "n")
    print(" | ".join(header))
    everything = [row for problem in PROBLEMS for row in rows[problem]]
    for label, group in [*((p, rows[p]) for p in PROBLEMS),
                         ("all", everything)]:
        if not group:
            continue
        means = [statistics.fmean(best[stage] for best, _ in group)
                 for stage in STAGES]
        if group[0][1] is None:
            built = ["-"] * 3
        else:
            built = [f"{statistics.fmean(counts[i] for _, counts in group):.0f}"
                     for i in range(3)]
        print(" | ".join([label, str(len(group)),
                          *(f"{value:.2f}" for value in means),
                          f"{sum(means):.2f}", *built]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
