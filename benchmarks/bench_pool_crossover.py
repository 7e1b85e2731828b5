"""Pool crossover — where a process pool starts to beat the serial sweep
(a system measurement beyond the paper; EXPERIMENTS.md, "Pool
crossover").

For each case and problem (``mbc_star(G, 3)`` and ``pf_star(G)``) the
script prints the pool gate's work estimate and the median wall clock
of three ways to run the ego sweep:

* ``serial`` — ``parallel=0``;
* ``in-process`` — ``parallel=2`` with the gate forced open and no
  start method, so the fan-out's chunk runners run in the parent;
* ``pooled`` — ``parallel=2`` with the gate forced open: a real pool.

The three take turns going first, and each timed solve starts after a
``gc.collect()``.  Each case is generated once for both problems and
dropped before the next, so the process a pool forks holds one case.

The estimate is ``sum(cost^2)`` over the task candidate counts that
:func:`repro.parallel.engine.pool_pays` sees, read from the ``work``
attribute of the solve's ``ordering`` span.  That first, untimed
solve also builds the graph's cached masks, so no timed solve pays for
them.  ``MIN_POOL_WORK`` belongs between the largest estimate where
the pool loses and the smallest where it wins; where no case wins,
the table says so and the gate stays above every case measured.  The
cases are the 14 stand-ins at scale 1.0, four of them at scale 3.0,
sn1 and sn2 at scales 4.5 and 6.0, sn2 at 9.0 and 12.0, and a
generated graph with n = 10^5 (``chung-lu``, see
:func:`chung_lu_case`).  A second
table sums each solver over the 14 stand-ins under the shipped gate,
serial against ``parallel=2`` and ``parallel=4``.

Run (about ten minutes and 1.7 GB on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/bench_pool_crossover.py --repeats 5
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.datasets import registry
from repro.datasets.registry import dataset_names, load
from repro.obs import get_tracer
from repro.parallel import dispatch as dispatch_module
from repro.parallel import engine as engine_module
from repro.signed.generators import chung_lu_signed_graph, \
    plant_balanced_clique
from repro.signed.graph import SignedGraph

try:
    from ._common import DEFAULT_TAU, print_table
except ImportError:
    from _common import DEFAULT_TAU, print_table

#: Name of the generated n = 10^5 case (not a registry dataset).
CHUNG_LU = "chung-lu"

#: ``(dataset, scale)`` cases past the stand-ins, towards the crossover.
LARGER_CASES = [("sn1", 3.0), ("sn2", 3.0), ("wikiconflict", 3.0),
                ("tripadvisor", 3.0), ("sn1", 4.5), ("sn2", 4.5),
                ("sn1", 6.0), ("sn2", 6.0), ("sn2", 9.0), ("sn2", 12.0),
                (CHUNG_LU, 1.0)]

#: The three ways to run a sweep: ``(parallel, forced start method,
#: gate forced open)``.
MODES = {
    "serial": (0, None, False),
    "in-process": (2, "none", True),
    "pooled": (2, None, True),
}


@contextmanager
def gate(open_: bool, start_method: str | None) -> Iterator[None]:
    """Force the pool gate open (or shut) and the start method."""
    saved = (engine_module.MIN_POOL_TASKS, engine_module.MIN_POOL_WORK,
             dispatch_module.FORCE_START_METHOD)
    threshold = 0 if open_ else 1 << 62
    engine_module.MIN_POOL_TASKS = threshold
    engine_module.MIN_POOL_WORK = threshold
    dispatch_module.FORCE_START_METHOD = start_method
    try:
        yield
    finally:
        (engine_module.MIN_POOL_TASKS, engine_module.MIN_POOL_WORK,
         dispatch_module.FORCE_START_METHOD) = saved


def chung_lu_case() -> SignedGraph:
    """The n = 10^5 graph of EXPERIMENTS.md's "Prune before build": a
    signed Chung-Lu graph (n = 100,000, m = 500,190) with a balanced
    8 + 12 clique planted on 20 vertices drawn by ``random.Random(7)``."""
    graph = chung_lu_signed_graph(100_000, 500_000, neg_ratio=0.3, seed=7)
    members = random.Random(7).sample(range(100_000), 20)
    return plant_balanced_clique(graph, members[:8], members[8:])


def build(name: str, scale: float) -> SignedGraph:
    return chung_lu_case() if name == CHUNG_LU else load(name, scale=scale)


def solve(problem: str, graph: SignedGraph, parallel: int,
          trace=None) -> int:
    """One solve; returns the optimum (clique size or beta)."""
    if problem == "mbc":
        return mbc_star(graph, DEFAULT_TAU, parallel=parallel,
                        trace=trace).size
    return pf_star(graph, parallel=parallel, trace=trace)


def estimate(problem: str, graph: SignedGraph) -> int:
    """The gate's work estimate (0 when the solve ends before the
    sweep, e.g. on an empty core)."""
    tracer = get_tracer(True)
    with gate(False, None):
        solve(problem, graph, 2, tracer)
    return sum(record["attrs"].get("work", 0)
               for record in tracer.records
               if record["name"] == "ordering")


def rotated(items: list, repeat: int) -> list:
    """``items`` starting at ``repeat``: each way to run goes first in
    turn, so drift between repeats does not favour one of them."""
    shift = repeat % len(items)
    return items[shift:] + items[:shift]


def timed_ms(fn: Callable[[], int]) -> "tuple[int, float]":
    gc.collect()
    started = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - started) * 1000.0


def crossover_row(problem: str, name: str, scale: float,
                  graph: SignedGraph, repeats: int) -> list[object]:
    work = estimate(problem, graph)
    times: "dict[str, list[float]]" = {mode: [] for mode in MODES}
    answers = set()
    for repeat in range(repeats):
        for mode in rotated(list(MODES), repeat):
            parallel, method, forced = MODES[mode]
            with gate(forced, method):
                value, ms = timed_ms(
                    lambda: solve(problem, graph, parallel))
            answers.add(value)
            times[mode].append(ms)
    assert len(answers) == 1, f"{problem} {name}: modes disagree"
    medians = {mode: statistics.median(ts) for mode, ts in times.items()}
    return [problem, name, f"{scale:g}", work,
            *(f"{medians[mode]:.1f}" for mode in MODES),
            f"{medians['serial'] / medians['pooled']:.2f}x"]


def totals_rows(repeats: int) -> list[list[object]]:
    """Per solver, the 14-stand-in total under the shipped gate."""
    graphs = [load(name) for name in dataset_names()]
    rows = []
    for problem in ("mbc", "pf"):
        totals: "dict[int, list[float]]" = {0: [], 2: [], 4: []}
        for repeat in range(repeats):
            for runs in totals.values():
                runs.append(0.0)
            for graph in graphs:
                for parallel in rotated(list(totals), repeat):
                    totals[parallel][-1] += timed_ms(
                        lambda: solve(problem, graph, parallel))[1]
        serial = statistics.median(totals[0])
        rows.append([problem, *(
            f"{statistics.median(runs):.0f} ms "
            f"({serial / statistics.median(runs):.2f}x)"
            for runs in totals.values())])
    return rows


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    cases = [(name, 1.0) for name in dataset_names()] + LARGER_CASES
    rows: "dict[str, list[list[object]]]" = {"mbc": [], "pf": []}
    for name, scale in cases:
        graph = build(name, scale)
        for problem, problem_rows in rows.items():
            problem_rows.append(
                crossover_row(problem, name, scale, graph, args.repeats))
        # Drop the case before the next one: a pool forks the whole
        # parent, so graphs kept alive would slow every later fork.
        del graph
        registry._generate.cache_clear()
    print_table(
        f"Pool crossover (median of {args.repeats}, ms; speedup = "
        f"serial / pooled)",
        ["solver", "dataset", "scale", "estimate", *MODES, "speedup"],
        rows["mbc"] + rows["pf"])
    print_table(
        f"14 stand-ins under the shipped gate (median of "
        f"{args.repeats} totals)",
        ["solver", "serial", "parallel=2", "parallel=4"],
        totals_rows(args.repeats))


if __name__ == "__main__":
    main()
