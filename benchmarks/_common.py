"""Shared helpers for the benchmark suite.

Every benchmark module regenerates one table or figure of the paper's
evaluation (Section VI).  Conventions:

* modules are pytest-benchmark targets *and* standalone scripts
  (``python benchmarks/bench_fig6_runtime.py`` prints the paper-style
  rows);
* dataset scale is controlled by ``REPRO_BENCH_SCALE`` (default 1.0 —
  the stand-in sizes of Table I); drop it to 0.3 for a quick pass;
* timings are wall-clock single runs (the paper measures wall-clock of
  one execution); alongside seconds we report **search nodes**, the
  machine-independent effort metric — at Python scale the wall-clock
  ratios between algorithms are compressed, while node ratios retain
  the paper's orders of magnitude (see EXPERIMENTS.md);
* solvers run on their default engine, as the CLI does; compare
  engines through the library's ``engine=`` argument;
* ``REPRO_TRACE=trace.jsonl`` installs an ambient :mod:`repro.obs`
  tracer for the whole benchmark process and writes the merged span
  stream to the named file at exit (``docs/OBSERVABILITY.md``), so any
  figure script doubles as a profiling run without code changes.
"""

from __future__ import annotations

import atexit
import os
import random
import time
from typing import Callable, Iterable, Sequence

from repro.datasets.registry import dataset_names, load
from repro.obs import get_tracer, install_tracer, write_jsonl
from repro.signed.graph import SignedGraph

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: All 14 stand-ins, Table I order.
ALL_DATASETS = dataset_names()

#: The pair used for scalability studies (Figures 10 and 12).
SCALABILITY_DATASETS = ["dblp", "douban"]

#: Default polarization threshold of the paper's experiments.
DEFAULT_TAU = 3

#: ``REPRO_TRACE=path.jsonl`` traces the whole benchmark process.
TRACE_PATH = os.environ.get("REPRO_TRACE")


def _install_bench_tracer(path: str) -> None:
    tracer = get_tracer(True)
    install_tracer(tracer)

    def _flush() -> None:
        install_tracer(None)
        lines = write_jsonl(tracer, path)
        print(f"trace: {path} ({lines} events)")

    atexit.register(_flush)


if TRACE_PATH:
    _install_bench_tracer(TRACE_PATH)


def bench_graph(name: str) -> SignedGraph:
    """Load a stand-in at the benchmark scale."""
    return load(name, scale=BENCH_SCALE)


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """Run ``fn`` once, returning ``(result, seconds)``."""
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def sample_vertices(
    graph: SignedGraph, fraction: float, seed: int = 0
) -> SignedGraph:
    """Induced subgraph on a random vertex sample (Figures 10/12)."""
    rng = random.Random(seed)
    n = graph.num_vertices
    count = min(max(int(n * fraction), 1), n)
    chosen = rng.sample(range(n), count)
    sub, _mapping = graph.subgraph(chosen)
    return sub


def format_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Print an aligned text table (the bench's paper-style output)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print()
    print(title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def run_once(benchmark, fn: Callable[[], object]) -> object:
    """Measure ``fn`` with pytest-benchmark using a single round.

    The underlying workloads are deterministic whole-algorithm runs
    taking between milliseconds and seconds, so one round is both
    representative and keeps the full suite's runtime bounded.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
