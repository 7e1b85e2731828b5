"""Figure 6 — running time on all graphs for maximum balanced clique
detection (tau = 3).

Four algorithms per dataset, as in the paper:

* ``MBC``        — enumeration baseline with EdgeReduction;
* ``MBC-noER``   — baseline without EdgeReduction;
* ``MBC*-withER``— MBC* burdened with EdgeReduction;
* ``MBC*``       — the paper's algorithm.

Shape expectations: MBC* is fastest; EdgeReduction helps MBC but is a
net overhead for MBC*.  Wall-clock and search-node counts are printed;
nodes are the scale-independent effort measure (see EXPERIMENTS.md).
"""

import pytest

from repro.core.mbc_baseline import mbc_baseline
from repro.core.mbc_star import mbc_star
from repro.core.stats import SearchStats

try:
    from ._common import ALL_DATASETS, DEFAULT_TAU, bench_graph, \
        format_seconds, print_table, run_once, timed
except ImportError:
    from _common import ALL_DATASETS, DEFAULT_TAU, bench_graph, \
        format_seconds, print_table, run_once, timed

ALGORITHMS = {
    "MBC": lambda g, s: mbc_baseline(
        g, DEFAULT_TAU, use_edge_reduction=True, stats=s),
    "MBC-noER": lambda g, s: mbc_baseline(
        g, DEFAULT_TAU, use_edge_reduction=False, stats=s),
    "MBC*-withER": lambda g, s: mbc_star(
        g, DEFAULT_TAU, use_edge_reduction=True, stats=s),
    "MBC*": lambda g, s: mbc_star(g, DEFAULT_TAU, stats=s),
}


def figure6_row(name: str) -> list[object]:
    graph = bench_graph(name)
    row: list[object] = [name]
    sizes = set()
    for label, solver in ALGORITHMS.items():
        stats = SearchStats()
        clique, seconds = timed(lambda: solver(graph, stats))
        sizes.add(clique.size)
        row.append(f"{format_seconds(seconds)}/{stats.nodes}n")
    assert len(sizes) == 1, f"solvers disagree on {name}: {sizes}"
    return row


@pytest.mark.parametrize("name", ALL_DATASETS)
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_fig6_runtime(benchmark, name, algorithm):
    graph = bench_graph(name)
    solver = ALGORITHMS[algorithm]
    clique = run_once(
        benchmark, lambda: solver(graph, SearchStats()))
    assert clique.is_empty or clique.satisfies(DEFAULT_TAU)


def main() -> None:
    rows = [figure6_row(name) for name in ALL_DATASETS]
    print_table(
        "Figure 6 — MBC detection runtime (tau=3), time/search-nodes",
        ["dataset", *ALGORITHMS],
        rows)


if __name__ == "__main__":
    main()
