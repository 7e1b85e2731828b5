"""Structural tests for the benchmark harness.

Guards the (d) deliverable: every table/figure module exists, imports,
exposes a runnable ``main``, and the shared helpers behave.
"""

import importlib
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

EXPECTED_MODULES = [
    "bench_table1_stats",
    "bench_fig5_polarity",
    "bench_table23_casestudies",
    "bench_fig6_runtime",
    "bench_fig7_vary_tau",
    "bench_fig8_mdc_transform",
    "bench_table4_running_stats",
    "bench_fig9_pf_runtime",
    "bench_fig10_scalability",
    "bench_fig11_memory",
    "bench_fig12_pf_scalability",
    "bench_table5_gmbc_profile",
    "bench_fig13_gmbc_runtime",
    "bench_ablation_orderings",
    "bench_ablation_pruning",
    "bench_ablation_bounds",
]


@pytest.fixture(scope="module")
def bench_package():
    sys.path.insert(0, str(BENCH_DIR.parent))
    yield
    sys.path.remove(str(BENCH_DIR.parent))


class TestCoverageOfPaperExperiments:
    def test_all_modules_exist(self):
        names = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
        missing = set(EXPECTED_MODULES) - names
        assert not missing, f"missing benchmark modules: {missing}"

    @pytest.mark.parametrize("module", EXPECTED_MODULES)
    def test_module_importable_with_main(self, bench_package, module):
        imported = importlib.import_module(f"benchmarks.{module}")
        assert callable(getattr(imported, "main", None)), \
            f"{module} lacks a standalone main()"

    def test_design_doc_indexes_every_module(self):
        design = (BENCH_DIR.parent / "DESIGN.md").read_text(
            encoding="utf-8")
        for module in EXPECTED_MODULES:
            assert module in design, \
                f"{module} missing from DESIGN.md's experiment index"


class TestHelpers:
    def test_format_seconds(self, bench_package):
        from benchmarks._common import format_seconds

        assert format_seconds(0.0000005).endswith("us")
        assert format_seconds(0.5).endswith("ms")
        assert format_seconds(2.0) == "2.00s"

    def test_sample_vertices_fraction(self, bench_package):
        from benchmarks._common import sample_vertices
        from repro.datasets.registry import load

        graph = load("bitcoin", scale=0.3)
        sample = sample_vertices(graph, 0.5, seed=1)
        assert sample.num_vertices == graph.num_vertices // 2
        sample.validate()

    def test_sample_vertices_fraction_above_one(self, bench_package):
        # Regression: fraction > 1 used to ask random.sample for more
        # vertices than the graph has, raising ValueError; the count is
        # now clamped to n.
        from benchmarks._common import sample_vertices
        from repro.datasets.registry import load

        graph = load("bitcoin", scale=0.3)
        sample = sample_vertices(graph, 1.25, seed=3)
        assert sample.num_vertices == graph.num_vertices
        sample.validate()

    def test_sample_vertices_deterministic(self, bench_package):
        from benchmarks._common import sample_vertices
        from repro.datasets.registry import load

        graph = load("bitcoin", scale=0.3)
        a = sample_vertices(graph, 0.4, seed=7)
        b = sample_vertices(graph, 0.4, seed=7)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_print_table_alignment(self, bench_package, capsys):
        from benchmarks._common import print_table

        print_table("T", ["col", "x"], [["a", 1], ["bb", 22]])
        out = capsys.readouterr().out
        assert "T" in out
        assert "col" in out and "bb" in out
