"""Tests for repro.analysis — the AST invariant linter.

Three layers:

* framework unit tests (pragmas, module-name derivation, findings,
  reporters, CLI exit codes);
* one fixture triple per rule — a known-bad snippet the rule must
  fire on, the same snippet silenced with ``# repro: noqa RXXX``, and
  a clean snippet it must stay quiet on;
* the self-check: ``repro lint src/`` over this very repository must
  report nothing (the repo is its own largest fixture).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    RULES_BY_ID,
    Finding,
    JSON_SCHEMA_VERSION,
    build_program,
    lint_paths,
    lint_source,
    lint_sources,
    parse_pragmas,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import (
    ModuleInfo,
    _module_name_for,
    iter_python_files,
    load_module,
)
from repro.analysis.program import call_passes_kwarg
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
BENCHMARKS = str(REPO_ROOT / "benchmarks")


def rule_hits(source: str, module: str, rule_id: str) -> list[Finding]:
    """Findings of one rule on an in-memory snippet."""
    return [f for f in lint_source(source, module=module)
            if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# framework


class TestPragmas:
    def test_blanket(self):
        table = parse_pragmas("x = 1  # repro: noqa\ny = 2\n")
        assert table.is_suppressed(1, "R001")
        assert table.is_suppressed(1, "R999")
        assert not table.is_suppressed(2, "R001")

    def test_coded(self):
        table = parse_pragmas("x = set()  # repro: noqa R001,R005\n")
        assert table.is_suppressed(1, "R001")
        assert table.is_suppressed(1, "R005")
        assert not table.is_suppressed(1, "R002")

    def test_space_separated_codes(self):
        table = parse_pragmas("x = 1  # repro: noqa R001 R002\n")
        assert table.is_suppressed(1, "R001")
        assert table.is_suppressed(1, "R002")

    def test_unrelated_comment_is_not_a_pragma(self):
        table = parse_pragmas("x = 1  # repro: the solver\n")
        assert not table.is_suppressed(1, "R001")

    def test_line_one_pragma_applies_module_wide(self):
        table = parse_pragmas(
            "# fixture ships a lambda  # repro: noqa R014\n"
            "x = 1\ny = 2\n")
        assert table.is_suppressed(1, "R014")
        assert table.is_suppressed(3, "R014")
        assert not table.is_suppressed(3, "R012")
        assert table.file_level == frozenset({"R014"})

    def test_file_level_pragma_only_on_line_one(self):
        table = parse_pragmas(
            "x = 1\ny = 2  # repro: noqa R014\nz = 3\n")
        assert table.is_suppressed(2, "R014")
        assert not table.is_suppressed(3, "R014")
        assert table.file_level == frozenset()

    def test_line_one_blanket_stays_line_scoped(self):
        # Only the coded form escalates to file scope: a blanket
        # pragma silencing a whole file would be unauditable.
        table = parse_pragmas("# repro: noqa\nx = 1\n")
        assert table.is_suppressed(1, "R012")
        assert not table.is_suppressed(2, "R012")


class TestModuleNames:
    @pytest.mark.parametrize("path,expected,is_init", [
        ("src/repro/core/pf.py", "repro.core.pf", False),
        ("src/repro/__init__.py", "repro", True),
        ("src/repro/kernels/__init__.py", "repro.kernels", True),
        ("src/repro/cli.py", "repro.cli", False),
        ("tests/test_cli.py", None, False),
        ("benchmarks/bench_kernels.py", "benchmarks.bench_kernels",
         False),
        ("benchmarks/__init__.py", "benchmarks", True),
        ("examples/quickstart.py", None, False),
    ])
    def test_derivation(self, path, expected, is_init):
        module, init = _module_name_for(path)
        assert module == expected
        assert init == is_init

    def test_package_of_init_is_itself(self):
        info = ModuleInfo.from_source(
            "__all__ = []\n", module="repro.kernels",
            is_package_init=True)
        assert info.package == "repro.kernels"

    def test_package_of_module_is_parent(self):
        info = ModuleInfo.from_source(
            "__all__ = []\n", module="repro.kernels.bitset")
        assert info.package == "repro.kernels"


class TestFindings:
    def test_sort_order_is_reading_order(self):
        a = Finding("b.py", 1, 0, "R001", "x")
        b = Finding("a.py", 9, 0, "R002", "x")
        c = Finding("a.py", 2, 0, "R003", "x")
        assert sorted([a, b, c]) == [c, b, a]

    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Finding("a.py", 1, 0, "R001", "x", severity="fatal")

    def test_render_is_clickable(self):
        finding = Finding("src/x.py", 12, 4, "R002", "msg")
        assert finding.render() == "src/x.py:12:5: R002 msg"

    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def f(:\n")
        findings = lint_paths([str(tmp_path)])
        assert len(findings) == 1
        assert findings[0].rule_id == "E999"


class TestReporters:
    def _findings(self):
        return [Finding("a.py", 3, 1, "R002", "iterate sorted")]

    def test_text_lists_findings_and_summary(self):
        text = render_text(self._findings())
        assert "a.py:3:2: R002 iterate sorted" in text
        assert "1 finding (R002 x1)" in text

    def test_text_clean_summary(self):
        assert "no findings in 4 files" in render_text(
            [], files_checked=4)

    def test_json_schema(self):
        document = json.loads(render_json(
            self._findings(), files_checked=7))
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["total"] == 1
        assert document["files_checked"] == 7
        assert document["counts"] == {"R002": 1}
        (entry,) = document["findings"]
        assert set(entry) == {
            "path", "line", "col", "rule", "message", "severity"}
        assert entry["rule"] == "R002"
        assert entry["severity"] == "error"

    def test_json_clean(self):
        document = json.loads(render_json([], files_checked=68))
        assert document["findings"] == []
        assert document["total"] == 0


class TestRegistry:
    def test_fourteen_rules_with_unique_ids(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 14
        assert ids == sorted(ids)

    def test_every_rule_documented(self):
        catalogue = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md") \
            .read_text()
        for rule in ALL_RULES:
            assert rule.rule_id in catalogue, \
                f"{rule.rule_id} missing from docs/STATIC_ANALYSIS.md"

    def test_rules_by_id(self):
        assert RULES_BY_ID["R001"].rule_id == "R001"


# ---------------------------------------------------------------------------
# rule fixtures: bad fires / pragma silences / clean stays quiet


R001_BAD = '''\
"""Fixture."""
__all__ = ["collect"]


def collect(adj: list[int], active: int) -> int:
    seen = set()
    seen.add(active)
    return len({v for v in adj})
'''

R001_CLEAN = '''\
"""Fixture."""
__all__ = ["collect"]


def collect(adj: list[int], active: int) -> int:
    mask = 0
    for neighbors in adj:
        mask |= neighbors & active
    return mask.bit_count()
'''

R002_BAD = '''\
"""Fixture."""
__all__ = ["pairs"]


def pairs(close: dict[int, int], far: dict[int, int]) -> list[int]:
    out = [k for k in set(close) | set(far)]
    for key in far.keys():
        out.append(key)
    return out
'''

R002_CLEAN = '''\
"""Fixture."""
__all__ = ["pairs"]


def pairs(close: dict[int, int], far: dict[int, int]) -> list[int]:
    out = [k for k in sorted(set(close) | set(far))]
    for key in far:
        out.append(key)
    smallest = min(set(close))  # aggregation is order-insensitive
    return out + [smallest]
'''

R003_BAD = '''\
"""Fixture."""
__all__ = ["CACHE", "publish", "dispatch", "rebind"]

CACHE = load_graph()


def publish(incumbent: object, size: int) -> None:
    incumbent.value = size


def dispatch(pool: object, items: list[int]) -> list[int]:
    return pool.map(lambda x: x + 1, items)


def rebind(ctx: object) -> None:
    global CACHE
    CACHE = ctx
'''

R003_CLEAN = '''\
"""Fixture."""
__all__ = ["LIMIT", "publish", "dispatch", "install_context"]

LIMIT = 64
_CTX: object | None = None


def publish(incumbent: object, size: int) -> None:
    incumbent.improve(size)


def dispatch(pool: object, items: list[int]) -> list[int]:
    return pool.map(square, items)


def square(x: int) -> int:
    return x * x


def install_context(ctx: object) -> None:
    global _CTX
    _CTX = ctx
'''

R004_BAD = '''\
"""Fixture."""
__all__ = ["solve"]


def solve(graph: SignedGraph, tau: int) -> int:
    graph.remove_edge(0, 1)
    graph.dirty = True
    return tau
'''

R004_CLEAN = '''\
"""Fixture."""
__all__ = ["solve", "shadowed"]


def solve(graph: SignedGraph, tau: int) -> int:
    reduced = graph.copy()
    reduced.remove_edge(0, 1)
    return tau


def shadowed(graph: SignedGraph) -> int:
    graph = graph.copy()
    graph.remove_edge(0, 1)  # rebinding severs the argument alias
    return graph.num_edges
'''

R005_MISSING = '''\
"""Fixture."""


def helper() -> int:
    return 1
'''

R005_STALE = '''\
"""Fixture."""
__all__ = ["helper", "vanished", "helper"]


def helper() -> int:
    return 1
'''

R005_DYNAMIC = '''\
"""Fixture."""
__all__ = [name for name in ("a", "b")]
'''

R005_CLEAN = '''\
"""Fixture."""
from collections import Counter

__all__ = ["helper", "Counter", "LIMIT"]

LIMIT = 3


def helper() -> int:
    return 1
'''

R006_BAD = '''\
"""Fixture."""
from ..core.gmbc import gmbc_star

__all__ = ["up"]


def up() -> object:
    return gmbc_star
'''

R006_GUARDED = '''\
"""Fixture."""
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.stats import SearchStats

__all__ = ["annotated"]


def annotated(stats: "SearchStats | None") -> None:
    return None
'''

R007_BAD = '''\
"""Fixture."""
__all__ = ["f", "Thing"]


def f(x, y: int):
    return x + y


class Thing:
    def method(self, value) -> None:
        self.value = value
'''

R007_CLEAN = '''\
"""Fixture."""
__all__ = ["f", "Thing"]


def f(x: int, y: int) -> int:
    def tiny_local_helper(z):  # nested defs are exempt
        return z

    return tiny_local_helper(x) + y


class Thing:
    def method(self, value: int) -> None:
        self.value = value
'''


R008_BAD = '''\
"""Fixture."""
import time

__all__ = ["solve"]


def solve(n: int) -> float:
    start = time.perf_counter()
    total = 0
    for i in range(n):
        total += i
    return time.perf_counter() - start
'''

R008_CLEAN = '''\
"""Fixture."""
from ..obs import current_tracer

__all__ = ["solve"]


def solve(n: int) -> int:
    total = 0
    with current_tracer().span("solve", n=n) as span:
        for i in range(n):
            span.count("nodes")
            total += i
    return total
'''


R009_BAD = '''\
"""Fixture."""
__all__ = ["sweep"]


def sweep(pool: object, chunks: "list[list[int]]") -> "list[int]":
    return list(pool.imap_unordered(len, chunks))
'''

R009_CLEAN = '''\
"""Fixture."""
from ..parallel.dispatch import ResilientDispatcher

__all__ = ["sweep"]


def sweep(dispatcher: ResilientDispatcher, runner: object,
          chunks: "list[list[int]]") -> "list[int]":
    return list(dispatcher.run(runner, chunks))
'''


R010_BAD = '''\
"""Fixture."""
__all__ = ["degrees"]


def degrees(mat: "Matrix", active: "Row") -> "list[int]":
    out: "list[int]" = []
    for row in mat:
        out.append(int((row & active).sum()))
    return out
'''

R010_CLEAN = '''\
"""Fixture."""
import numpy as np

__all__ = ["degrees"]


def degrees(mat: "Matrix", active: "Row") -> "IntArray":
    return np.bitwise_count(mat & active).sum(axis=1)
'''


R011_BAD = '''\
"""Fixture."""
__all__ = ["DynamicSolver"]


class DynamicSolver:
    def resync(self, u: int, v: int) -> None:
        self._graph.remove_edge(u, v)
'''

R011_CLEAN = '''\
"""Fixture."""
__all__ = ["DynamicSolver"]


class DynamicSolver:
    def add_edge(self, u: int, v: int, sign: int) -> bool:
        self._graph.add_edge(u, v, sign)
        return True
'''


R012_BAD = '''\
"""Fixture."""
__all__ = ["outer"]


def _inner(n: int, budget: "Budget | None" = None) -> int:
    return n


def outer(n: int, budget: "Budget | None" = None) -> int:
    return _inner(n)
'''

R012_CLEAN = '''\
"""Fixture."""
__all__ = ["outer"]


def _inner(n: int, budget: "Budget | None" = None) -> int:
    return n


def outer(n: int, budget: "Budget | None" = None) -> int:
    return _inner(n, budget)
'''

R013_BAD = '''\
"""Fixture."""
from ..resilience.budget import BudgetExceeded

__all__ = ["guarded"]


def guarded(n: int) -> int:
    try:
        return n
    except BudgetExceeded:
        return 0
'''

R013_CLEAN = '''\
"""Fixture."""
__all__ = ["guarded"]


def guarded(n: int) -> int:
    try:
        return n
    except ValueError:
        raise
'''

R014_BAD = '''\
"""Fixture."""
from .dispatch import ResilientDispatcher

__all__ = ["sweep"]


def sweep(dispatcher: ResilientDispatcher,
          chunks: "list[list[int]]") -> "list[int]":
    return list(dispatcher.run(lambda c: c, chunks))
'''

R014_CLEAN = '''\
"""Fixture."""
from .dispatch import ResilientDispatcher

__all__ = ["sweep"]


def sweep(dispatcher: ResilientDispatcher, runner: object,
          chunks: "list[list[int]]") -> "list[int]":
    return list(dispatcher.run(runner, chunks))
'''


def _with_pragma(source: str, line_fragment: str, rule_id: str) -> str:
    """Append a noqa pragma to the first line containing the fragment."""
    lines = source.splitlines()
    for i, text in enumerate(lines):
        if line_fragment in text:
            lines[i] = f"{text}  # repro: noqa {rule_id}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"{line_fragment!r} not in fixture")


RULE_FIXTURES = [
    # (rule, module the snippet pretends to be, bad, a bad line, clean)
    ("R001", "repro.kernels.fixture", R001_BAD, "seen = set()",
     R001_CLEAN),
    ("R002", "repro.core.fixture", R002_BAD,
     "out = [k for k in set(close) | set(far)]", R002_CLEAN),
    ("R003", "repro.parallel.fixture", R003_BAD,
     "incumbent.value = size", R003_CLEAN),
    ("R004", "repro.core.fixture", R004_BAD,
     "graph.remove_edge(0, 1)", R004_CLEAN),
    ("R005", "repro.signed.fixture", R005_STALE,
     '__all__ = ["helper", "vanished", "helper"]', R005_CLEAN),
    ("R006", "repro.kernels.fixture", R006_BAD,
     "from ..core.gmbc import gmbc_star", R006_GUARDED),
    ("R007", "repro.metrics.fixture", R007_BAD, "def f(x, y: int):",
     R007_CLEAN),
    ("R008", "repro.core.fixture", R008_BAD,
     "start = time.perf_counter()", R008_CLEAN),
    ("R009", "repro.core.fixture", R009_BAD,
     "return list(pool.imap_unordered(len, chunks))", R009_CLEAN),
    ("R010", "repro.kernels.npmask", R010_BAD,
     "for row in mat:", R010_CLEAN),
    ("R011", "repro.dynamic.fixture", R011_BAD,
     "self._graph.remove_edge(u, v)", R011_CLEAN),
    ("R012", "repro.core.fixture", R012_BAD,
     "return _inner(n)", R012_CLEAN),
    ("R013", "repro.dichromatic.fixture", R013_BAD,
     "except BudgetExceeded:", R013_CLEAN),
    ("R014", "repro.parallel.fixture", R014_BAD,
     "return list(dispatcher.run(lambda c: c, chunks))",
     R014_CLEAN),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "rule_id,module,bad,bad_line,clean", RULE_FIXTURES,
        ids=[f[0] for f in RULE_FIXTURES])
    def test_bad_fires(self, rule_id, module, bad, bad_line, clean):
        assert rule_hits(bad, module, rule_id), \
            f"{rule_id} did not fire on its known-bad fixture"

    @pytest.mark.parametrize(
        "rule_id,module,bad,bad_line,clean", RULE_FIXTURES,
        ids=[f[0] for f in RULE_FIXTURES])
    def test_pragma_silences_the_line(self, rule_id, module, bad,
                                      bad_line, clean):
        before = rule_hits(bad, module, rule_id)
        silenced = _with_pragma(bad, bad_line, rule_id)
        after = rule_hits(silenced, module, rule_id)
        assert len(after) < len(before)
        pragma_line = next(
            i for i, text in enumerate(silenced.splitlines(), 1)
            if "repro: noqa" in text)
        assert all(f.line != pragma_line for f in after)

    @pytest.mark.parametrize(
        "rule_id,module,bad,bad_line,clean", RULE_FIXTURES,
        ids=[f[0] for f in RULE_FIXTURES])
    def test_clean_is_quiet_across_all_rules(self, rule_id, module,
                                             bad, bad_line, clean):
        assert lint_source(clean, module=module) == []


class TestRuleScoping:
    def test_r001_skips_set_engine_modules(self):
        # The same set()-heavy code is fine outside the bitset scopes.
        assert rule_hits(R001_BAD, "repro.core.fixture", "R001") == []

    def test_r009_exempts_the_dispatch_module(self):
        # The resilient dispatcher *implements* the discipline, so the
        # raw pool calls are legal exactly there.
        assert rule_hits(
            R009_BAD, "repro.parallel.dispatch", "R009") == []

    def test_r001_fires_in_bitset_class_of_mixed_module(self):
        source = (
            '__all__ = ["X"]\n'
            "class _BitsetState:\n"
            "    def search(self, clique: list[int]) -> None:\n"
            "        self.best = set(clique)\n")
        assert rule_hits(source, "repro.dichromatic.mdc", "R001")

    def test_r001_quiet_in_dispatch_wrapper_of_mixed_module(self):
        source = (
            '__all__ = ["solve"]\n'
            "def solve(active: set[int] | None) -> set[int]:\n"
            "    return set(active or ())\n")
        assert rule_hits(source, "repro.dichromatic.mdc", "R001") == []

    def test_r010_only_polices_the_npmask_module(self):
        # The same row loop is fine anywhere else — only the numpy
        # backend promises vectorisation.
        assert rule_hits(
            R010_BAD, "repro.kernels.fixture", "R010") == []
        assert rule_hits(R010_BAD, "repro.core.fixture", "R010") == []

    def test_r010_flags_flat_and_nditer_walks(self):
        source = (
            '__all__ = ["walk"]\n'
            "import numpy as np\n"
            'def walk(mat: "Matrix") -> int:\n'
            "    total = 0\n"
            "    for word in mat.flat:\n"
            "        total += int(word)\n"
            "    for word in np.nditer(mat):\n"
            "        total += int(word)\n"
            "    return total\n")
        hits = rule_hits(source, "repro.kernels.npmask", "R010")
        assert len(hits) >= 2

    def test_r010_allows_scalar_and_list_loops(self):
        # Sequential-by-nature loops over Python lists or index
        # materialisations stay legal; only matrix-row walks fire.
        source = (
            '__all__ = ["pack"]\n'
            'def pack(masks: "Sequence[int]", order: "IntArray") '
            '-> int:\n'
            "    total = 0\n"
            "    for mask in masks:\n"
            "        total += mask\n"
            "    for v in order.tolist():\n"
            "        total += v\n"
            "    return total\n")
        assert rule_hits(
            source, "repro.kernels.npmask", "R010") == []

    def test_r002_out_of_scope_package_is_quiet(self):
        assert rule_hits(R002_BAD, "repro.unsigned.fixture",
                         "R002") == []

    def test_r005_missing_and_dynamic_all(self):
        assert rule_hits(R005_MISSING, "repro.signed.fixture", "R005")
        assert rule_hits(R005_DYNAMIC, "repro.signed.fixture", "R005")

    def test_r005_exempts_entry_points(self):
        assert rule_hits(R005_MISSING, "repro.analysis.__main__",
                         "R005") == []

    def test_r006_type_checking_guard_is_exempt(self):
        assert rule_hits(R006_GUARDED, "repro.kernels.fixture",
                         "R006") == []

    def test_r006_parallel_may_import_core_leaves_only(self):
        leaf = ('__all__ = ["S"]\n'
                "from ..core.stats import SearchStats as S\n")
        assert rule_hits(leaf, "repro.parallel.fixture", "R006") == []
        driver = ('__all__ = ["m"]\n'
                  "from ..core.mbc_star import mbc_star as m\n")
        assert rule_hits(driver, "repro.parallel.fixture", "R006")

    def test_r006_dynamic_may_not_import_the_pool(self):
        kernel = ('__all__ = ["s"]\n'
                  "from ..kernels.active import suffix_masks as s\n")
        assert rule_hits(kernel, "repro.dynamic.fixture", "R006") == []
        pool = ('__all__ = ["r"]\n'
                "from ..parallel.engine import resolve_workers as r\n")
        assert rule_hits(pool, "repro.dynamic.fixture", "R006")

    def test_r006_analysis_must_stay_stdlib_only(self):
        source = ('__all__ = ["g"]\n'
                  "from ..signed.graph import SignedGraph as g\n")
        assert rule_hits(source, "repro.analysis.fixture", "R006")

    def test_r008_composition_root_may_read_clocks(self):
        # repro.cli reports wall time to humans; R008 scopes to the
        # solver packages only.
        assert rule_hits(R008_BAD, "repro.cli", "R008") == []

    def test_r008_obs_implements_the_clocks(self):
        assert rule_hits(R008_BAD, "repro.obs.tracer", "R008") == []

    def test_r008_clock_alias_import_fires(self):
        source = ('__all__ = ["f"]\n'
                  "from time import perf_counter as clock\n"
                  "def f() -> float:\n"
                  "    return clock()\n")
        hits = rule_hits(source, "repro.dichromatic.fixture", "R008")
        assert len(hits) == 2  # the import and the call

    def test_r008_non_clock_time_import_is_legal(self):
        source = ('__all__ = ["f"]\n'
                  "from time import sleep\n"
                  "def f() -> None:\n"
                  "    sleep(0.0)\n")
        assert rule_hits(source, "repro.core.fixture", "R008") == []

    def test_r008_direct_tracer_construction_fires(self):
        source = ('__all__ = ["f"]\n'
                  "from ..obs import Tracer\n"
                  "def f() -> Tracer:\n"
                  "    return Tracer()\n")
        assert rule_hits(source, "repro.parallel.fixture", "R008")

    def test_r008_factory_construction_is_legal(self):
        source = ('__all__ = ["f"]\n'
                  "from ..obs import Tracer, get_tracer\n"
                  "def f() -> Tracer:\n"
                  "    return get_tracer(True)\n")
        assert rule_hits(source, "repro.parallel.fixture", "R008") == []

    def test_non_repro_files_are_skipped(self):
        # No module name -> no rules apply (e.g. tests, scripts).
        assert lint_source("x = set()\n", module=None) == []


# ---------------------------------------------------------------------------
# the whole-program layer: call-graph builder units


def _program_of(sources: dict[str, str]):
    modules = []
    for name, source in sources.items():
        is_init = name.endswith("/__init__")
        module = name[:-len("/__init__")] if is_init else name
        modules.append(ModuleInfo.from_source(
            source, path=f"<memory:{module}>", module=module,
            is_package_init=is_init))
    return build_program(modules)


class TestProgramBuilder:
    def test_resolves_the_package_tree(self):
        modules = [load_module(path) for path in iter_python_files(
            [str(REPO_ROOT / "src" / "repro")])]
        assert all(isinstance(m, ModuleInfo) for m in modules)
        program = build_program(modules)
        # A loader that silently parses nothing would pass every
        # fixture below; the real tree resolves well over 500 edges.
        assert len(program.edges) > 500

    def test_direct_call_and_from_import_alias(self):
        program = _program_of({
            "repro.core.a": "def f(n: int) -> int:\n    return n\n",
            "repro.core.b": (
                "from .a import f as renamed\n"
                "def g(n: int) -> int:\n    return renamed(n)\n"),
        })
        edges = {(e.caller, e.callee) for e in program.edges}
        assert ("repro.core.b:g", "repro.core.a:f") in edges

    def test_reexport_chain_through_package_init(self):
        program = _program_of({
            "repro.dichromatic.mdc":
                "def solve_mdc(n: int) -> int:\n    return n\n",
            "repro.dichromatic/__init__":
                "from .mdc import solve_mdc\n",
            "repro.core.driver": (
                "from ..dichromatic import solve_mdc\n"
                "def drive(n: int) -> int:\n"
                "    return solve_mdc(n)\n"),
        })
        edges = {(e.caller, e.callee) for e in program.edges}
        assert ("repro.core.driver:drive",
                "repro.dichromatic.mdc:solve_mdc") in edges

    def test_conditional_dispatch_yields_both_candidates(self):
        program = _program_of({
            "repro.parallel.worker": (
                "def _np(n: int) -> int:\n    return n\n"
                "def _bits(n: int) -> int:\n    return n\n"
                "def run(n: int, engine: str) -> int:\n"
                "    solver = _np if engine == 'numpy' else _bits\n"
                "    return solver(n)\n"),
        })
        edges = {(e.caller, e.callee, e.kind)
                 for e in program.edges}
        assert ("repro.parallel.worker:run",
                "repro.parallel.worker:_np", "dispatch") in edges
        assert ("repro.parallel.worker:run",
                "repro.parallel.worker:_bits", "dispatch") in edges

    def test_registry_table_edges(self):
        program = _program_of({
            "repro.cli": (
                "def _cmd_a() -> int:\n    return 0\n"
                "def _cmd_b() -> int:\n    return 1\n"
                "_COMMANDS = {'a': _cmd_a, 'b': _cmd_b}\n"),
        })
        edges = {(e.caller, e.callee, e.kind)
                 for e in program.edges}
        assert ("repro.cli:<module>", "repro.cli:_cmd_a",
                "table") in edges
        assert ("repro.cli:<module>", "repro.cli:_cmd_b",
                "table") in edges

    def test_method_resolution_through_local_construction(self):
        program = _program_of({
            "repro.parallel.dispatch": (
                "class ResilientDispatcher:\n"
                "    def run(self, runner: object,\n"
                "            payloads: object) -> list:\n"
                "        return []\n"),
            "repro.parallel.engine": (
                "from .dispatch import ResilientDispatcher\n"
                "def fanout(chunks: list) -> list:\n"
                "    d = ResilientDispatcher()\n"
                "    return d.run(fanout, chunks)\n"),
        })
        edges = {(e.caller, e.callee) for e in program.edges}
        assert (
            "repro.parallel.engine:fanout",
            "repro.parallel.dispatch:ResilientDispatcher.run",
        ) in edges

    def test_worker_entry_points_and_reachability(self):
        program = _program_of({
            "repro.parallel.worker": (
                "def _ego(n: int) -> int:\n    return n\n"
                "def run_mdc_chunk(chunk: list) -> int:\n"
                "    return _ego(len(chunk))\n"),
        })
        entries = [fn.key for fn in program.worker_entry_points()]
        assert entries == ["repro.parallel.worker:run_mdc_chunk"]
        reach = program.reachable_from(entries)
        assert "repro.parallel.worker:_ego" in reach

    def test_classmethod_positional_coverage(self):
        # capture(best, budget) passes budget positionally even
        # though ``cls`` occupies slot zero of the def.
        program = _program_of({
            "repro.core.result": (
                "class SolveResult:\n"
                "    @classmethod\n"
                "    def capture(cls, clique: object,\n"
                "                budget: object) -> object:\n"
                "        return cls\n"),
        })
        fn = program.function(
            "repro.core.result:SolveResult.capture")
        assert fn is not None and fn.is_classmethod
        assert fn.positional_index("budget", bound=False) == 1

    def test_call_passes_kwarg_forms(self):
        import ast as ast_mod
        program = _program_of({
            "repro.core.a": (
                "def f(n: int, budget: object = None) -> int:\n"
                "    return n\n"),
        })
        fn = program.function("repro.core.a:f")

        def call(src):
            return ast_mod.parse(src, mode="eval").body

        assert call_passes_kwarg(
            call("f(1, budget=b)"), fn, "budget", False)
        assert call_passes_kwarg(
            call("f(1, b)"), fn, "budget", False)
        assert call_passes_kwarg(
            call("f(**kw)"), fn, "budget", False)
        assert not call_passes_kwarg(
            call("f(1)"), fn, "budget", False)

    def test_real_tree_graph_is_nontrivially_connected(self):
        modules = [
            m for m in (load_module(p)
                        for p in iter_python_files([SRC]))
            if isinstance(m, ModuleInfo)]
        program = build_program(modules)
        assert len(program.functions) > 300
        assert len(program.edges) > 500
        kinds = {e.kind for e in program.edges}
        assert kinds == {"call", "dispatch", "table"}


class TestProgramRulesCrossModule:
    def test_r012_fires_across_modules(self):
        findings = lint_sources({
            "repro.dichromatic.mdc": (
                '"""Fixture."""\n'
                '__all__ = ["solve_mdc"]\n'
                "def solve_mdc(n: int,\n"
                '              budget: "Budget | None" = None'
                ") -> int:\n"
                "    return n\n"),
            "repro.core.driver": (
                '"""Fixture."""\n'
                '__all__ = ["drive"]\n'
                "from ..dichromatic.mdc import solve_mdc\n"
                "def drive(n: int,\n"
                '          budget: "Budget | None" = None) -> int:\n'
                "    return solve_mdc(n)\n"),
        })
        r12 = [f for f in findings if f.rule_id == "R012"]
        assert len(r12) == 1
        assert "driver" in r12[0].path

    def test_r012_respects_tracer_alias(self):
        findings = lint_sources({
            "repro.core.mbc": (
                '"""Fixture."""\n'
                '__all__ = ["mbc"]\n'
                "def _pipeline(n: int,\n"
                '              tracer: "Tracer | None" = None'
                ") -> int:\n"
                "    return n\n"
                "def mbc(n: int,\n"
                '        trace: "Tracer | None" = None) -> int:\n'
                "    return _pipeline(n, trace)\n"),
        })
        assert [f for f in findings if f.rule_id == "R012"] == []

    def test_r013_allows_incumbent_owning_modules(self):
        source = (
            '"""Fixture."""\n'
            '__all__ = ["guarded"]\n'
            "def guarded(n: int) -> int:\n"
            "    try:\n"
            "        return n\n"
            "    except BudgetExceeded:\n"
            "        return 0\n")
        assert rule_hits(source, "repro.core.mbc_star", "R013") == []
        assert rule_hits(source, "repro.resilience.budget",
                         "R013") == []
        assert rule_hits(source, "repro.dichromatic.mdc", "R013")

    def test_r013_broad_handler_that_records_is_legal(self):
        source = (
            '"""Fixture."""\n'
            '__all__ = ["run_fix_chunk"]\n'
            "def run_fix_chunk(chunk: list,\n"
            "                  envelope: object) -> int:\n"
            "    try:\n"
            "        return len(chunk)\n"
            "    except Exception as exc:\n"
            "        envelope.record_failure(exc)\n"
            "        return 0\n")
        assert rule_hits(source, "repro.parallel.fixture",
                         "R013") == []

    def test_r013_broad_handler_outside_worker_paths_is_legal(self):
        source = (
            '"""Fixture."""\n'
            '__all__ = ["load"]\n'
            "def load(path: str) -> str:\n"
            "    try:\n"
            "        return path\n"
            "    except Exception:\n"
            "        return ''\n")
        assert rule_hits(source, "repro.datasets.fixture",
                         "R013") == []

    def test_r014_parent_side_on_recover_lambda_is_legal(self):
        source = (
            '"""Fixture."""\n'
            "from .dispatch import ResilientDispatcher\n"
            '__all__ = ["sweep"]\n'
            "def sweep(dispatcher: ResilientDispatcher,\n"
            "          runner: object, chunks: list,\n"
            "          incumbent: object) -> list:\n"
            "    return list(dispatcher.run(\n"
            "        runner, chunks,\n"
            "        on_recover=lambda: incumbent.reset()))\n")
        assert rule_hits(source, "repro.parallel.fixture",
                         "R014") == []

    def test_r014_nested_def_payload_fires(self):
        source = (
            '"""Fixture."""\n'
            "from .dispatch import ResilientDispatcher\n"
            '__all__ = ["sweep"]\n'
            "def sweep(dispatcher: ResilientDispatcher,\n"
            "          runner: object) -> list:\n"
            "    def _make(i: int) -> int:\n"
            "        return i\n"
            "    return list(dispatcher.run(runner, [_make]))\n")
        hits = rule_hits(source, "repro.parallel.fixture", "R014")
        assert hits and "_make" in hits[0].message

    def test_r014_file_level_pragma_silences_fixture_module(self):
        silenced = (
            "# chaos fixture ships a lambda on purpose  "
            "# repro: noqa R014\n") + R014_BAD
        assert rule_hits(silenced, "repro.parallel.fixture",
                         "R014") == []


# ---------------------------------------------------------------------------
# the repository is its own fixture


class TestSelfCheck:
    def test_repo_is_lint_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_benchmarks_are_lint_clean_under_all_rules(self):
        findings = lint_paths([SRC, BENCHMARKS])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_iter_python_files_sees_the_stack(self):
        files = iter_python_files([SRC])
        assert len(files) > 60
        assert all(f.endswith(".py") for f in files)

    def test_every_pragma_in_tree_names_its_rules(self):
        # Blanket pragmas silence everything; the repo only allows
        # rule-scoped ones so each exception stays auditable.
        for path in iter_python_files([SRC]):
            source = Path(path).read_text()
            table = parse_pragmas(source)
            for line in sorted(table.lines):
                text = source.splitlines()[line - 1]
                assert "noqa R" in text, \
                    f"{path}:{line}: blanket pragma (name the rules)"


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_module_cli_clean_exit(self, capsys):
        assert lint_main([SRC]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_module_cli_findings_exit(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(R002_BAD)
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out

    def test_module_cli_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(R004_BAD)
        # Only R002 requested; the R004 finding must not fail the run.
        assert lint_main(["--rule", "R002", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_module_cli_unknown_rule_usage_error(self, capsys):
        assert lint_main(["--rule", "R999", SRC]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_module_cli_missing_path_usage_error(self, capsys):
        assert lint_main(["definitely/not/a/path"]) == 2
        capsys.readouterr()

    def test_module_cli_json(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(R002_BAD)
        assert lint_main(["--json", str(tmp_path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["counts"].get("R002")

    def test_repro_cli_lint_subcommand(self, capsys):
        assert repro_main(["lint", SRC]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_repro_cli_lint_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_repro_cli_lint_usage_error(self, capsys):
        assert repro_main(["lint", "--rule", "R999", SRC]) == 2
        capsys.readouterr()
