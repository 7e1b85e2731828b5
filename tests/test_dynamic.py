"""Unit tests for the incremental dynamic solver (`repro.dynamic`).

The deep randomized coverage (seeded edit scripts differenced against
full re-solves after *every* edit, across engines and worker counts)
lives in ``tests/test_property.py::TestDynamicDifferential``; this
module covers the API contracts: mutation semantics, cache
invalidation and reuse, the skip fast path, out-of-band mutation
resync, budget truncation (uncertified bounds are never cached), the
edit-script format, and seeded edit streams on real stand-ins.
"""

import random

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.result import BalancedClique, Status
from repro.datasets.registry import load
from repro.dynamic import (
    DynamicSolver,
    Edit,
    apply_edit,
    parse_edit_script,
    random_edits,
)
from repro.obs import get_tracer, install_tracer
from repro.parallel import engine as engine_module
from repro.parallel.dispatch import ResilientDispatcher
from repro.resilience.budget import Budget
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

from .conftest import SOLVER_ENGINES

#: Real stand-ins whose seeded edit streams are replayed at tau=3.
STAND_INS = ("bitcoin", "adjwordnet", "referendum", "douban")


def random_graph(seed: int, n_low: int = 8, n_high: int = 14) -> SignedGraph:
    rng = random.Random(seed)
    n = rng.randint(n_low, n_high)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                graph.add_edge(
                    u, v, NEGATIVE if rng.random() < 0.5 else POSITIVE)
    return graph


def figure_graph() -> SignedGraph:
    """A small graph with a known tau=1 balanced clique structure."""
    return SignedGraph.from_signed_edges(6, [
        (0, 1, 1), (0, 2, -1), (0, 3, -1),
        (1, 2, -1), (1, 3, -1), (2, 3, 1),
        (3, 4, 1), (4, 5, -1),
    ])


def assert_matches_full(solver: DynamicSolver) -> None:
    """The incremental answer equals a fresh full solve, and the
    witness is a real balanced clique of the live graph."""
    result = solver.solve()
    full = mbc_star(solver.graph, solver.tau)
    assert result.clique.size == full.size
    assert result.optimal
    if not result.clique.is_empty:
        rebuilt = BalancedClique.from_vertices(
            solver.graph, result.clique.vertices)
        assert rebuilt.size == result.clique.size
        assert result.clique.satisfies(solver.tau)


class TestConstruction:
    def test_initial_solve_matches_full(self):
        graph = random_graph(1)
        solver = DynamicSolver(graph, tau=1)
        assert_matches_full(solver)

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            DynamicSolver(SignedGraph(4), tau=0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            DynamicSolver(SignedGraph(4), tau=1, engine="quantum")

    def test_empty_graph(self):
        solver = DynamicSolver(SignedGraph(0), tau=1)
        assert solver.solve().clique.is_empty
        assert solver.beta() == 0


class TestMutationApi:
    def test_add_edge_returns_true_and_mutates(self):
        solver = DynamicSolver(SignedGraph(3), tau=1)
        assert solver.add_edge(0, 1, POSITIVE) is True
        assert solver.graph.sign(0, 1) == POSITIVE
        assert solver.edits == 1

    def test_duplicate_same_sign_add_is_a_noop(self):
        solver = DynamicSolver(figure_graph(), tau=1)
        solver.solve()
        assert solver.add_edge(0, 1, POSITIVE) is False
        assert solver.edits == 0
        assert solver.dirty_count == 0

    def test_opposite_sign_add_rejected(self):
        solver = DynamicSolver(figure_graph(), tau=1)
        with pytest.raises(ValueError):
            solver.add_edge(0, 1, NEGATIVE)
        # Nothing was invalidated by the failed edit.
        assert solver.edits == 0
        assert solver.dirty_count == 0

    def test_self_loop_rejected(self):
        solver = DynamicSolver(SignedGraph(3), tau=1)
        with pytest.raises(ValueError):
            solver.add_edge(1, 1, POSITIVE)

    def test_out_of_range_rejected(self):
        solver = DynamicSolver(SignedGraph(3), tau=1)
        for u, v in ((0, 3), (3, 0), (-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                solver.add_edge(u, v, POSITIVE)
            with pytest.raises(ValueError):
                solver.remove_edge(u, v)
            with pytest.raises(ValueError):
                solver.flip_sign(u, v)

    def test_remove_edge_returns_sign(self):
        solver = DynamicSolver(figure_graph(), tau=1)
        assert solver.remove_edge(0, 2) == NEGATIVE
        assert solver.remove_edge(0, 1) == POSITIVE
        assert solver.graph.sign(0, 2) is None

    def test_remove_missing_edge_raises(self):
        solver = DynamicSolver(SignedGraph(3), tau=1)
        with pytest.raises(KeyError):
            solver.remove_edge(0, 1)

    def test_flip_sign_returns_new_sign(self):
        solver = DynamicSolver(figure_graph(), tau=1)
        assert solver.flip_sign(0, 1) == NEGATIVE
        assert solver.graph.sign(0, 1) == NEGATIVE
        assert solver.flip_sign(0, 1) == POSITIVE

    def test_flip_missing_edge_raises(self):
        solver = DynamicSolver(SignedGraph(3), tau=1)
        with pytest.raises(KeyError):
            solver.flip_sign(0, 1)

    def test_edits_dirty_only_common_neighbourhood(self):
        # A star: editing a leaf edge dirties only the two endpoints
        # (no third vertex sees both).
        graph = SignedGraph.from_signed_edges(
            5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)])
        solver = DynamicSolver(graph, tau=1)
        solver.solve()
        solver.remove_edge(0, 1)
        assert solver.dirty_count == 2


class TestIncrementalSolve:
    @pytest.mark.parametrize("engine", SOLVER_ENGINES)
    def test_edit_stream_matches_full_resolve(self, engine):
        graph = random_graph(7)
        solver = DynamicSolver(graph, tau=1, engine=engine)
        assert_matches_full(solver)
        for edit in random_edits(graph, 12, seed=3):
            apply_edit(solver, edit)
            assert_matches_full(solver)

    @pytest.mark.parametrize("name", STAND_INS)
    def test_stand_in_edit_stream_matches_full_resolve(self, name):
        # load() returns the shared cached graph: edit a private copy.
        graph = load(name).copy()
        solver = DynamicSolver(graph, 3)
        seed = 2022 + STAND_INS.index(name)
        for edit in random_edits(graph, 20, seed=seed):
            apply_edit(solver, edit)
            assert_matches_full(solver)

    def test_solve_skips_when_clean(self):
        solver = DynamicSolver(random_graph(2), tau=1)
        first = solver.solve()
        assert solver.solve() is first

    def test_skip_counter_increments(self):
        tracer = get_tracer(True)
        previous = install_tracer(tracer)
        try:
            solver = DynamicSolver(random_graph(2), tau=1)
            solver.solve()
            solver.solve()
        finally:
            install_tracer(previous)
        assert tracer.counters_snapshot()[
            "dynamic.solves_skipped"] >= 1

    def test_external_mutation_triggers_resync(self):
        graph = figure_graph()
        solver = DynamicSolver(graph, tau=1)
        solver.solve()
        # Bypass the solver: the fingerprint check must catch it.
        graph.add_edge(1, 4, POSITIVE)
        assert_matches_full(solver)

    def test_external_edit_before_solver_edit_triggers_resync(self):
        # A balanced clique L = {0, 1, 2}, R = {3, 4, 5} missing (0, 3).
        left, right = [0, 1, 2], [3, 4, 5]
        edges = [(u, v, POSITIVE) for side in (left, right)
                 for u in side for v in side if u < v]
        edges += [(u, v, NEGATIVE) for u in left for v in right
                  if (u, v) != (0, 3)]
        graph = SignedGraph.from_signed_edges(8, edges)
        tracer = get_tracer(True)
        previous = install_tracer(tracer)
        try:
            solver = DynamicSolver(graph, tau=2)
            assert solver.solve().clique.size == 5
            # Bypass the solver, then edit through it: the solver's
            # edit must not absorb the out-of-band one.
            graph.add_edge(0, 3, NEGATIVE)
            solver.add_edge(6, 7, POSITIVE)
            result = solver.solve()
        finally:
            install_tracer(previous)
        assert result.clique.size == 6
        assert result.clique.size == mbc_star(graph, tau=2).size
        assert tracer.counters_snapshot()["dynamic.resyncs"] == 1

    def test_vertex_growth_triggers_resync(self):
        graph = figure_graph()
        solver = DynamicSolver(graph, tau=1)
        solver.solve()
        w = graph.add_vertex()
        graph.add_edge(w, 0, POSITIVE)
        assert_matches_full(solver)
        assert solver.graph.num_vertices == 7

    def test_truncated_solve_never_caches_uncertified_bounds(self):
        graph = random_graph(11)
        solver = DynamicSolver(graph, tau=1, engine="set")
        truncated = solver.solve(budget=Budget(max_nodes=1))
        assert truncated.status is Status.BUDGET_EXHAUSTED
        full = mbc_star(graph, tau=1)
        # The truncated incumbent is certified (a real clique), so it
        # can only undershoot the optimum.
        assert truncated.clique.size <= full.size
        # A later unbudgeted solve recovers the exact optimum from
        # the surviving certified bounds.
        assert_matches_full(solver)

    @pytest.mark.parametrize("engine", SOLVER_ENGINES)
    def test_truncated_solve_per_engine(self, engine):
        graph = random_graph(13)
        solver = DynamicSolver(graph, tau=1, engine=engine)
        truncated = solver.solve(budget=Budget(max_nodes=1))
        assert truncated.clique.size <= mbc_star(graph, tau=1).size
        assert_matches_full(solver)


class TestWitnessRevalidation:
    """A dirty entry's cached witness is re-checked, not re-solved:
    sign flips can re-split a clique that stays balanced, or break it.
    """

    @staticmethod
    def _counted(tracer, name: str) -> int:
        return tracer.counters_snapshot().get(name, 0)

    @pytest.mark.parametrize("engine", SOLVER_ENGINES)
    def test_flips_re_split_then_break_the_witness(self, engine):
        a, b, c, d = 0, 1, 2, 3
        graph = SignedGraph.from_signed_edges(4, [
            (a, b, 1), (c, d, 1),
            (a, c, -1), (a, d, -1), (b, c, -1), (b, d, -1)])
        solver = DynamicSolver(graph, tau=1, engine=engine)
        held = BalancedClique.from_sides({a, b}, {c, d})
        assert solver.solve().clique == held
        assert solver.beta(return_witness=True) == (2, held)
        tracer = get_tracer(True)
        previous = install_tracer(tracer)
        try:
            for u, v in ((a, b), (c, d), (a, c), (b, d)):
                solver.flip_sign(u, v)
            re_split = solver.solve().clique
            beta, beta_witness = solver.beta(return_witness=True)
        finally:
            install_tracer(previous)
        assert re_split == BalancedClique.from_vertices(
            graph, {a, b, c, d}) == BalancedClique.from_sides(
                {a, c}, {b, d})
        assert (beta, beta_witness) == (2, re_split)
        # Both answers came from the re-checked witnesses alone.
        assert self._counted(tracer, "dynamic.egos_resolved") == 0
        assert self._counted(tracer, "dynamic.gamma_questions") == 0
        solver.flip_sign(a, d)
        broken = solver.solve()
        assert broken.clique.vertices != {a, b, c, d}
        assert broken.optimal
        assert broken.clique.size == mbc_star(graph.copy(), 1).size == 3
        assert broken.clique == BalancedClique.from_vertices(
            graph, broken.clique.vertices)
        assert solver.beta() == pf_star(graph.copy()) == 1


class TestSerialPath:
    """A re-solve is the solver's own ego loop: it never enters
    ``repro.parallel``'s dispatch, even with the pool gate forced
    open."""

    # The ids keep the worker count the solver runs at: always 0.
    @pytest.mark.parametrize("engine", SOLVER_ENGINES,
                             ids=[f"{e}-0" for e in SOLVER_ENGINES])
    def test_serial_solves_never_reach_the_dispatcher(
            self, engine, monkeypatch):
        def no_dispatch(*_args, **_kwargs):
            raise AssertionError("a serial solve reached the dispatcher")

        monkeypatch.setattr(ResilientDispatcher, "__init__", no_dispatch)
        monkeypatch.setattr(engine_module, "MIN_POOL_TASKS", 0)
        monkeypatch.setattr(engine_module, "MIN_POOL_WORK", 0)
        graph = random_graph(7)
        solver = DynamicSolver(graph, tau=1, engine=engine)
        tracer = get_tracer(True)
        for edit in random_edits(graph, 12, seed=3):
            apply_edit(solver, edit)
            previous = install_tracer(tracer)
            try:
                solver.solve()
            finally:
                install_tracer(previous)
            assert_matches_full(solver)
        names = {record["name"] for record in tracer.records}
        assert "ego" in names
        assert not names & {"fanout", "chunk"}


class TestBeta:
    @pytest.mark.parametrize("engine", SOLVER_ENGINES)
    def test_beta_matches_pf_star_through_edits(self, engine):
        graph = random_graph(17)
        solver = DynamicSolver(graph, tau=1, engine=engine)
        assert solver.beta() == pf_star(graph)
        for edit in random_edits(graph, 8, seed=5):
            apply_edit(solver, edit)
            assert solver.beta() == pf_star(graph)

    def test_beta_truncation_is_a_lower_bound(self):
        graph = random_graph(19)
        solver = DynamicSolver(graph, tau=1)
        bar = solver.beta(budget=Budget(max_nodes=1))
        exact = pf_star(graph)
        assert 0 <= bar <= exact
        assert solver.beta() == exact

    @pytest.mark.parametrize("engine", SOLVER_ENGINES)
    def test_beta_witness_backs_the_factor_through_edits(self, engine):
        graph = random_graph(17)
        solver = DynamicSolver(graph, tau=1, engine=engine)
        for edit in random_edits(graph, 8, seed=7):
            apply_edit(solver, edit)
            outcome = solver.beta(return_witness=True)
            assert isinstance(outcome, tuple)
            bar, witness = outcome
            assert witness.polarization == bar
            if bar:
                # A real balanced clique of the live graph, or raise.
                BalancedClique.from_vertices(graph, witness.vertices)

    def test_set_engine_beta_traces_one_ego_per_question(self):
        graph = random_graph(17)
        solver = DynamicSolver(graph, tau=1, engine="set")
        tracer = get_tracer(True)
        previous = install_tracer(tracer)
        try:
            beta = solver.beta()
        finally:
            install_tracer(previous)
        assert beta == pf_star(graph)
        egos = [r for r in tracer.records if r["name"] == "ego"]
        questions = tracer.counters_snapshot()["dynamic.gamma_questions"]
        assert questions == len(egos) > 0

    def test_truncated_beta_witness_certifies_the_bar(self):
        graph = random_graph(19)
        solver = DynamicSolver(graph, tau=1)
        outcome = solver.beta(
            budget=Budget(max_nodes=1), return_witness=True)
        assert isinstance(outcome, tuple)
        bar, witness = outcome
        assert witness.polarization == bar


class TestEditScript:
    def test_round_trip(self):
        edits = [Edit("add", 0, 1, NEGATIVE), Edit("add", 1, 2),
                 Edit("remove", 0, 1), Edit("flip", 1, 2)]
        text = "\n".join(edit.as_line() for edit in edits)
        assert parse_edit_script(text) == edits

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nadd 0 1 +1  # trailing\n  \nflip 0 1\n"
        assert parse_edit_script(text) == [
            Edit("add", 0, 1, POSITIVE), Edit("flip", 0, 1)]

    def test_sign_spellings(self):
        for token, sign in (("1", POSITIVE), ("+1", POSITIVE),
                            ("+", POSITIVE), ("-1", NEGATIVE),
                            ("-", NEGATIVE)):
            assert parse_edit_script(f"add 0 1 {token}") == [
                Edit("add", 0, 1, sign)]

    @pytest.mark.parametrize("bad", [
        "add 0 1", "add 0 1 2", "remove 1", "flip 1 2 3",
        "grow 0 1", "add x y +1",
    ])
    def test_malformed_lines_report_the_line_number(self, bad):
        with pytest.raises(ValueError, match="line 2"):
            parse_edit_script(f"add 0 1 +1\n{bad}\n")

    def test_apply_edit_rejects_unknown_kind(self):
        solver = DynamicSolver(SignedGraph(3), tau=1)
        with pytest.raises(ValueError):
            apply_edit(solver, Edit("grow", 0, 1))

    def test_random_edits_are_deterministic_and_applicable(self):
        # Each edit is drawn valid for the live graph, so scripts are
        # collected while being applied (identical seeds + identical
        # graphs replay to identical scripts).
        scripts: list[list[Edit]] = []
        for _run in range(2):
            solver = DynamicSolver(random_graph(23), tau=1)
            script: list[Edit] = []
            for edit in random_edits(solver.graph, 20, seed=9):
                script.append(edit)
                apply_edit(solver, edit)
            scripts.append(script)
        assert scripts[0] == scripts[1]
        assert len(scripts[0]) == 20

    def test_random_edits_on_empty_graph_only_adds(self):
        edits = list(random_edits(SignedGraph(5), 4, seed=0))
        assert edits and all(e.kind == "add" for e in edits)
