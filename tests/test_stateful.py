"""Model-based tests: hypothesis state machines for the stateful parts.

* :class:`SignedGraphMachine` drives a :class:`SignedGraph` through
  edge adds, removals, sign flips, vertex isolation and vertex
  appends — ids from ``-1`` to ``N``, so out-of-range edits are
  exercised too — against a plain dict of signs, and asks for some or
  all of its mask rows and neighbour rows in between, so edits meet
  partly built caches.  After every step each built row, the
  incremental fingerprint and ``validate()`` must agree with the
  model, and each unbuilt row must raise on use.
* :class:`DynamicSolverMachine` drives a :class:`DynamicSolver`, once
  per available engine, through solver edits mixed with direct graph
  edits (each of which forces a rebuild at the next call), sign flips
  inside the last returned witness (so cached witnesses are re-split
  or broken), exact and budgeted ``solve()`` and ``beta()``.  Every
  answer is checked against set-engine ``mbc_star``/``pf_star`` on a
  copy of the current graph, and every witness with
  ``is_balanced_clique`` and against the sides ``from_vertices``
  splits it into.

Runs are derandomized with the loaded hypothesis profile's example
count: the default in tier-1, ten times more under
``HYPOTHESIS_PROFILE=stateful-10x`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.balance import is_balanced_clique
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.result import BalancedClique
from repro.dynamic import DynamicSolver
from repro.resilience.budget import Budget
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

from .conftest import SOLVER_ENGINES, signed_graphs

#: Vertices of the starting graphs; edit ids range over ``-1..N``.
N = 8

ids = st.integers(min_value=-1, max_value=N)
signs = st.sampled_from((POSITIVE, NEGATIVE))

MACHINE_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    stateful_step_count=25,
    suppress_health_check=[HealthCheck.too_slow],
)


def _in_range(n: int, *vertices: int) -> bool:
    return all(0 <= v < n for v in vertices)


class SignedGraphMachine(RuleBasedStateMachine):
    """A :class:`SignedGraph` against a dict-of-signs model."""

    def __init__(self) -> None:
        super().__init__()
        self.graph = SignedGraph(N)
        self.n = N
        self.signs: dict[tuple[int, int], int] = {}

    def _masks(self) -> tuple[list[int], list[int]]:
        """The graph's mask lists, building no row."""
        return self.graph.adjacency_rows(())

    def _model(self) -> tuple[list[int], list[int], list[list[int]]]:
        """The model's positive and negative masks and its ascending
        neighbour lists."""
        n = self.n
        pos = [0] * n
        neg = [0] * n
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for (u, v), sign in self.signs.items():
            masks = pos if sign == POSITIVE else neg
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            adjacency[u].add(v)
            adjacency[v].add(u)
        return pos, neg, [sorted(nbrs) for nbrs in adjacency]

    def _edge_edit(self, edit, u: int, v: int, *args: int) -> object:
        """Run an edge edit; the cached masks must be patched in
        place, never replaced."""
        before = self._masks()
        result = edit(u, v, *args)
        after = self._masks()
        assert after[0] is before[0] and after[1] is before[1]
        return result

    @rule(rows=st.none() | st.lists(st.integers(0, N), max_size=N),
          which=st.sampled_from(["masks", "neighbors", "both"]))
    def ask_for_rows(self, rows: "list[int] | None", which: str) -> None:
        """Ask for some rows (every row for ``None``): each one asked
        for is then built and matches the model."""
        if rows is not None:
            rows = [v for v in rows if v < self.n]
        wanted = range(self.n) if rows is None else rows
        pos, neg, adjacency = self._model()
        if which != "neighbors":
            got_pos, got_neg = self.graph.adjacency_rows(rows)
            for v in wanted:
                assert (got_pos[v], got_neg[v]) == (pos[v], neg[v])
        if which != "masks":
            lists = self.graph.neighbor_rows(rows)
            for v in wanted:
                assert lists[v] == adjacency[v]

    @rule(u=ids, v=ids, sign=signs)
    def add_edge(self, u: int, v: int, sign: int) -> None:
        key = (min(u, v), max(u, v))
        if u == v or not _in_range(self.n, u, v) \
                or self.signs.get(key) == -sign:
            with pytest.raises(ValueError):
                self._edge_edit(self.graph.add_edge, u, v, sign)
            return
        added = self._edge_edit(self.graph.add_edge, u, v, sign)
        assert added == (key not in self.signs)
        self.signs[key] = sign

    @rule(u=ids, v=ids)
    def remove_edge(self, u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if not _in_range(self.n, u, v):
            with pytest.raises(ValueError):
                self._edge_edit(self.graph.remove_edge, u, v)
        elif key not in self.signs:
            with pytest.raises(KeyError):
                self._edge_edit(self.graph.remove_edge, u, v)
        else:
            assert self._edge_edit(self.graph.remove_edge, u, v) \
                == self.signs.pop(key)

    @rule(u=ids, v=ids)
    def flip_sign(self, u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        if not _in_range(self.n, u, v):
            with pytest.raises(ValueError):
                self._edge_edit(self.graph.flip_sign, u, v)
        elif key not in self.signs:
            with pytest.raises(KeyError):
                self._edge_edit(self.graph.flip_sign, u, v)
        else:
            self.signs[key] = -self.signs[key]
            assert self._edge_edit(self.graph.flip_sign, u, v) \
                == self.signs[key]

    @rule(v=ids)
    def isolate_vertex(self, v: int) -> None:
        if not _in_range(self.n, v):
            with pytest.raises(ValueError):
                self.graph.isolate_vertex(v)
            return
        self.graph.isolate_vertex(v)
        self.signs = {key: sign for key, sign in self.signs.items()
                      if v not in key}

    @rule()
    def add_vertex(self) -> None:
        assert self.graph.add_vertex() == self.n
        self.n += 1

    @invariant()
    def matches_model(self) -> None:
        graph, n = self.graph, self.n
        graph.validate()
        assert graph.num_vertices == n
        assert {(u, v): sign for u, v, sign in graph.edges()} \
            == self.signs
        pos, neg, adjacency = self._model()
        # Asking for the built rows builds nothing; every other row
        # must raise on use, never read as an empty mask or list.
        built_masks, built_lists = graph.built_rows()
        got_pos, got_neg = graph.adjacency_rows(built_masks)
        lists = graph.neighbor_rows(built_lists)
        assert graph.built_rows() == (built_masks, built_lists)
        assert len(got_pos) == len(got_neg) == len(lists) == n
        for v in range(n):
            if v in built_masks:
                assert (got_pos[v], got_neg[v]) == (pos[v], neg[v])
            else:
                with pytest.raises(LookupError):
                    bool(got_pos[v] | got_neg[v])
            if v in built_lists:
                assert lists[v] == adjacency[v]
            else:
                with pytest.raises(LookupError):
                    len(lists[v])
        fresh = SignedGraph.from_signed_edges(
            n, [(u, v, sign) for (u, v), sign in self.signs.items()])
        assert graph.fingerprint() == graph.copy().fingerprint() \
            == fresh.fingerprint()


class DynamicSolverMachine(RuleBasedStateMachine):
    """A :class:`DynamicSolver` whose graph is also edited directly.

    Each answer is compared with a set-engine solve of a copy of the
    current graph: an ``OPTIMAL`` answer must equal it, a truncated
    one may fall short but must be backed by its witness.
    """

    def __init__(self, engine: str) -> None:
        super().__init__()
        self.engine = engine
        self.solver: DynamicSolver | None = None
        #: The last witness ``solve()`` or ``beta()`` returned.
        self.incumbent: BalancedClique | None = None

    @initialize(graph=signed_graphs(max_vertices=N, min_vertices=N),
                tau=st.integers(min_value=1, max_value=3))
    def build(self, graph: SignedGraph, tau: int) -> None:
        self.solver = DynamicSolver(graph, tau, engine=self.engine)

    @property
    def graph(self) -> SignedGraph:
        assert self.solver is not None
        return self.solver.graph

    def _edit(self, target: object, name: str, *args: int) -> None:
        """Apply one edit through ``target`` (the solver or the graph),
        expecting exactly what the same edit does to a copy."""
        mirror = self.graph.copy()
        try:
            expected = getattr(mirror, name)(*args)
        except (ValueError, KeyError) as error:
            with pytest.raises(type(error)):
                getattr(target, name)(*args)
            return
        assert getattr(target, name)(*args) == expected

    @rule(u=ids, v=ids, sign=signs)
    def solver_add(self, u: int, v: int, sign: int) -> None:
        self._edit(self.solver, "add_edge", u, v, sign)

    @rule(u=ids, v=ids)
    def solver_remove(self, u: int, v: int) -> None:
        self._edit(self.solver, "remove_edge", u, v)

    @rule(u=ids, v=ids)
    def solver_flip(self, u: int, v: int) -> None:
        self._edit(self.solver, "flip_sign", u, v)

    @rule(pick=st.integers(min_value=0, max_value=63))
    def flip_in_incumbent(self, pick: int) -> None:
        """Flip an edge between two members of the last witness, so the
        next call re-checks a cached witness that was re-split or
        broken (an edge removed since then raises, as on the copy)."""
        if self.incumbent is None or self.incumbent.size < 2:
            return
        members = sorted(self.incumbent.vertices)
        pairs = [(u, v) for i, u in enumerate(members)
                 for v in members[i + 1:]]
        self._edit(self.solver, "flip_sign", *pairs[pick % len(pairs)])

    @rule(u=ids, v=ids, sign=signs)
    def direct_add(self, u: int, v: int, sign: int) -> None:
        self._edit(self.graph, "add_edge", u, v, sign)

    @rule(u=ids, v=ids)
    def direct_remove(self, u: int, v: int) -> None:
        self._edit(self.graph, "remove_edge", u, v)

    @rule(v=ids)
    def direct_isolate(self, v: int) -> None:
        self._edit(self.graph, "isolate_vertex", v)

    @rule()
    def direct_add_vertex(self) -> None:
        self.graph.add_vertex()

    def _check_witness(self, clique: BalancedClique, tau: int) -> None:
        if not clique.is_empty:
            assert is_balanced_clique(self.graph, clique.vertices, tau)
            # The sides too: a flip can re-split a still-balanced clique.
            assert clique == BalancedClique.from_vertices(
                self.graph, clique.vertices)

    @rule(max_nodes=st.none() | st.integers(min_value=0, max_value=5))
    def solve(self, max_nodes: int | None) -> None:
        assert self.solver is not None
        tau = self.solver.tau
        budget = None if max_nodes is None else Budget(max_nodes=max_nodes)
        result = self.solver.solve(budget)
        self.incumbent = result.clique
        optimum = mbc_star(self.graph.copy(), tau, engine="set").size
        self._check_witness(result.clique, tau)
        assert result.lower_bound == result.clique.size
        if max_nodes is None:
            assert result.optimal
        if result.optimal:
            assert result.clique.size == optimum
        else:
            assert result.clique.size <= optimum

    @rule(max_nodes=st.none() | st.integers(min_value=0, max_value=5))
    def beta(self, max_nodes: int | None) -> None:
        assert self.solver is not None
        budget = None if max_nodes is None else Budget(max_nodes=max_nodes)
        value, witness = self.solver.beta(budget, return_witness=True)
        self.incumbent = witness
        exact = pf_star(self.graph.copy(), engine="set")
        self._check_witness(witness, 0)
        assert witness.polarization == value
        if budget is None or not budget.exhausted:
            assert value == exact
        else:
            assert value <= exact


def test_signed_graph_machine():
    run_state_machine_as_test(SignedGraphMachine,
                              settings=MACHINE_SETTINGS)


@pytest.mark.parametrize("engine", SOLVER_ENGINES)
def test_dynamic_solver_machine(engine):
    run_state_machine_as_test(lambda: DynamicSolverMachine(engine),
                              settings=MACHINE_SETTINGS)
