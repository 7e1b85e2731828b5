"""Randomized differential harness for the solver stack.

The strongest correctness statement the repo can make: on a seeded
family of ~200 small random signed graphs, the optimized solvers, the
enumeration baseline, and the exponential brute-force oracle must all
agree on every optimum — across every available kernel engine
(set, bitset, and numpy when installed), across
worker counts, and with tracing on or off (observability must never
perturb a result).

The seed family is shifted by ``REPRO_PROPERTY_SEED`` (default 0), so
CI runs the harness on disjoint seed windows without any test edit:

    REPRO_PROPERTY_SEED=1000 pytest tests/test_property.py

Every graph is small (n <= 10) so the brute-force oracle from
:mod:`repro.core.bruteforce` stays fast; the harness still covers the
full pipeline (reductions, heuristic, core pruning, ego sweeps)
because density and sign mix vary per seed.
"""

import os
import random

import pytest

from repro.core.bruteforce import (
    brute_force_maximum_balanced_clique,
    brute_force_polarization_factor,
)
from repro.core.mbc_baseline import mbc_baseline
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.heuristic import mbc_heuristic
from repro.core.reductions import degrees_inside, vertex_reduction
from repro.core.result import BalancedClique
from repro.datasets.registry import dataset_names, load
from repro.dynamic import DynamicSolver, apply_edit, random_edits
from repro.kernels.active import degeneracy_ordering_array, \
    degeneracy_ordering_mask, k_core_active_mask, k_core_array
from repro.kernels.bitset import bits_of, mask_of
from repro.obs import get_tracer
from repro.parallel import dispatch as dispatch_module
from repro.parallel import engine as engine_module
from repro.signed.graph import SignedGraph
from repro.unsigned.graph import UnsignedGraph
from repro.unsigned.ordering import degeneracy_ordering

from .conftest import PARALLEL_ENGINES, SOLVER_ENGINES
from .test_ego import assert_ego_peels_match

#: Base of this run's seed window (CI varies it per matrix job).
BASE_SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "0"))

#: Seeds exercised by the full differential sweep.
SWEEP = 200

#: Worker counts cost a process pool per solve, so they run on a
#: subsample of the sweep.
PARALLEL_SAMPLE = 10


def random_graph(seed: int) -> SignedGraph:
    """Small random signed graph; density and sign mix vary by seed."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    density = rng.uniform(0.2, 0.9)
    negative_ratio = rng.uniform(0.1, 0.9)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                sign = -1 if rng.random() < negative_ratio else 1
                graph.add_edge(u, v, sign)
    return graph


def larger_graph(seed: int) -> SignedGraph:
    """A random signed graph of 20-60 vertices: too big for the
    oracles, big enough for multi-round peels."""
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    density = rng.uniform(0.15, 0.75)
    negative_ratio = rng.uniform(0.2, 0.8)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, -1 if rng.random() < negative_ratio
                               else 1)
    return graph


def core_orders(graph: SignedGraph, alive: int,
                k: int) -> "tuple[list[int], list[int]]":
    """The degeneracy order of ``graph``'s ``k``-core inside ``alive``,
    once from the masks and once from the cached neighbour rows (the
    path MBC* runs); the two peels must keep the same core."""
    unsigned = [p | q for p, q in zip(graph.pos_adjacency_bits(),
                                      graph.neg_adjacency_bits())]
    core_mask = k_core_active_mask(unsigned, k, alive)
    members = bits_of(alive)
    degree = degrees_inside(graph, members, alive)
    neighbors = graph.neighbor_rows(members)
    inside = k_core_array(neighbors, k, members, degree)
    core = [v for v in members if inside[v]]
    assert core == bits_of(core_mask)
    return (degeneracy_ordering_mask(unsigned, core_mask),
            degeneracy_ordering_array(neighbors, core, degree))


def whole_graph_mask_order(graph: SignedGraph) -> "list[int]":
    """The degeneracy order of all of ``graph`` from the OR-ed masks,
    the way the dynamic solver ordered before it took MBC*'s peel."""
    unsigned = [p | q for p, q in zip(graph.pos_adjacency_bits(),
                                      graph.neg_adjacency_bits())]
    return degeneracy_ordering_mask(unsigned, graph.all_bits())


def assert_valid(clique: BalancedClique, graph: SignedGraph,
                 tau: int) -> None:
    if clique.is_empty:
        return
    rebuilt = BalancedClique.from_vertices(graph, clique.vertices)
    assert rebuilt.size == clique.size
    assert clique.satisfies(tau)


class TestMbcDifferential:
    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP))
    def test_solvers_agree_with_oracle(self, seed):
        graph = random_graph(seed)
        tau = seed % 3
        oracle = brute_force_maximum_balanced_clique(graph, tau)

        baseline = mbc_baseline(graph, tau)
        assert baseline.size == oracle.size
        assert_valid(baseline, graph, tau)

        for engine in SOLVER_ENGINES:
            for trace in (None, get_tracer(True)):
                result = mbc_star(graph, tau, engine=engine,
                                  trace=trace)
                assert result.size == oracle.size, (
                    f"seed={seed} tau={tau} engine={engine} "
                    f"traced={trace is not None}: "
                    f"{result.size} != oracle {oracle.size}")
                assert_valid(result, graph, tau)

    @pytest.mark.parametrize(
        "seed",
        range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // PARALLEL_SAMPLE))
    def test_parallel_workers_agree(self, seed):
        graph = random_graph(seed)
        tau = seed % 3
        serial = mbc_star(graph, tau, engine="bitset")
        for engine in PARALLEL_ENGINES:
            for trace in (None, get_tracer(True)):
                fanned = mbc_star(graph, tau, engine=engine,
                                  parallel=2, trace=trace)
                assert fanned.size == serial.size, engine
                assert_valid(fanned, graph, tau)


class TestPfDifferential:
    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 4))
    def test_pf_star_matches_oracle(self, seed):
        graph = random_graph(seed)
        oracle = brute_force_polarization_factor(graph)
        for engine in SOLVER_ENGINES:
            for trace in (None, get_tracer(True)):
                assert pf_star(graph, engine=engine,
                               trace=trace) == oracle

    @pytest.mark.parametrize(
        "seed",
        range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // PARALLEL_SAMPLE))
    def test_parallel_workers_agree(self, seed):
        graph = random_graph(seed)
        serial = pf_star(graph, engine="bitset")
        for engine in PARALLEL_ENGINES:
            assert pf_star(graph, engine=engine,
                           parallel=2) == serial, engine


@pytest.fixture(params=["pool", "in-process"])
def forced_fanout(request, monkeypatch):
    """Open the pool gate for every task list, so ``parallel=2`` runs
    the fan-out even on the harness's small graphs: through a real
    pool, or through the in-process chunk runner of a platform that
    cannot start one."""
    monkeypatch.setattr(engine_module, "MIN_POOL_TASKS", 0)
    monkeypatch.setattr(engine_module, "MIN_POOL_WORK", 0)
    if request.param == "in-process":
        monkeypatch.setattr(dispatch_module, "FORCE_START_METHOD", "none")
    return request.param


def assert_fanouts_ran(tracer, mode: str) -> None:
    """Every ``fanout`` span of a traced solve ran where ``mode`` says."""
    for record in tracer.records:
        if record["name"] == "fanout":
            assert record["attrs"]["pooled"] is (mode == "pool"), mode


class TestForcedFanOutDifferential:
    """The fan-out against the serial sweep on the seed window.

    Every graph of the harness sits below the pool gate, where
    ``parallel=2`` runs the serial sweep, so the cells above compare
    serial with serial.  Here the gate is forced open: the fan-outs
    (``mbc_ego_fanout``, ``pf_round_fanout``) and both of their
    runners, a real pool and the in-process chunk runner, are checked
    against the serial sweep on every window of the CI matrix.
    """

    @pytest.mark.parametrize(
        "seed",
        range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // PARALLEL_SAMPLE))
    def test_mbc_fanout_agrees(self, seed, forced_fanout):
        graph = random_graph(seed)
        tau = seed % 3
        serial = mbc_star(graph, tau, engine="bitset")
        for engine in PARALLEL_ENGINES:
            for trace in (None, get_tracer(True)):
                fanned = mbc_star(graph, tau, engine=engine,
                                  parallel=2, trace=trace)
                assert fanned.size == serial.size, (
                    f"seed={seed} engine={engine} {forced_fanout}")
                assert_valid(fanned, graph, tau)
                if trace is not None:
                    assert_fanouts_ran(trace, forced_fanout)

    @pytest.mark.parametrize(
        "seed",
        range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // PARALLEL_SAMPLE))
    def test_pf_fanout_agrees(self, seed, forced_fanout):
        graph = random_graph(seed)
        serial = pf_star(graph, engine="bitset")
        for engine in PARALLEL_ENGINES:
            tracer = get_tracer(True)
            beta, witness = pf_star(graph, engine=engine, parallel=2,
                                    return_witness=True, trace=tracer)
            assert beta == serial, (
                f"seed={seed} engine={engine} {forced_fanout}")
            assert witness.polarization >= beta
            # A fan-out whose first round has nothing pending
            # dispatches nothing and starts no pool.
            if any(r["name"] == "round" for r in tracer.records):
                assert_fanouts_ran(tracer, forced_fanout)

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_mask_engines_return_identical_fanout_cliques(
            self, seed, monkeypatch):
        """In the in-process runner the fan-out's chunks run in a
        fixed order, so bitset and numpy, which share every tie-break,
        must return the same witness there too."""
        monkeypatch.setattr(engine_module, "MIN_POOL_TASKS", 0)
        monkeypatch.setattr(engine_module, "MIN_POOL_WORK", 0)
        monkeypatch.setattr(dispatch_module, "FORCE_START_METHOD", "none")
        graph = random_graph(seed)
        tau = seed % 3
        reference = mbc_star(graph, tau, engine="bitset", parallel=2)
        for engine in PARALLEL_ENGINES:
            result = mbc_star(graph, tau, engine=engine, parallel=2)
            assert result.vertices == reference.vertices, (
                f"seed={seed} engine={engine}")


class TestDeterminism:
    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_repeated_solves_return_identical_cliques(self, seed):
        graph = random_graph(seed)
        tau = seed % 3
        for engine in SOLVER_ENGINES:
            first = mbc_star(graph, tau, engine=engine)
            second = mbc_star(graph, tau, engine=engine)
            assert first.vertices == second.vertices
            assert first.left == second.left
            assert first.right == second.right

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_tracing_returns_the_identical_clique(self, seed):
        """Tracing must not perturb the solve: not only the optimum
        size but the exact witness must match the untraced run."""
        graph = random_graph(seed)
        tau = seed % 3
        for engine in SOLVER_ENGINES:
            plain = mbc_star(graph, tau, engine=engine)
            traced = mbc_star(graph, tau, engine=engine,
                              trace=get_tracer(True))
            assert traced.vertices == plain.vertices

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_mask_engines_return_identical_cliques(self, seed):
        """bitset and numpy share every tie-break (lowest vertex id),
        so at the same worker count they must return the *same
        witness*, not just the same size.  (The parallel sweep plans
        tasks in cost order, so a fan-out witness may legitimately
        differ from the serial one — the comparison is per cell.)"""
        graph = random_graph(seed)
        tau = seed % 3
        for workers in (1, 2):
            reference = mbc_star(graph, tau, engine="bitset",
                                 parallel=workers)
            for engine in PARALLEL_ENGINES:
                result = mbc_star(graph, tau, engine=engine,
                                  parallel=workers)
                assert result.vertices == reference.vertices, (
                    f"seed={seed} engine={engine} workers={workers}")


class TestOrderingRegression:
    """Pinned degeneracy-ordering behaviour.

    The property harness above found no determinism bug in the solver
    stack, so per the issue this pins the subtlest ordering the sweep
    depends on: bucket-queue degeneracy peeling with deterministic
    tie-breaks (insertion order within a degree bucket).
    """

    def test_peeling_order_on_degenerate_ties(self):
        # 0-1-2 path plus an isolated vertex 3 and a triangle 4-5-6:
        # all ties must break by vertex id / insertion order, pinned.
        graph = UnsignedGraph(7)
        for u, v in [(0, 1), (1, 2), (4, 5), (4, 6), (5, 6)]:
            graph.add_edge(u, v)
        assert degeneracy_ordering(graph) == [3, 0, 2, 1, 4, 5, 6]

    def test_order_is_a_permutation_and_stable(self):
        rng = random.Random(BASE_SEED + 7)
        graph = UnsignedGraph(12)
        for u in range(12):
            for v in range(u + 1, 12):
                if rng.random() < 0.4:
                    graph.add_edge(u, v)
        order = degeneracy_ordering(graph)
        assert sorted(order) == list(range(12))
        assert order == degeneracy_ordering(graph)

    def test_empty_graph(self):
        assert degeneracy_ordering(UnsignedGraph(0)) == []
        assert degeneracy_ordering(UnsignedGraph(3)) == [0, 1, 2]

    @pytest.mark.parametrize("name", dataset_names())
    def test_array_order_equals_mask_order_on_stand_in_cores(self, name):
        # The |C*|-core MBC*(G, 3) orders: VertexReduction survivors,
        # then the core that can still beat the heuristic.
        graph = load(name, scale=1.0)
        alive = mask_of(vertex_reduction(graph, 3))
        heuristic = mbc_heuristic(graph, 3, alive=alive)
        required = max(heuristic.size + 1, 6)
        mask_order, array_order = core_orders(graph, alive, required - 1)
        assert array_order == mask_order

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_array_order_equals_mask_order_on_seeded_graphs(self, seed):
        for graph in (random_graph(seed), larger_graph(seed)):
            for k in range(5):
                mask_order, array_order = core_orders(
                    graph, graph.all_bits(), k)
                assert array_order == mask_order, (seed, k)

    @pytest.mark.parametrize("name", dataset_names())
    def test_dynamic_order_equals_mask_order_on_stand_ins(self, name):
        graph = load(name, scale=1.0)
        assert DynamicSolver(graph, 3)._order == \
            whole_graph_mask_order(graph)

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_dynamic_order_equals_mask_order_on_seeded_graphs(self, seed):
        for graph in (random_graph(seed), larger_graph(seed)):
            solver = DynamicSolver(graph, 3)
            assert solver._order == whole_graph_mask_order(graph), seed
            # A direct edit forces a rebuild, which reorders the
            # edited graph from a fresh neighbour array.
            graph.isolate_vertex(seed % graph.num_vertices)
            solver.solve()
            assert solver._order == whole_graph_mask_order(graph), seed


class TestEgoPeelDifferential:
    """The bitset ego steps decide core prunes on the global masks
    before building ``g_u``; on larger graphs than the oracle sweeps,
    that peel keeps exactly the vertices of the built network's
    ``(required - 2)``-core and ``(bar, bar + 1)``-core."""

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, 10))
    def test_global_mask_peels_match_network_cores(self, seed):
        assert_ego_peels_match(larger_graph(seed), ks=range(1, 8),
                               bars=range(5))


class TestDynamicDifferential:
    """Seeded random edit scripts against the incremental solver.

    After *every* edit the dynamic solver's cached-bound answer must
    equal a from-scratch full solve of the live graph — optimum size,
    witness validity, and ``beta(G)`` — across every engine, and a
    full solve at ``parallel=2`` on a subsample (the dynamic solver
    itself is always serial).  This is the streaming analogue of
    the static differential sweep above, and the direct check that
    dirty-ego invalidation never reuses a stale certified bound.
    """

    EDITS = 10

    def _check_step(self, solver: DynamicSolver, engine: str,
                    workers: int, context: str) -> None:
        graph = solver.graph
        result = solver.solve()
        full = mbc_star(graph, solver.tau, engine=engine,
                        parallel=workers)
        assert result.clique.size == full.size, (
            f"{context}: incremental {result.clique.size} "
            f"!= full {full.size}")
        assert result.optimal
        assert_valid(result.clique, graph, solver.tau)
        assert solver.beta() == pf_star(
            graph, engine=engine, parallel=workers), (
            f"{context}: beta mismatch")

    def _run_script(self, seed: int, engine: str,
                    workers: int) -> None:
        graph = random_graph(seed)
        tau = max(1, seed % 3)
        solver = DynamicSolver(graph, tau, engine=engine)
        context = f"seed={seed} engine={engine} workers={workers}"
        self._check_step(solver, engine, workers, f"{context} step=0")
        for step, edit in enumerate(
                random_edits(graph, self.EDITS, seed=seed + 1),
                start=1):
            apply_edit(solver, edit)
            self._check_step(
                solver, engine, workers,
                f"{context} step={step} edit={edit.as_line()!r}")

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // 20))
    def test_edit_scripts_match_full_resolve(self, seed):
        for engine in SOLVER_ENGINES:
            self._run_script(seed, engine, workers=1)

    @pytest.mark.parametrize(
        "seed",
        range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // PARALLEL_SAMPLE))
    def test_edit_scripts_match_under_fanout(self, seed):
        for engine in PARALLEL_ENGINES:
            self._run_script(seed, engine, workers=2)


class TestServeDifferential:
    """Served answers must equal direct in-process solves.

    For a seeded family of random graphs, every answer the HTTP
    daemon returns — a cold solve, a cache hit, and a post-edit solve
    against a registered resident graph — is compared against the
    corresponding direct library call (the daemon always runs the
    default engine) for all three problems.  This is the proof that
    the serving layer (wire codec, cache keying, coalescing, resident
    solvers) is a transport, not a second solver.
    """

    EDITS = 6

    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import BackgroundServer, SolverService

        with BackgroundServer(SolverService()) as running:
            yield running

    def _solve(self, server, payload: dict) -> dict:
        from .test_serve import post

        status, body = post(server, "/solve", payload)
        assert status == 200, body
        assert body["status"] == "optimal"
        return body

    def _check_problems(self, server, spec, graph: SignedGraph,
                        tau: int, context: str) -> None:
        from repro.core.gmbc import gmbc_star
        from repro.core.result import SolveResult

        body = self._solve(server, {
            "graph": spec, "problem": "mbc", "tau": tau})
        served = SolveResult.from_json(body["result"])
        direct = mbc_star(graph, tau)
        assert served.clique.size == direct.size, context
        assert_valid(served.clique, graph, tau)

        body = self._solve(server, {
            "graph": spec, "problem": "pf"})
        assert body["beta"] == pf_star(graph), context
        witness = SolveResult.from_json(body["result"]).clique
        # Every pf path — direct, cached, resident — must back the
        # bound with a witness achieving it (empty only at beta 0).
        assert witness.polarization == body["beta"], context
        if not witness.is_empty:
            assert_valid(witness, graph, 0)

        body = self._solve(server, {
            "graph": spec, "problem": "gmbc"})
        direct_sweep = gmbc_star(graph)
        assert len(body["result"]["cliques"]) == len(direct_sweep), \
            context
        for sweep_tau, (payload, clique) in enumerate(
                zip(body["result"]["cliques"], direct_sweep)):
            assert BalancedClique.from_json(payload).size == \
                clique.size, f"{context} tau={sweep_tau}"

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // 10))
    def test_cold_and_cached_answers_match_direct(self, server, seed):
        from repro.serve.protocol import graph_from_inline

        from .test_serve import edges_of, post

        tau = seed % 3
        spec = {"edges": edges_of(random_graph(seed))}
        # The serve daemon parses inline edges through read_edge_list,
        # which ids vertices by first appearance — the in-process
        # reference must be the graph parsed the same way, not the
        # pre-serialisation original.
        graph = graph_from_inline(spec)
        post(server, "/cache/clear", {})
        self._check_problems(
            server, spec, graph, tau, f"seed={seed} cold")
        # Second pass answers from the cache; must be identical.
        self._check_problems(
            server, spec, graph, tau, f"seed={seed} cached")

    @pytest.mark.parametrize(
        "seed", range(BASE_SEED, BASE_SEED + SWEEP, SWEEP // 10))
    def test_post_edit_answers_match_direct(self, server, seed):
        from repro.serve.protocol import graph_from_inline

        from .test_serve import edges_of, post

        tau = max(1, seed % 3)
        spec = {"edges": edges_of(random_graph(seed))}
        name = f"diff-{seed}"
        status, _ = post(server, "/graphs", {
            "name": name, "graph": spec, "tau": tau})
        assert status == 200
        # Mirror the server's resident graph locally, parsing the
        # inline spelling the same way the server does (vertex ids
        # are assigned by first appearance); random_edits draws each
        # edit against the *current* state, so apply as we collect.
        mirror = DynamicSolver(graph_from_inline(spec), tau)
        lines = []
        for edit in random_edits(mirror.graph, self.EDITS,
                                 seed=seed + 1):
            apply_edit(mirror, edit)
            lines.append(edit.as_line())
        status, body = post(server, f"/graphs/{name}/edits", {
            "edits": lines})
        assert status == 200, body
        assert body["applied"] == len(lines)
        assert body["fingerprint"] == mirror.graph.fingerprint()
        self._check_problems(
            server, f"graph:{name}", mirror.graph, tau,
            f"seed={seed} post-edit")
