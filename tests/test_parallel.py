"""Tests for the parallel ego-network fan-out engine.

Three layers:

* the planning primitives (task lists, cost ordering, viability bound,
  chunking, suffix masks) against the serial sweep's accumulation;
* the plumbing (shared incumbent semantics, byte-blob mask round-trip,
  worker-context pack/unpack for spawn pools);
* the pool gate (:func:`~repro.parallel.engine.pool_pays`) and the
  per-task costs MBC* and PF* feed it;
* end-to-end equivalence of the fan-out engines against the serial
  sweeps, below the gate, through the in-process fallback, a real
  ``fork`` pool (``MIN_POOL_TASKS`` and ``MIN_POOL_WORK``
  monkeypatched to 0 so small graphs still dispatch) and a forced
  ``spawn`` pool.
"""

import math
import multiprocessing
import random

import pytest

from repro.core import pf as pf_module
from repro.core.gmbc import gmbc_star
from repro.core.heuristic import mbc_heuristic
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.reductions import degrees_inside, polar_core_numbers, \
    vertex_reduction
from repro.core.result import BalancedClique
from repro.core.stats import SearchStats
from repro.datasets.registry import load
from repro.kernels.active import degeneracy_ordering_array, k_core_array, \
    suffix_masks
from repro.kernels.bitset import mask_of, mask_stride, masks_from_bytes, \
    masks_to_bytes
from repro.obs import get_tracer
from repro.parallel import dispatch as dispatch_module
from repro.parallel import engine as engine_module
from repro.parallel.engine import pool_pays, resolve_workers
from repro.parallel.incumbent import SharedIncumbent
from repro.parallel.tasks import EgoTask, chunk_vertices, cost_ordered, \
    is_viable, peel_costs, plan_tasks, planned_later
from repro.parallel.worker import WorkerContext
from repro.signed.graph import SignedGraph


def random_signed_graph(seed: int, n: int = 40,
                        density: float = 0.3) -> SignedGraph:
    rng = random.Random(seed)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, 1 if rng.random() < 0.6 else -1)
    return graph


def assert_valid(clique: BalancedClique, graph: SignedGraph, tau: int):
    if clique.is_empty:
        return
    rebuilt = BalancedClique.from_vertices(graph, clique.vertices)
    assert rebuilt.size == clique.size
    assert clique.satisfies(tau)


@pytest.fixture
def pool_always(monkeypatch):
    """Force the pool path even for tiny task lists."""
    monkeypatch.setattr(engine_module, "MIN_POOL_TASKS", 0)
    monkeypatch.setattr(engine_module, "MIN_POOL_WORK", 0)


class TestTaskPlanning:
    def test_plan_matches_serial_accumulation(self):
        graph = random_signed_graph(3, n=20)
        pos = graph.pos_adjacency_bits()
        neg = graph.neg_adjacency_bits()
        order = list(range(20))
        random.Random(7).shuffle(order)
        tasks = plan_tasks(pos, neg, order)
        assert [t.u for t in tasks] == list(reversed(order))
        # Reproduce the serial reverse sweep's mask accumulation.
        allowed = 0
        by_u = {t.u: t for t in tasks}
        for u in reversed(order):
            task = by_u[u]
            assert task.allowed_mask == allowed
            assert task.pos_count == (pos[u] & allowed).bit_count()
            assert task.neg_count == (neg[u] & allowed).bit_count()
            allowed |= 1 << u

    def test_suffix_masks_match_plan(self):
        order = [4, 1, 3, 0, 2]
        masks = suffix_masks(order)
        for position, u in enumerate(order):
            assert masks[u] == mask_of(order[position + 1:])

    def test_cost_ordered_deterministic(self):
        tasks = [EgoTask(u, 0, u % 3, (u * 7) % 4) for u in range(12)]
        ordered = cost_ordered(tasks)
        costs = [t.cost for t in ordered]
        assert costs == sorted(costs, reverse=True)
        # Ties broken by vertex id: stable across runs.
        assert ordered == cost_ordered(list(reversed(tasks)))

    def test_is_viable_bounds(self):
        # required=6, tau=2: needs >= 5 candidates, >= 1 positive,
        # >= 2 negative.
        assert is_viable(EgoTask(0, 0, 2, 3), 6, 2)
        assert not is_viable(EgoTask(0, 0, 2, 2), 6, 2)   # too few total
        assert not is_viable(EgoTask(0, 0, 0, 5), 6, 2)   # no L side
        assert not is_viable(EgoTask(0, 0, 4, 1), 6, 2)   # no R side

    def test_chunk_vertices_partitions(self):
        vertices = list(range(100))
        chunks = chunk_vertices(vertices, 4)
        assert [v for chunk in chunks for v in chunk] == vertices
        assert all(chunks)
        assert chunk_vertices([], 4) == []
        assert chunk_vertices(vertices, 4, chunk_size=7) == \
            [vertices[i:i + 7] for i in range(0, 100, 7)]

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4


def costs_with_work(work: int, count: int) -> list[int]:
    """``count`` task costs whose squares sum to exactly ``work``."""
    costs = []
    while work:
        cost = math.isqrt(work)
        costs.append(cost)
        work -= cost * cost
    assert len(costs) <= count
    return costs + [0] * (count - len(costs))


class TestPoolGate:
    def test_pool_pays_at_the_boundaries(self):
        tasks = engine_module.MIN_POOL_TASKS
        work = engine_module.MIN_POOL_WORK
        assert pool_pays(costs_with_work(work, tasks), 2)
        # One task or one unit of work short of a threshold: no pool.
        assert not pool_pays(costs_with_work(work, tasks - 1), 2)
        assert not pool_pays(costs_with_work(work - 1, tasks), 2)
        # Ample work never buys a pool for a single worker.
        assert not pool_pays(costs_with_work(work, tasks), 1)
        assert pool_pays(costs_with_work(4 * work, 4 * tasks), 4)

    def test_thresholds_read_at_call_time(self, pool_always):
        # The pool_always fixture zeroes both module constants; the
        # gate must see them, or forced-pool tests would run serially.
        assert pool_pays([], 2)
        assert not pool_pays([], 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_mbc_peel_estimate_matches_planned_tasks(self, seed):
        # The MBC* gate reads each task's candidate count off the
        # degeneracy peel of the |C*|-core; it must equal the count
        # plan_tasks gets from the masks, task for task.
        graph = random_signed_graph(seed, n=30 + 3 * seed,
                                    density=0.15 + 0.02 * seed)
        required = 2 + seed % 5
        members = list(graph.vertices())
        degree = degrees_inside(graph, members, graph.all_bits())
        neighbors = graph.neighbor_rows()
        inside = k_core_array(neighbors, required - 1, members, degree)
        core = [v for v in members if inside[v]]
        order = degeneracy_ordering_array(neighbors, core, degree)
        costs = peel_costs(order, degree, required - 1)
        planned = [t.cost for t in plan_tasks(
            graph.pos_adjacency_bits(), graph.neg_adjacency_bits(), order)
            if t.cost + 1 >= required]
        assert sorted(costs) == sorted(planned)
        assert sum(c * c for c in costs) == sum(c * c for c in planned)
        assert planned_later(graph.pos_adjacency_bits(),
                             graph.neg_adjacency_bits(), order) \
            == [degree[v] if inside[v] else 0 for v in members]

    @pytest.mark.parametrize("reduce", [True, False],
                             ids=["reduced", "unreduced"])
    @pytest.mark.parametrize("graph", [
        load("bitcoin"), random_signed_graph(2, n=45),
        random_signed_graph(6, n=60, density=0.2)],
        ids=["bitcoin", "seed2", "seed6"])
    def test_pf_costs_cover_only_askable_vertices(self, graph, reduce,
                                                  monkeypatch):
        # Every survivor of VertexReduction(tau* + 1) has pn > tau*, so
        # the unreduced cells skip the reduction to put vertices with
        # pn <= tau* into the order: the gate must leave them out, as
        # the serial sweep's Lemma 5 break does.
        if not reduce:
            monkeypatch.setattr(pf_module, "vertex_reduction",
                                lambda g, _tau: set(g.vertices()))
        seen = []

        def spy(costs, workers):
            seen.append(list(costs))
            return False

        monkeypatch.setattr(pf_module, "pool_pays", spy)
        assert pf_star(graph, parallel=2) == pf_star(graph)
        bar = mbc_heuristic(graph, 0).polarization
        alive = mask_of(pf_module.vertex_reduction(graph, bar + 1))
        order, pn = polar_core_numbers(graph, alive)
        askable = [u for u in order if pn[u] > bar]
        assert reduce == (len(askable) == len(order))
        exact = planned_later(graph.pos_adjacency_bits(),
                              graph.neg_adjacency_bits(), order)
        [costs] = seen
        assert len(costs) == len(askable)
        # PDecompose's clamped degrees bound each count from above, by
        # at most pn per side.
        for cost, u in zip(costs, askable):
            assert exact[u] <= cost <= exact[u] + 2 * pn[u]

    @pytest.mark.parametrize("solver", ["mbc", "pf"])
    def test_forced_pool_reaches_a_real_pool(self, solver, pool_always):
        graph = random_signed_graph(4, n=45)
        tracer = get_tracer(True)
        if solver == "mbc":
            assert mbc_star(graph, 1, parallel=2, trace=tracer).size \
                == mbc_star(graph, 1).size
        else:
            assert pf_star(graph, parallel=2, trace=tracer) \
                == pf_star(graph)
        fanouts = [r for r in tracer.records if r["name"] == "fanout"]
        assert len(fanouts) == 1
        assert fanouts[0]["attrs"]["pooled"] is True


class TestSharedIncumbent:
    @pytest.mark.parametrize("ctx", [None, multiprocessing])
    def test_monotone_improve(self, ctx):
        incumbent = SharedIncumbent(5, ctx)
        assert incumbent.get() == 5
        assert incumbent.improve(7)
        assert incumbent.get() == 7
        assert not incumbent.improve(7)     # equal never "improves"
        assert not incumbent.improve(3)     # never decreases
        assert incumbent.get() == 7
        assert incumbent.shared == (ctx is not None)

    def test_from_value_shares_register(self):
        original = SharedIncumbent(2, multiprocessing)
        rewrapped = SharedIncumbent.from_value(original._value)
        assert rewrapped.get() == 2
        rewrapped.improve(9)
        assert original.get() == 9

    @pytest.mark.parametrize("ctx", [None, multiprocessing])
    def test_reset_drops_orphaned_publications(self, ctx):
        # Recovery-path escape hatch: the dispatcher resets to the
        # certified floor between a pool failure and the re-dispatch
        # (no live workers), abandoning monotonicity on purpose.
        incumbent = SharedIncumbent(3, ctx)
        incumbent.improve(9)
        incumbent.reset(3)
        assert incumbent.get() == 3
        assert incumbent.improve(4)


class TestMaskBlobs:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65])
    def test_round_trip(self, n):
        rng = random.Random(n)
        masks = [rng.getrandbits(n) for _ in range(n)]
        blob = masks_to_bytes(masks, n)
        assert len(blob) == mask_stride(n) * n
        assert masks_from_bytes(blob, n) == masks

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            masks_from_bytes(b"\x00", 3)

    def test_worker_context_pack_round_trip(self):
        graph = random_signed_graph(11, n=25)
        order = list(range(25))
        ctx = WorkerContext(
            graph.pos_adjacency_bits(), graph.neg_adjacency_bits(),
            25, 2, order, SharedIncumbent(4), use_core=False,
            use_coloring=True, want_stats=True)
        packed = ctx.pack()
        rebuilt = WorkerContext.unpack(packed, SharedIncumbent(4))
        assert rebuilt.pos_bits == ctx.pos_bits
        assert rebuilt.neg_bits == ctx.neg_bits
        assert (rebuilt.n, rebuilt.tau, rebuilt.order) == (25, 2, order)
        assert (rebuilt.use_core, rebuilt.use_coloring,
                rebuilt.want_stats) == (False, True, True)
        assert rebuilt.allowed(order[0]) == ctx.allowed(order[0])


class TestFanOutEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_mbc_in_process_fallback(self, seed):
        # Small graphs stay below the pool gate (pool_pays), so
        # parallel=2 runs the serial sweep; the in-process chunk
        # runner is covered by test_no_pool_platform_falls_back.
        graph = random_signed_graph(seed, n=18)
        tau = seed % 3
        serial = mbc_star(graph, tau)
        fanned = mbc_star(graph, tau, parallel=2)
        assert serial.size == fanned.size
        assert_valid(fanned, graph, tau)

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_mbc_with_real_pool(self, seed, pool_always):
        graph = random_signed_graph(seed, n=45)
        for tau in (1, 2):
            serial = mbc_star(graph, tau)
            fanned = mbc_star(graph, tau, parallel=3)
            assert serial.size == fanned.size
            assert_valid(fanned, graph, tau)

    @pytest.mark.parametrize("seed", [1, 6])
    def test_pf_with_real_pool(self, seed, pool_always):
        graph = random_signed_graph(seed, n=45)
        serial = pf_star(graph)
        fanned, witness = pf_star(graph, parallel=2,
                                  return_witness=True)
        assert serial == fanned
        assert_valid(witness, graph, 0)
        assert witness.polarization >= fanned

    @pytest.mark.parametrize("seed", [2, 8])
    def test_gmbc_profile(self, seed, pool_always):
        graph = random_signed_graph(seed, n=35)
        serial = gmbc_star(graph)
        fanned = gmbc_star(graph, parallel=2)
        assert [c.size for c in serial] == [c.size for c in fanned]
        for tau, clique in enumerate(fanned):
            assert_valid(clique, graph, tau)

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="platform lacks the spawn start method")
    def test_mbc_spawn_pool(self, pool_always, monkeypatch):
        monkeypatch.setattr(dispatch_module, "FORCE_START_METHOD", "spawn")
        graph = random_signed_graph(5, n=40)
        serial = mbc_star(graph, 2)
        fanned = mbc_star(graph, 2, parallel=2)
        assert serial.size == fanned.size
        assert_valid(fanned, graph, 2)

    def test_no_pool_platform_falls_back(self, pool_always, monkeypatch):
        monkeypatch.setattr(dispatch_module, "FORCE_START_METHOD", "none")
        graph = random_signed_graph(7, n=30)
        serial = mbc_star(graph, 1)
        fanned = mbc_star(graph, 1, parallel=4)
        assert serial.size == fanned.size

    def test_set_engine_rejected(self):
        graph = random_signed_graph(0, n=10)
        with pytest.raises(ValueError, match="serial-only"):
            mbc_star(graph, 1, engine="set", parallel=2)
        with pytest.raises(ValueError, match="serial-only"):
            pf_star(graph, engine="set", parallel=2)

    def test_check_only_stays_serial_and_agrees(self):
        graph = random_signed_graph(3, n=25)
        for tau in range(3):
            serial = mbc_star(graph, tau, check_only=True)
            fanned = mbc_star(graph, tau, check_only=True, parallel=4)
            assert serial.is_empty == fanned.is_empty

    @pytest.mark.parametrize("seed", [0, 5])
    def test_stats_aggregation(self, seed, pool_always):
        graph = random_signed_graph(seed, n=45)
        serial_stats = SearchStats()
        fan_stats = SearchStats()
        mbc_star(graph, 1, stats=serial_stats)
        mbc_star(graph, 1, parallel=2, stats=fan_stats)
        assert fan_stats.heuristic_size == serial_stats.heuristic_size
        # Every vertex of the ordering is planned as a task.
        assert fan_stats.vertices_examined == \
            serial_stats.vertices_examined
        # The shared incumbent can only prune more instances than the
        # serial sweep's (it also sees the pre-dispatch bound); it can
        # never launch instances the serial bar would have launched
        # against a tighter incumbent, so equality is not guaranteed —
        # but some work must be accounted whenever the serial sweep
        # launched any.
        if serial_stats.instances:
            assert fan_stats.nodes >= 0


class TestRegressions:
    def test_pf_round_fanout_tolerates_partial_pn_dict(self):
        # pn may arrive as a partial dict (only some vertices bounded);
        # a plain pn[u] used to KeyError on the unbounded ones.  The
        # default tau_star + 1 keeps them pending — pn only bounds, it
        # never filters, so the answer must still be exact.
        graph = random_signed_graph(21, n=20)
        expected = pf_star(graph)
        beta, witness = engine_module.pf_round_fanout(
            graph.pos_adjacency_bits(), graph.neg_adjacency_bits(),
            graph.num_vertices, list(range(graph.num_vertices)),
            {0: 99}, 0, BalancedClique(), workers=1)
        assert beta == expected
        if beta > 0:
            assert witness.satisfies(beta)

    def test_pf_round_fanout_accepts_dense_pn_list(self):
        # The production caller (PDecompose) passes pn as a dense list.
        graph = random_signed_graph(22, n=20)
        expected = pf_star(graph)
        n = graph.num_vertices
        beta, _witness = engine_module.pf_round_fanout(
            graph.pos_adjacency_bits(), graph.neg_adjacency_bits(), n,
            list(range(n)), [n] * n, 0, BalancedClique(), workers=1)
        assert beta == expected

    def test_make_pool_swallows_bad_start_method(self, monkeypatch):
        # get_context raises ValueError for unknown methods; _make_pool
        # must treat that like any other pool-creation failure and let
        # the caller run in-process instead of crashing the solve.
        monkeypatch.setattr(dispatch_module, "FORCE_START_METHOD",
                            "bogus")
        assert dispatch_module._make_pool(2, None) is None
