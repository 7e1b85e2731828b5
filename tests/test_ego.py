"""The per-vertex ego steps of ``repro.dichromatic.ego``.

Every engine's MDC and DCC step is run on each anchor of a reverse
degeneracy sweep over small seeded graphs, at several bars.  The
engines must agree on the prune reason, the certified upper bound and
the witness size, and each upper bound must hold against an exhaustive
search of the anchor's higher-ranked neighbourhood.  The bitset steps
decide core prunes on the graph's global masks before building
``g_u``; that peel must keep exactly the vertices the network's own
core keeps.
"""

import pytest

from repro.core.balance import is_balanced_clique
from repro.dichromatic.build import dichromatic_network_from_masks
from repro.dichromatic.ego import DCC_STEPS, MDC_STEPS, ego_adjacency, \
    ego_bicore, ego_k_core, witness_members
from repro.kernels.active import bicore_active_mask, \
    degeneracy_ordering_mask, k_core_active_mask
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

from .conftest import SOLVER_ENGINES, make_random_signed_graph

SEEDS = range(8)
TAUS = (1, 2)
DCC_BARS = (0, 1, 2, 3)


def _graph(seed: int) -> SignedGraph:
    return make_random_signed_graph(6 + seed % 7, 0.45, 0.45, seed)


def _sweep(graph: SignedGraph):
    """``(u, allowed)`` for every anchor, in reverse degeneracy order."""
    adjacency = [p | q for p, q in zip(graph.pos_adjacency_bits(),
                                       graph.neg_adjacency_bits())]
    order = degeneracy_ordering_mask(
        adjacency, (1 << graph.num_vertices) - 1)
    allowed = 0
    for u in reversed(order):
        yield u, allowed
        allowed |= 1 << u


def _global_sides(network, active: int) -> tuple[int, int]:
    """``active`` (local ids of ``network``) as global L and R masks."""
    left = right = 0
    for v, (origin, is_left) in enumerate(
            zip(network.origin, network.is_left)):
        if active >> v & 1:
            if is_left:
                left |= 1 << origin
            else:
                right |= 1 << origin
    return left, right


def assert_ego_peels_match(graph: SignedGraph, ks, bars) -> None:
    """On every anchor of the sweep, the global-mask peels keep exactly
    the vertices of the built network's ``k``-core and
    ``(bar, bar + 1)``-core."""
    pos_bits, neg_bits = ego_adjacency(graph, "bitset")
    for u, allowed in _sweep(graph):
        network = dichromatic_network_from_masks(
            pos_bits, neg_bits, u, allowed)
        adj = network.adjacency_bits()
        everyone = network.all_bits()
        for k in ks:
            expected = _global_sides(
                network, k_core_active_mask(adj, k, everyone))
            assert ego_k_core(pos_bits, neg_bits, u, allowed, k) \
                == expected, (u, k)
        for bar in bars:
            expected = _global_sides(network, bicore_active_mask(
                adj, network.left_bits(), bar, bar + 1, everyone))
            assert ego_bicore(pos_bits, neg_bits, u, allowed, bar) \
                == expected, (u, bar)


def _anchored_sides(graph: SignedGraph, u: int,
                    allowed: int) -> list[tuple[int, int]]:
    """``(|L|, |R|)`` of every balanced clique through ``u`` inside
    ``{u} | (N(u) & allowed)``, with ``u`` counted on ``L``."""
    candidates = [v for v in range(graph.num_vertices)
                  if allowed >> v & 1 and graph.sign(u, v) is not None]
    with_u = {v: graph.sign(u, v) == POSITIVE for v in candidates}
    sizes = []

    def grow(start: int, members: list[int]) -> None:
        left = 1 + sum(with_u[v] for v in members)
        sizes.append((left, len(members) + 1 - left))
        for i in range(start, len(candidates)):
            v = candidates[i]
            if all(graph.sign(v, w) == (
                    POSITIVE if with_u[v] == with_u[w] else NEGATIVE)
                   for w in members):
                grow(i + 1, members + [v])

    grow(0, [])
    return sizes


def _max_size(sides: list[tuple[int, int]], tau: int) -> int:
    return max((l + r for l, r in sides if l >= tau and r >= tau),
               default=0)


def _max_polarization(sides: list[tuple[int, int]]) -> int:
    return max(min(l, r) for l, r in sides)


def _clique(u, network, found):
    members = witness_members(network, found)
    return [u] + [v for v, _ in members]


@pytest.mark.parametrize("seed", SEEDS)
def test_mdc_steps_agree_and_certify(seed):
    graph = _graph(seed)
    adjacency = {e: ego_adjacency(graph, e) for e in SOLVER_ENGINES}
    for u, allowed in _sweep(graph):
        sides = _anchored_sides(graph, u, allowed)
        for tau in TAUS:
            optimum = _max_size(sides, tau)
            for required in range(2 * tau, 2 * tau + 4):
                outcomes = {
                    e: MDC_STEPS[e](adjacency[e], u, allowed, tau,
                                    required)
                    for e in SOLVER_ENGINES}
                summary = {
                    e: (p, upper, None if w is None else len(w))
                    for e, (p, upper, _n, w) in outcomes.items()}
                assert len(set(summary.values())) == 1, \
                    (u, tau, required, summary)
                pruned, upper, network, found = outcomes["bitset"]
                assert upper >= optimum
                assert (network is None) == (pruned is not None)
                if found is not None:
                    clique = _clique(u, network, found)
                    assert len(clique) == optimum >= required
                    assert is_balanced_clique(graph, clique, tau)
                else:
                    assert optimum < required


@pytest.mark.parametrize("seed", SEEDS)
def test_dcc_steps_agree_and_certify(seed):
    graph = _graph(seed)
    adjacency = {e: ego_adjacency(graph, e) for e in SOLVER_ENGINES}
    for u, allowed in _sweep(graph):
        optimum = _max_polarization(_anchored_sides(graph, u, allowed))
        for bar in DCC_BARS:
            outcomes = {
                e: DCC_STEPS[e](adjacency[e], u, allowed, bar)
                for e in SOLVER_ENGINES}
            summary = {
                e: (p, upper, None if w is None else len(w))
                for e, (p, upper, _n, w) in outcomes.items()}
            assert len(set(summary.values())) == 1, (u, bar, summary)
            pruned, upper, network, found = outcomes["bitset"]
            assert upper >= optimum
            assert (network is None) == (pruned is not None)
            if found is not None:
                # bar same-side members besides u, bar + 1 opposite.
                assert len(found) == 2 * bar + 1
                assert is_balanced_clique(
                    graph, _clique(u, network, found), bar + 1)
            else:
                assert optimum <= bar


@pytest.mark.parametrize("seed", SEEDS)
def test_global_mask_peels_match_network_cores(seed):
    assert_ego_peels_match(_graph(seed), ks=range(-1, 6), bars=DCC_BARS)


def test_ablation_flags_keep_upper_certified():
    graph = _graph(5)
    adjacency = ego_adjacency(graph, "bitset")
    for u, allowed in _sweep(graph):
        optimum = _max_size(_anchored_sides(graph, u, allowed), 1)
        for use_core in (False, True):
            for use_coloring in (False, True):
                _pruned, upper, _network, found = MDC_STEPS["bitset"](
                    adjacency, u, allowed, 1, 2, use_core=use_core,
                    use_coloring=use_coloring)
                assert upper >= optimum
                if found is not None:
                    assert len(found) + 1 == optimum


def test_dcc_step_answers_no_past_the_bicore():
    # g_0 is L = {1, 2}, R = {3, 4, 5, 6} with cross edges 1-3, 1-5,
    # 2-4, 2-6 and R edges 3-4, 5-6: every vertex meets the (1, 2)-core
    # degrees, yet no L vertex closes a triangle with an R edge.
    graph = SignedGraph.from_signed_edges(7, [
        (0, 1, 1), (0, 2, 1), (0, 3, -1), (0, 4, -1), (0, 5, -1),
        (0, 6, -1), (1, 3, -1), (1, 5, -1), (2, 4, -1), (2, 6, -1),
        (3, 4, 1), (5, 6, 1)])
    allowed = (1 << 7) - 2
    for engine in SOLVER_ENGINES:
        pruned, upper, network, found = DCC_STEPS[engine](
            ego_adjacency(graph, engine), 0, allowed, 1)
        assert (pruned, upper, found) == (None, 1, None)
        assert network is not None and network.num_vertices == 6
    assert _max_polarization(_anchored_sides(graph, 0, allowed)) == 1
