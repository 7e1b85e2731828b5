"""The ego step: the per-vertex body of MBC* and PF*.

Algorithms 2 and 4 give every vertex ``u`` of the sweep one fixed
step: build the dichromatic network ``g_u`` over ``u``'s higher-ranked
neighbours, prune it with the core and colouring bounds (the
``(tau_L, tau_R)``-core for PF*), then solve MDC or ask DCC.  This
module writes that step twice: once on the signed masks, once on the
set reference.  The serial sweeps of
:func:`repro.core.mbc_star.mbc_star` and :func:`repro.core.pf.pf_star`,
the pool chunk runners of :mod:`repro.parallel.worker` and
:class:`repro.dynamic.DynamicSolver` all call it.

The prune chains, cheapest test first:

* **MDC** (maximum anchored clique of size ``>= required``): the
  tau-count bound (``u`` needs ``tau - 1`` positive and ``tau``
  negative higher-ranked neighbours), the candidate-count bound, the
  ``(required - 2)``-core, then the network, the colouring bound, and
  :func:`~repro.dichromatic.mdc.solve_mdc`;
* **DCC** (is there an anchored clique with polarization
  ``> bar``?): the candidate-count bound, the ``(bar, bar + 1)``-core,
  then the network and
  :func:`~repro.dichromatic.dcc.dichromatic_clique_witness`.

Most egos die at the core test, so the mask steps run it before
building anything: :func:`ego_k_core` and :func:`ego_bicore` peel
``g_u``'s core on the graph's global masks, where a vertex's degree in
``g_u`` is two popcounts.  The peel keeps exactly the vertices the
built network's core keeps, so a too-small core is the same ``"core"``
prune with the same ``upper``, and a survivor builds the network and
runs the unchanged chain (its local core equals the peel), leaving
witnesses, prune reasons and :class:`SearchStats` as they were.  The
set step builds first and peels the network.

numpy = vectorised MDC/DCC search, everything else shared: the
``"numpy"`` steps are the mask steps with ``engine="numpy"`` bound,
which hands the built network's core to the uint64-row search of
:mod:`repro.kernels.npmask` instead of the int-mask one.  So the
adjacency takes two forms — ``(pos_bits, neg_bits)`` int-mask lists
for ``"bitset"`` and ``"numpy"``, the :class:`SignedGraph` itself for
``"set"`` — and every step takes ``allowed``, the higher-ranked
vertices, as an int mask.  Every step returns an :data:`EgoOutcome`
``(pruned, upper, network, witness)``:

* ``pruned`` is the reason (``"bound"``, ``"core"``, ``"color"``) when
  a bound disposed of the ego, else ``None``; exactly one of it and
  ``network`` is ``None``;
* ``upper`` is a *certified* upper bound on the anchored quantity —
  the size of a tau-satisfying balanced clique through ``u`` (MDC) or
  its polarization (DCC).  It rests only on facts about the ego
  instance (candidate counts, or an exhaustive search below the bar),
  so it holds however the bar was derived.  Under ``check_only`` the
  MDC search stops at its first witness, so ``upper`` is then *not*
  certified;
* ``witness`` is the clique found in ``network``'s local ids (``u``
  excluded), or ``None``.  An MDC witness is the exact anchored optimum
  (outside ``check_only``); a DCC witness has exactly ``bar`` same-side
  and ``bar + 1`` opposite-side members.

The step sets ``pruned``/``found`` (and the instance size) on the
caller's ``ego`` span and counts ``instances`` and the Table IV
reduction ratios in ``stats``; the caller keeps everything about the
loop: the order, the ``allowed`` accumulator, the bar, budget
checkpoints and what to do with a witness.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable

from ..kernels.bitset import bits_of
from ..kernels.active import (
    active_edge_count_mask,
    bicore_active_mask,
    coloring_upper_bound_active_mask,
    k_core_active_mask,
)
from ..obs import NULL_SPAN, Span, Tracer
from ..resilience.budget import Budget
from ..signed.graph import SignedGraph
from .build import build_dichromatic_network, \
    dichromatic_network_from_masks, ego_edge_count_from_masks, \
    ego_network_edge_count
from .cores import bicore_active, coloring_upper_bound_active, \
    k_core_active
from .dcc import dichromatic_clique_witness
from .graph import DichromaticGraph
from .mdc import solve_mdc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stats import SearchStats

__all__ = [
    "EgoOutcome",
    "MDC_STEPS",
    "DCC_STEPS",
    "ego_adjacency",
    "ego_k_core",
    "ego_bicore",
    "witness_members",
    "mdc_step_bits",
    "mdc_step_set",
    "dcc_step_bits",
    "dcc_step_set",
]

#: ``(pruned reason, certified upper, network, witness)`` — see the
#: module docstring.
EgoOutcome = tuple[
    "str | None", int, "DichromaticGraph | None", "set[int] | None"]


def ego_adjacency(graph: SignedGraph, engine: str,
                  rows: "Iterable[int] | None" = None) -> object:
    """``graph``'s adjacency in ``engine``'s form for the steps below:
    the graph itself for ``"set"``, its cached signed masks otherwise,
    with the rows of ``rows`` built (every row when ``None``).  A sweep
    passes its order: an ego step reads the rows of its anchor and of
    the candidates in ``allowed``, all of them in the order."""
    if engine == "set":
        return graph
    return graph.adjacency_rows(rows)


def witness_members(network: DichromaticGraph,
                    found: set[int]) -> list[tuple[int, bool]]:
    """A witness as ``(graph vertex, is_left)`` pairs (anchor
    excluded; the anchor is on the left side)."""
    return [(network.origin[v], network.is_left[v]) for v in found]


def _pruned(ego: Span, reason: str, upper: int) -> EgoOutcome:
    ego.set(pruned=reason)
    return reason, upper, None, None


def _mdc_solved(ego: Span, required: int, network: DichromaticGraph,
                found: "set[int] | None") -> EgoOutcome:
    ego.set(found=found is not None)
    # Exhaustive above the floor: a witness is the exact anchored
    # optimum; no witness proves nothing >= required exists.
    upper = len(found) + 1 if found is not None else required - 1
    return None, upper, network, found


def _dcc_solved(ego: Span, bar: int, cap: int, network: DichromaticGraph,
                found: "set[int] | None") -> EgoOutcome:
    ego.set(found=found is not None)
    # A miss certifies nothing above bar; a hit leaves the cap.
    return None, (bar if found is None else cap), network, found


def ego_k_core(pos_bits: list[int], neg_bits: list[int], u: int,
               allowed: int, k: int) -> "tuple[int, int]":
    """The L and R sides of ``g_u``'s ``k``-core as global masks,
    peeled without building ``g_u``.

    ``g_u`` keeps an L vertex's positive edges into L and negative
    edges into R (mirrored for R), so a vertex's degree in ``g_u`` is
    two popcounts of its global masks.  Sweeps drop every violator
    until one drops none; the fixpoint is exactly the ``k``-core of
    the built network, mapped back through ``network.origin``.  A
    non-empty ``k``-core has more than ``k`` vertices, so the peel
    stops with an empty core as soon as at most ``k`` remain.
    """
    left = pos_bits[u] & allowed
    right = neg_bits[u] & allowed
    if k <= 0:
        return left, right
    left_members = bits_of(left)
    right_members = bits_of(right)
    count = len(left_members) + len(right_members)
    if count <= k:
        return 0, 0
    changed = True
    while changed:
        changed = False
        kept = []
        for v in left_members:
            if (pos_bits[v] & left).bit_count() \
                    + (neg_bits[v] & right).bit_count() < k:
                left ^= 1 << v
                count -= 1
                if count <= k:
                    return 0, 0
                changed = True
            else:
                kept.append(v)
        left_members = kept
        kept = []
        for v in right_members:
            if (pos_bits[v] & right).bit_count() \
                    + (neg_bits[v] & left).bit_count() < k:
                right ^= 1 << v
                count -= 1
                if count <= k:
                    return 0, 0
                changed = True
            else:
                kept.append(v)
        right_members = kept
    return left, right


def ego_bicore(pos_bits: list[int], neg_bits: list[int], u: int,
               allowed: int, bar: int) -> "tuple[int, int]":
    """:func:`ego_k_core` for DCC's ``(bar, bar + 1)``-core of ``g_u``.

    An L vertex needs ``bar - 1`` L and ``bar + 1`` R neighbours, an R
    vertex ``bar`` of each (the L quota is shifted by the excluded
    anchor ``u``), as in
    :func:`~repro.kernels.active.bicore_active_mask`.  Either way a
    non-empty core has ``bar`` L and ``bar + 1`` R vertices, so the
    peel stops with an empty core as soon as a side falls short.
    """
    left = pos_bits[u] & allowed
    right = neg_bits[u] & allowed
    left_members = bits_of(left)
    right_members = bits_of(right)
    left_count = len(left_members)
    right_count = len(right_members)
    if left_count < bar or right_count <= bar:
        return 0, 0
    changed = True
    while changed:
        changed = False
        kept = []
        for v in left_members:
            if (pos_bits[v] & left).bit_count() < bar - 1 \
                    or (neg_bits[v] & right).bit_count() <= bar:
                left ^= 1 << v
                left_count -= 1
                if left_count < bar:
                    return 0, 0
                changed = True
            else:
                kept.append(v)
        left_members = kept
        kept = []
        for v in right_members:
            if (neg_bits[v] & left).bit_count() < bar \
                    or (pos_bits[v] & right).bit_count() < bar:
                right ^= 1 << v
                right_count -= 1
                if right_count <= bar:
                    return 0, 0
                changed = True
            else:
                kept.append(v)
        right_members = kept
    return left, right


def mdc_step_bits(
    adjacency: "tuple[list[int], list[int]]",
    u: int,
    allowed: int,
    tau: int,
    required: int,
    *,
    use_core: bool = True,
    use_coloring: bool = True,
    stats: "SearchStats | None" = None,
    tracer: "Tracer | None" = None,
    ego: Span = NULL_SPAN,
    check_only: bool = False,
    budget: "Budget | None" = None,
    engine: str = "bitset",
) -> EgoOutcome:
    """MBC*'s ego step on the signed masks: the largest balanced
    clique through ``u`` inside ``allowed`` with both sides ``>= tau``,
    if it has at least ``required`` vertices.  ``engine`` picks the
    :func:`~repro.dichromatic.mdc.solve_mdc` search (``"bitset"`` or
    ``"numpy"``); everything before it is the same mask code."""
    pos_bits, neg_bits = adjacency
    pos_count = (pos_bits[u] & allowed).bit_count()
    neg_count = (neg_bits[u] & allowed).bit_count()
    if pos_count < tau - 1 or neg_count < tau:
        return _pruned(ego, "bound", 0)
    if pos_count + neg_count + 1 < required:
        return _pruned(ego, "bound", pos_count + neg_count + 1)
    # Core/colour prunes certify only "nothing >= required": an anchored
    # clique of size required - 1 may live outside the
    # (required - 2)-core, so their bound is required - 1, no tighter.
    if use_core:
        left, right = ego_k_core(pos_bits, neg_bits, u, allowed,
                                 required - 2)
        if left.bit_count() + right.bit_count() + 1 < required:
            return _pruned(ego, "core", required - 1)
    network = dichromatic_network_from_masks(
        pos_bits, neg_bits, u, allowed)
    adj = network.adjacency_bits()
    active = network.all_bits()
    if use_core:
        active = k_core_active_mask(adj, required - 2, active)
    if use_coloring and \
            coloring_upper_bound_active_mask(adj, active) < required - 1:
        return _pruned(ego, "color", required - 1)
    ego.set(n=network.num_vertices, reduced=active.bit_count())
    if stats is not None:
        stats.instances += 1
        stats.record_reduction(
            ego_edge_count_from_masks(pos_bits, neg_bits, u, allowed),
            network.num_edges, active_edge_count_mask(adj, active))
    found = solve_mdc(
        network, tau - 1, tau, must_exceed=required - 2, stats=stats,
        check_only=check_only, use_coloring=use_coloring,
        use_core=use_core, engine=engine, active_mask=active,
        trace=tracer, budget=budget)
    return _mdc_solved(ego, required, network, found)


def _allowed_sides(graph: SignedGraph, u: int,
                   allowed: int) -> "tuple[set[int], set[int]]":
    """``u``'s positive and negative neighbours inside ``allowed``."""
    return ({v for v in graph.pos_neighbors(u) if allowed >> v & 1},
            {v for v in graph.neg_neighbors(u) if allowed >> v & 1})


def mdc_step_set(
    adjacency: SignedGraph,
    u: int,
    allowed: int,
    tau: int,
    required: int,
    *,
    use_core: bool = True,
    use_coloring: bool = True,
    stats: "SearchStats | None" = None,
    tracer: "Tracer | None" = None,
    ego: Span = NULL_SPAN,
    check_only: bool = False,
    budget: "Budget | None" = None,
) -> EgoOutcome:
    """:func:`mdc_step_bits` on the set engine (the reference path)."""
    pos, neg = _allowed_sides(adjacency, u, allowed)
    if len(pos) < tau - 1 or len(neg) < tau:
        return _pruned(ego, "bound", 0)
    if len(pos) + len(neg) + 1 < required:
        return _pruned(ego, "bound", len(pos) + len(neg) + 1)
    members = pos | neg
    network = build_dichromatic_network(adjacency, u, members)
    active = set(network.vertices())
    if use_core:
        active = k_core_active(network, required - 2, active)
    if len(active) + 1 < required:
        return _pruned(ego, "core", required - 1)
    if use_coloring and \
            coloring_upper_bound_active(network, active) < required - 1:
        return _pruned(ego, "color", required - 1)
    ego.set(n=network.num_vertices, reduced=len(active))
    if stats is not None:
        stats.instances += 1
        stats.record_reduction(
            ego_network_edge_count(adjacency, u, members),
            network.num_edges, _edges_inside(network, active))
    found = solve_mdc(
        network, tau - 1, tau, must_exceed=required - 2, stats=stats,
        check_only=check_only, active=active, use_coloring=use_coloring,
        use_core=use_core, engine="set", trace=tracer, budget=budget)
    return _mdc_solved(ego, required, network, found)


def _edges_inside(network: DichromaticGraph, active: set[int]) -> int:
    """Edges of ``network`` with both endpoints in ``active``."""
    return sum(len(network.neighbors(v) & active) for v in active) // 2


def dcc_step_bits(
    adjacency: "tuple[list[int], list[int]]",
    u: int,
    allowed: int,
    bar: int,
    *,
    stats: "SearchStats | None" = None,
    tracer: "Tracer | None" = None,
    ego: Span = NULL_SPAN,
    budget: "Budget | None" = None,
    engine: str = "bitset",
) -> EgoOutcome:
    """PF*'s ego step on the signed masks: is there a balanced clique
    through ``u`` inside ``allowed`` with polarization ``> bar``?
    ``engine`` picks the
    :func:`~repro.dichromatic.dcc.dichromatic_clique_witness` search
    (``"bitset"`` or ``"numpy"``), as in :func:`mdc_step_bits`.

    An anchored clique has at most ``pos + 1`` vertices on ``u``'s side
    and ``neg`` on the other, so its polarization is at most ``cap =
    min(pos + 1, neg)``; ``cap <= bar`` is exactly "fewer than ``bar``
    positive or ``bar + 1`` negative candidates".  A failed bicore or
    DCC certifies ``upper = bar``; after a witness ``cap`` remains.
    """
    pos_bits, neg_bits = adjacency
    cap = min((pos_bits[u] & allowed).bit_count() + 1,
              (neg_bits[u] & allowed).bit_count())
    if cap <= bar:
        return _pruned(ego, "bound", cap)
    left, right = ego_bicore(pos_bits, neg_bits, u, allowed, bar)
    if left.bit_count() < bar or right.bit_count() < bar + 1:
        return _pruned(ego, "core", bar)
    network = dichromatic_network_from_masks(
        pos_bits, neg_bits, u, allowed)
    adj = network.adjacency_bits()
    # (bar + 1, bar + 1)-core of g_u, the L quota shifted by the
    # excluded anchor u: the vertices ego_bicore kept, in local ids.
    active = bicore_active_mask(adj, network.left_bits(), bar, bar + 1,
                                network.all_bits())
    ego.set(n=network.num_vertices)
    if stats is not None:
        stats.instances += 1
        stats.record_reduction(
            ego_edge_count_from_masks(pos_bits, neg_bits, u, allowed),
            network.num_edges, active_edge_count_mask(adj, active))
    found = dichromatic_clique_witness(
        network, bar, bar + 1, stats=stats, engine=engine,
        active_mask=active, trace=tracer, budget=budget)
    return _dcc_solved(ego, bar, cap, network, found)


def dcc_step_set(
    adjacency: SignedGraph,
    u: int,
    allowed: int,
    bar: int,
    *,
    stats: "SearchStats | None" = None,
    tracer: "Tracer | None" = None,
    ego: Span = NULL_SPAN,
    budget: "Budget | None" = None,
) -> EgoOutcome:
    """:func:`dcc_step_bits` on the set engine (the reference path)."""
    pos, neg = _allowed_sides(adjacency, u, allowed)
    cap = min(len(pos) + 1, len(neg))
    if cap <= bar:
        return _pruned(ego, "bound", cap)
    members = pos | neg
    network = build_dichromatic_network(adjacency, u, members)
    active = bicore_active(network, bar, bar + 1,
                           set(network.vertices()))
    left_count = sum(1 for v in active if network.is_left[v])
    if left_count < bar or len(active) - left_count < bar + 1:
        return _pruned(ego, "core", bar)
    ego.set(n=network.num_vertices)
    if stats is not None:
        stats.instances += 1
        stats.record_reduction(
            ego_network_edge_count(adjacency, u, members),
            network.num_edges, _edges_inside(network, active))
    found = dichromatic_clique_witness(
        network, bar, bar + 1, stats=stats, active=active, engine="set",
        trace=tracer, budget=budget)
    return _dcc_solved(ego, bar, cap, network, found)


#: The MDC step of each engine, by engine name: numpy is the mask step
#: with the vectorised search.
MDC_STEPS: "dict[str, Callable[..., EgoOutcome]]" = {
    "bitset": mdc_step_bits,
    "numpy": partial(mdc_step_bits, engine="numpy"),
    "set": mdc_step_set}

#: The DCC step of each engine, by engine name (numpy as above).
DCC_STEPS: "dict[str, Callable[..., EgoOutcome]]" = {
    "bitset": dcc_step_bits,
    "numpy": partial(dcc_step_bits, engine="numpy"),
    "set": dcc_step_set}
