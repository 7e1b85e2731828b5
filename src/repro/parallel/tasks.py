"""Ego-network task planning for the parallel fan-out engine.

MBC*'s sweep solves one independent maximum-dichromatic-clique instance
per vertex ``u`` of the reduced graph: the instance over ``u``'s
*higher-ranked* neighbours (vertices later in the processing order).
The instance is fully determined by ``(u, allowed_mask)`` — it does not
depend on *when* it runs — which is what makes the sweep embarrassingly
parallel: any schedule that eventually runs every task finds the
optimum, because for any clique the task anchored at its lowest-ranked
member contains the whole clique.

This module turns an ordering into an explicit task list and applies
the dispatcher-side policies of the engine:

* **pre-dispatch bound** (:func:`is_viable`) — a task whose candidate
  counts already show it cannot beat the incumbent is dropped without
  ever building its ego network (three popcounts per task, versus the
  full network build + core reduction the serial sweep pays before its
  first size check);
* **the pool gate's costs** (:func:`peel_costs`) — each task's
  candidate count, as read off the ordering peel, for
  :func:`repro.parallel.engine.pool_pays`;
* **cost ordering** (:func:`cost_ordered`) — largest candidate sets
  first, so the expensive instances cannot land last on one straggler
  worker, and the cliques most likely to raise the shared incumbent
  are attempted early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "EgoTask",
    "plan_tasks",
    "cost_ordered",
    "is_viable",
    "peel_costs",
    "planned_later",
    "chunk_vertices",
]


@dataclass(frozen=True)
class EgoTask:
    """One ego-network instance of the sweep.

    ``pos_count`` / ``neg_count`` are the sizes of the two candidate
    sides (``u``'s positive / negative higher-ranked neighbours) — the
    inputs of the pre-dispatch bound and the cost estimate.
    """

    u: int
    allowed_mask: int
    pos_count: int
    neg_count: int

    @property
    def cost(self) -> int:
        """Dispatch-cost estimate: the candidate-set size."""
        return self.pos_count + self.neg_count


def plan_tasks(
    pos_bits: list[int],
    neg_bits: list[int],
    order: list[int],
) -> list[EgoTask]:
    """Tasks for every vertex of ``order``, in serial sweep order.

    Reproduces the serial loop's accumulation exactly: the task of
    ``u`` allows the vertices processed before ``u`` in the reverse
    sweep, i.e. those ranked after ``u`` in ``order``.
    """
    tasks: list[EgoTask] = []
    allowed = 0
    for u in reversed(order):
        this_allowed = allowed
        allowed |= 1 << u
        tasks.append(EgoTask(
            u=u,
            allowed_mask=this_allowed,
            pos_count=(pos_bits[u] & this_allowed).bit_count(),
            neg_count=(neg_bits[u] & this_allowed).bit_count()))
    return tasks


def cost_ordered(tasks: list[EgoTask]) -> list[EgoTask]:
    """Largest candidate sets first; ties broken by vertex id so the
    dispatch order is deterministic."""
    return sorted(tasks, key=lambda t: (-t.cost, t.u))


def is_viable(task: EgoTask, required: int, tau: int) -> bool:
    """Whether the task can still beat the bar ``required``.

    The clique found by task ``u`` is ``u`` plus a dichromatic clique
    over its candidates, so it needs ``required - 1`` candidates
    surviving at all, ``tau - 1`` on the positive side (``u`` itself is
    the extra L-vertex) and ``tau`` on the negative side.  Conflict
    edges only shrink the instance further, so this bound is safe.
    """
    return (task.pos_count + task.neg_count + 1 >= required
            and task.pos_count >= tau - 1
            and task.neg_count >= tau)


def peel_costs(order: list[int], later: "Sequence[int]",
               minimum: int = 0) -> list[int]:
    """Per-task candidate counts for the pool gate, read off a peel.

    ``later[v]`` is ``v``'s count of neighbours ranked after it in
    ``order``: what the degeneracy peel leaves in its degree list, and
    so exactly :func:`plan_tasks`' ``pos_count + neg_count`` for ``v``,
    without a second pass over the masks.  Tasks with fewer than
    ``minimum`` candidates are left out.
    """
    return [c for c in map(later.__getitem__, order) if c >= minimum]


def planned_later(pos_bits: list[int], neg_bits: list[int],
                  order: list[int]) -> list[int]:
    """``later`` for :func:`peel_costs` from :func:`plan_tasks`: the
    fallback for orderings whose peel leaves no such counts behind."""
    later = [0] * len(pos_bits)
    for task in plan_tasks(pos_bits, neg_bits, order):
        later[task.u] = task.cost
    return later


def chunk_vertices(
    vertices: list[int],
    workers: int,
    chunk_size: int | None = None,
) -> list[list[int]]:
    """Split a dispatch-ordered vertex list into contiguous chunks.

    Chunks are the unit of IPC: big enough to amortize the queue
    round-trip, small enough that the shared incumbent propagates
    between chunk pulls and that cost ordering still balances load.
    The default size aims for several chunks per worker.
    """
    if not vertices:
        return []
    if chunk_size is None:
        chunk_size = max(1, min(16, len(vertices) // (workers * 4) or 1))
    return [vertices[i:i + chunk_size]
            for i in range(0, len(vertices), chunk_size)]
