"""Parallel ego-network fan-out engine (multiprocessing).

Splits MBC*'s / PF*'s per-vertex ego-network instances across worker
processes, with the graph's adjacency masks shipped once at pool start
and the best solution size published through a shared monotone
incumbent so every worker prunes against the best clique found
anywhere.  See
``docs/ALGORITHMS.md`` ("Parallel execution") for the protocol and
``repro.parallel.engine`` for the pool lifecycle.
"""

from .engine import (
    MIN_POOL_TASKS,
    mbc_ego_fanout,
    pf_round_fanout,
    pool_pays,
    preferred_start_method,
    resolve_workers,
)
from .incumbent import SharedIncumbent
from .tasks import (
    EgoTask,
    chunk_vertices,
    cost_ordered,
    is_viable,
    plan_tasks,
)
from .worker import WorkerContext, install_context

__all__ = [
    "MIN_POOL_TASKS",
    "mbc_ego_fanout",
    "pf_round_fanout",
    "pool_pays",
    "preferred_start_method",
    "resolve_workers",
    "SharedIncumbent",
    "EgoTask",
    "chunk_vertices",
    "cost_ordered",
    "is_viable",
    "plan_tasks",
    "WorkerContext",
    "install_context",
]
