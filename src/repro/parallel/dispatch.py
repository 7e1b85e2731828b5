"""Resilient pool dispatch: per-chunk accounting, rebuild, fallback.

Every pool interaction of the fan-out engine goes through
:class:`ResilientDispatcher` (enforced by lint rule R009).  The plain
``imap_unordered`` loop it replaces had two failure modes:

* a worker killed mid-task (OOM killer, crash, injected fault) does
  **not** make ``imap_unordered`` raise — ``multiprocessing.Pool``
  silently repopulates its worker slots and the in-flight task's
  result simply never arrives, hanging the solve forever;
* a worker *raising* poisons the whole ``imap`` stream, losing every
  other chunk's work.

The dispatcher fixes both with per-chunk accounting.  Payloads are
wrapped in ``(index, attempt, payload)`` envelopes and results pulled
with a bounded-timeout heartbeat; on each beat it compares the pool's
current worker pids against the snapshot taken at pool creation —
silent repopulation is exactly a pid-set change — and converts death
or a raised chunk into :class:`PoolFailure`.  The recovery ladder is:
terminate the broken pool, rebuild it once, re-dispatch only the
chunks whose results never arrived (attempt + 1 — chunk runners are
pure, so re-running is safe, and the ``on_recover`` hook lets the
engine reset the shared incumbent to the floor certified by delivered
results, so a bound published by a lost chunk cannot prune away its
own re-certification); after a second failure degrade to the
in-process runner, which cannot lose workers.  Pool shutdown uses a bounded ``join`` so a stalled worker
can never hang the solve either.

The heartbeat is also where a solve ``deadline`` is enforced while
all the work sits in worker processes: the dispatcher checks the
budget between beats and aborts the pool on expiry.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..resilience.budget import Budget
from .worker import WorkerContext, install_context
from . import worker as worker_module

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.pool import IMapIterator, Pool

__all__ = [
    "ResilientDispatcher",
    "DispatchReport",
    "PoolFailure",
    "preferred_start_method",
    "HEARTBEAT_SECONDS",
    "JOIN_TIMEOUT_SECONDS",
    "MAX_POOL_FAILURES",
    "FORCE_START_METHOD",
]

#: Test hook: force a specific multiprocessing start method (e.g.
#: ``"spawn"`` to exercise the packed-payload path on Linux), or
#: ``"none"`` to simulate a platform without usable pools.
FORCE_START_METHOD: str | None = None

#: Result-pull timeout; each beat re-checks worker liveness and the
#: solve budget.  Long enough that a healthy solve pays a handful of
#: wakeups, short enough that death/deadline detection feels instant.
HEARTBEAT_SECONDS = 0.05

#: Bound on every pool ``join``; a stalled worker is terminated rather
#: than allowed to hang the solve's cleanup path.
JOIN_TIMEOUT_SECONDS = 5.0

#: Pool failures tolerated before degrading to the in-process runner:
#: the first failure buys one rebuild, the second gives up on pools.
MAX_POOL_FAILURES = 2


class PoolFailure(RuntimeError):
    """A pool became unusable mid-dispatch (worker death or raise)."""


class DispatchReport:
    """Accounting for one dispatcher's lifetime (fanout span attrs)."""

    __slots__ = ("dispatched", "completed", "retried", "rebuilds",
                 "degraded", "pooled", "failures")

    def __init__(self) -> None:
        self.dispatched = 0
        self.completed = 0
        self.retried = 0
        self.rebuilds = 0
        self.degraded = False
        self.pooled = False
        self.failures: list[str] = []


def preferred_start_method() -> str | None:
    """``"fork"`` where available (zero-copy context shipping),
    ``"spawn"`` otherwise, ``None`` when pools cannot be used."""
    if FORCE_START_METHOD is not None:
        return None if FORCE_START_METHOD == "none" else \
            FORCE_START_METHOD
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    if "spawn" in methods:
        return "spawn"
    return None  # pragma: no cover - no such CPython platform


def _make_pool(workers: int, ctx_obj: WorkerContext) -> "Pool | None":
    """Create a worker pool with the context shipped, or ``None`` when
    the platform cannot provide one (callers then run in-process).

    Besides ``OSError`` (fd/process exhaustion), ``get_context`` raises
    ``ValueError`` for unknown start methods and ``Pool`` can raise
    ``RuntimeError`` in restricted environments — all three mean the
    same thing here: no pool, solve in-process instead of crashing.
    """
    method = preferred_start_method()
    if method is None:
        return None
    try:
        mp_ctx = multiprocessing.get_context(method)
        if method == "fork":
            # Children inherit the module global through fork.
            install_context(ctx_obj)
            return mp_ctx.Pool(workers)
        return mp_ctx.Pool(
            workers,
            initializer=worker_module.init_spawned_worker,
            initargs=(ctx_obj.pack(), ctx_obj.incumbent.handle))
    except (OSError, ValueError, RuntimeError):
        return None


def _pool_processes(pool: "Pool") -> list[Any]:
    """The pool's worker ``Process`` objects.

    ``multiprocessing.Pool`` keeps them in the private ``_pool`` list —
    stable across CPython 3.8–3.13 and the only liveness signal the
    Pool API exposes short of joining.
    """
    return list(getattr(pool, "_pool", None) or [])


def _worker_pids(pool: "Pool") -> frozenset[int]:
    return frozenset(
        proc.pid for proc in _pool_processes(pool)
        if proc.pid is not None)


def _bounded_join(pool: "Pool") -> None:
    """``pool.join()`` that cannot hang: escalate to terminate."""
    joiner = threading.Thread(target=pool.join, daemon=True)
    joiner.start()
    joiner.join(JOIN_TIMEOUT_SECONDS)
    if joiner.is_alive():  # pragma: no cover - stalled worker path
        pool.terminate()
        joiner.join(JOIN_TIMEOUT_SECONDS)


class ResilientDispatcher:
    """Run chunk payloads through a pool, surviving worker failures.

    One dispatcher serves one solve (it may run several :meth:`run`
    batches, e.g. PF* rounds, over the same pool).  It starts a pool
    whenever ``workers > 1``: whether one pays is the solver's
    decision (:func:`~repro.parallel.engine.pool_pays`), made before
    any fan-out is called.
    """

    def __init__(self, workers: int, ctx_obj: WorkerContext) -> None:
        self.workers = workers
        self.ctx_obj = ctx_obj
        self.report = DispatchReport()
        self._want_pool = workers > 1
        self._pool: "Pool | None" = None
        self._pool_pids: frozenset[int] = frozenset()
        self._failures = 0

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> "Pool | None":
        if not self._want_pool or self.report.degraded:
            return None
        if self._pool is None:
            self._pool = _make_pool(self.workers, self.ctx_obj)
            if self._pool is None:
                # No pool on this platform at all: permanent fallback,
                # but not a *failure* — nothing broke.
                self._want_pool = False
            else:
                self.report.pooled = True
                self._pool_pids = _worker_pids(self._pool)
        return self._pool

    def _discard_pool(self, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        self._pool_pids = frozenset()
        if pool is None:
            return
        if terminate:
            pool.terminate()
        else:
            pool.close()
        _bounded_join(pool)

    def _record_failure(self, message: str) -> None:
        self.report.failures.append(message)
        self._failures += 1
        self._discard_pool(terminate=True)
        if self._failures >= MAX_POOL_FAILURES:
            self.report.degraded = True
        else:
            self.report.rebuilds += 1

    def _pool_intact(self, pool: "Pool") -> bool:
        """Whether the worker set is exactly the one we started."""
        processes = _pool_processes(pool)
        if not processes:
            return False
        if _worker_pids(pool) != self._pool_pids:
            return False  # silent repopulation after a death
        return all(proc.is_alive() for proc in processes)

    def close(self) -> None:
        """Orderly shutdown with a bounded wait (idempotent)."""
        self._discard_pool(terminate=False)

    def abort(self) -> None:
        """Immediate shutdown — used on budget expiry, where waiting
        for in-flight (possibly stalled) chunks defeats the deadline."""
        self._discard_pool(terminate=True)

    # -- dispatch ------------------------------------------------------

    def run(
        self,
        runner: Callable[[tuple[int, int, Any]], tuple[int, Any]],
        payloads: list[Any],
        budget: "Budget | None" = None,
        on_recover: "Callable[[], None] | None" = None,
    ) -> Iterator[Any]:
        """Yield each payload's result exactly once, in arrival order.

        ``runner`` must be a module-level function taking the
        ``(index, attempt, payload)`` envelope and returning
        ``(index, result)`` (see the ``*_task`` wrappers in
        :mod:`repro.parallel.worker`).  Chunks lost to a pool failure
        are re-dispatched with ``attempt + 1``; after
        :data:`MAX_POOL_FAILURES` the remainder runs in-process.
        Budget expiry raises ``BudgetExceeded`` between results.

        ``on_recover`` runs after each pool failure, once the broken
        pool is terminated and before anything is re-dispatched — the
        only window with no live workers.  Engines use it to reset
        shared state (the incumbent) to the floor certified by
        *delivered* results: a lost chunk may have published a bound
        it can no longer prove, and re-running it against that bound
        would prune away its own re-certification.
        """
        pending: dict[int, Any] = dict(enumerate(payloads))
        self.report.dispatched += len(pending)
        attempt = 0
        while pending:
            pool = self._ensure_pool()
            if pool is None:
                yield from self._run_in_process(pending, runner,
                                                attempt, budget)
                return
            tasks = [(idx, attempt, pending[idx])
                     for idx in sorted(pending)]
            try:
                for idx, result in self._pull(pool, runner, tasks,
                                              budget):
                    del pending[idx]
                    self.report.completed += 1
                    yield result
            except PoolFailure as failure:
                self._record_failure(str(failure))
                if on_recover is not None:
                    on_recover()
                self.report.retried += len(pending)
                attempt += 1

    def _pull(
        self,
        pool: "Pool",
        runner: Callable[[tuple[int, int, Any]], tuple[int, Any]],
        tasks: list[tuple[int, int, Any]],
        budget: "Budget | None",
    ) -> Iterator[tuple[int, Any]]:
        """Heartbeat-pull every result of one dispatch batch.

        Raises :class:`PoolFailure` on worker death / a raising chunk,
        and ``BudgetExceeded`` (via the budget) on deadline expiry.
        """
        try:
            iterator: "IMapIterator[tuple[int, Any]]" = \
                pool.imap_unordered(runner, tasks)
        except (OSError, ValueError, RuntimeError) as exc:
            raise PoolFailure(f"dispatch failed: {exc!r}") from exc
        received = 0
        while received < len(tasks):
            try:
                idx, result = iterator.next(timeout=HEARTBEAT_SECONDS)
            except multiprocessing.TimeoutError:
                if budget is not None:
                    reason = budget.expired_reason()
                    if reason is not None:
                        budget.exceed(reason)
                if not self._pool_intact(pool):
                    raise PoolFailure("worker process died mid-chunk")
                continue
            except StopIteration:  # pragma: no cover - defensive
                raise PoolFailure("result stream ended early") from None
            except PoolFailure:
                raise
            except Exception as exc:
                # A chunk runner raised (e.g. an injected fault); the
                # imap stream is poisoned past this point, so treat it
                # as a pool failure and re-dispatch the unfinished rest.
                raise PoolFailure(f"chunk runner raised: {exc!r}") \
                    from exc
            received += 1
            yield idx, result

    def _run_in_process(
        self,
        pending: dict[int, Any],
        runner: Callable[[tuple[int, int, Any]], tuple[int, Any]],
        attempt: int,
        budget: "Budget | None",
    ) -> Iterator[Any]:
        """The degraded path: same runner, same envelopes, no pool."""
        install_context(self.ctx_obj)
        for idx in sorted(pending):
            if budget is not None:
                budget.check()
            _idx, result = runner((idx, attempt, pending.pop(idx)))
            self.report.completed += 1
            yield result
