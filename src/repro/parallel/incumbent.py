"""Shared incumbent — the cross-worker lower bound.

The pruning power of every bound in the ego-network sweep (the global
``|C*|``-core, the per-instance core reduction, the colouring bound and
MDC's ``must_exceed`` bar) scales with the best clique size known *so
far*.  Serially that incumbent tightens as the sweep progresses; under
the fan-out engine it must tighten across processes, or each worker
would search against the stale initial bound.

:class:`SharedIncumbent` wraps a ``multiprocessing.RawValue`` (a
single 64-bit integer in shared memory, with no lock) behind a
max-register interface: ``improve`` only writes a larger value, so
readers can act on a possibly-stale value without any correctness
risk — a stale bound is merely *looser*, never wrong.  Workers read the
register once per task and publish immediately on improvement, so
every worker's bounds tighten as soon as any worker finds a better
clique.

The register is lock-free on purpose.  The dispatcher terminates a
failed pool with ``SIGTERM``; a worker killed while holding a lock
would leave it held forever, and the parent's next ``reset`` or
``get`` would hang.  Without the lock, two racing ``improve`` calls can
lose a raise (both read the old value, the smaller write lands last).
That only loosens pruning: witnesses travel back in the chunk results,
never through the register, so no answer depends on it.

When multiprocessing primitives are unavailable (or the engine runs the
task plan in-process), :class:`SharedIncumbent` degrades to a plain
instance attribute with the same interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.context import BaseContext

__all__ = ["SharedIncumbent"]


class SharedIncumbent:
    """Monotone shared max-register for the best solution value.

    Parameters
    ----------
    initial:
        Starting value (e.g. the heuristic clique size, or PF*'s
        heuristic ``tau*``).
    ctx:
        A ``multiprocessing`` context; when ``None`` the register is a
        process-local attribute (the in-process fallback path).
    """

    def __init__(self, initial: int,
                 ctx: "BaseContext | None" = None) -> None:
        if ctx is None:
            self._value = None
            self._local = initial
        else:
            self._value = ctx.RawValue("q", initial)
            self._local = initial

    @classmethod
    def from_value(cls, value: Any) -> "SharedIncumbent":
        """Rewrap a shared ``RawValue`` received by a spawned worker
        through the pool initializer."""
        incumbent = cls.__new__(cls)
        incumbent._value = value
        incumbent._local = 0
        return incumbent

    @property
    def shared(self) -> bool:
        """Whether the register lives in shared memory."""
        return self._value is not None

    @property
    def handle(self) -> Any:
        """The shared-memory ``RawValue`` (``None`` when local).

        This is what a ``spawn`` pool initializer receives — a shared
        ctypes object carries its own shared-memory pickle reduction,
        so it must travel as itself, not wrapped.  Counter-
        part of :meth:`from_value`; the only sanctioned way for the
        engine to touch the register's storage.
        """
        return self._value

    def get(self) -> int:
        """Current value (may be stale by the time the caller acts —
        safe, because the register only grows)."""
        if self._value is None:
            return self._local
        return self._value.value

    def reset(self, value: int) -> None:
        """Forcibly store ``value``, abandoning monotonicity.

        Only legal while **no worker process is alive** — the resilient
        dispatcher calls this between terminating a failed pool and
        re-dispatching, to drop the register back to the parent's
        *certified* floor (delivered results only).  A publication from
        a chunk whose result was lost to the failure would otherwise
        keep pruning, and the re-dispatched chunk could never
        re-certify the very value that is pruning it.
        """
        if self._value is None:
            self._local = value
        else:
            self._value.value = value

    def improve(self, value: int) -> bool:
        """Raise the register to ``value`` if larger.

        Returns True when ``value`` improved the register as this
        call read it — i.e. no other worker had published something
        at least as good first.  A racing raise can be lost (see the
        module docstring); that loosens pruning, nothing more.
        """
        if self._value is None:
            if value > self._local:
                self._local = value
                return True
            return False
        if value > self._value.value:
            self._value.value = value
            return True
        return False
