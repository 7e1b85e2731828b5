"""The keyed result cache: LRU over certified-optimal answers only.

Keys are ``(fingerprint, problem, tau)`` — exactly the tuple
that determines a solve's answer.  The fingerprint is
:meth:`repro.signed.graph.SignedGraph.fingerprint`, a content hash,
so two requests naming the same graph differently (a dataset ref, the
same graph inline, a registered copy) share one entry, and any edit
to a registered graph moves it to a fresh key — stale entries age out
by LRU instead of needing an invalidation protocol.

Only ``OPTIMAL`` results are ever stored (:meth:`ResultCache.put`
enforces it): a budget-truncated answer is *that request's* best
effort under *its* SLO, and replaying it to a later request with a
larger budget would launder a lower bound into an exact answer.
Truncated responses are returned with ``status: budget_exhausted``
and recomputed every time.

The cache is sized in entries, not bytes: a cached payload is a few
hundred bytes of JSON-able plain data, so even the default capacity
is megabytes at worst, and an entry count is predictable for tests.
"""

from __future__ import annotations

from collections import OrderedDict

from ..resilience.budget import Status

__all__ = ["CacheKey", "ResultCache", "DEFAULT_CACHE_CAPACITY"]

#: ``(graph fingerprint, problem, tau)``.
CacheKey = "tuple[str, str, int]"

#: Default entry capacity of the serve cache (``--cache-size``).
DEFAULT_CACHE_CAPACITY = 1024


class ResultCache:
    """An LRU map from solve keys to response payloads.

    Single-threaded by design: the serving app only touches it from
    the event-loop thread, so no lock is needed and hit/miss counts
    observed by tests are exact.
    """

    def __init__(self,
                 capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(
                f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[tuple, dict]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum entry count before LRU eviction."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple) -> "dict | None":
        """The cached payload for ``key`` (refreshes its recency)."""
        payload = self._entries.get(key)
        if payload is not None:
            self._entries.move_to_end(key)
        return payload

    def put(self, key: tuple, payload: dict) -> None:
        """Store a payload; rejects non-optimal results.

        The ``status`` field is re-checked here rather than trusted to
        the caller: every path that could cache a truncated answer is
        a correctness bug, so the cache is the single enforcement
        point.
        """
        if payload.get("status") != Status.OPTIMAL.value:
            raise ValueError(
                f"only OPTIMAL results may be cached, got status "
                f"{payload.get('status')!r}")
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped
