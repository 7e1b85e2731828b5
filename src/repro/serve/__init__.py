"""``repro.serve`` — the async solver service behind ``repro serve``.

The serving layer turns the library into a daemon: a stdlib-only
asyncio HTTP server (:mod:`~repro.serve.app`) that multiplexes JSON
solve requests onto the engine stack through a bounded worker pool,
with request coalescing, a keyed LRU cache over certified-optimal
results (:mod:`~repro.serve.cache`), and a registry of resident
graphs whose edits re-answer incrementally via
:class:`~repro.dynamic.DynamicSolver`.

Layering: ``serve`` sits above everything — it imports ``core``,
``dynamic``, ``datasets``, ``kernels``, ``obs``, ``resilience``, and
``signed``, and nothing imports it back except the CLI.  The wire
contract lives in :mod:`~repro.serve.protocol`; the blocking core in
:mod:`~repro.serve.service` is fully testable without a socket.
"""

from .app import (
    DEFAULT_MAX_PENDING,
    DEFAULT_POOL_SIZE,
    BackgroundServer,
    ServeApp,
)
from .cache import DEFAULT_CACHE_CAPACITY, ResultCache
from .protocol import (
    PROBLEMS,
    SERVE_SCHEMA,
    ProtocolError,
    SolveRequest,
)
from .service import (
    DATASET_MEMO_CAPACITY,
    RegisteredGraph,
    SolverService,
    parse_dataset_ref,
)

__all__ = [
    "BackgroundServer",
    "DATASET_MEMO_CAPACITY",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_POOL_SIZE",
    "PROBLEMS",
    "ProtocolError",
    "RegisteredGraph",
    "ResultCache",
    "SERVE_SCHEMA",
    "ServeApp",
    "SolveRequest",
    "SolverService",
    "parse_dataset_ref",
]
