"""The asyncio HTTP daemon behind ``repro serve``.

Zero new dependencies: :func:`asyncio.start_server` carries the
sockets, a ~60-line HTTP/1.1 reader parses requests (JSON bodies,
``Content-Length`` framing, keep-alive), and CPU-bound solves run on
a **bounded worker pool** (`concurrent.futures.ThreadPoolExecutor`)
so the event loop keeps accepting connections while a solve grinds.
The pool size bounds concurrent solver work; an admission semaphore
bounds how much may queue behind it — excess requests wait their
turn (backpressure) rather than failing.

Request flow for ``POST /solve`` (all bookkeeping on the event-loop
thread; only the solver call crosses to the pool):

1. validate (:mod:`repro.serve.protocol` — client mistakes are 4xx);
2. resolve the graph spec (registry lookup / dataset memo; a cold
   dataset ref generates on the pool);
3. **cache** lookup on ``(fingerprint, problem, tau)`` — a
   hit answers without queueing at all;
4. **coalesce**: an identical in-flight key (same cache key *and*
   same budget) awaits the solve already running instead of starting
   a second one;
5. miss: run on the pool under a fresh per-request
   :class:`~repro.resilience.Budget` (the request's SLO), store the
   payload iff certified optimal, answer ``200`` either way — a
   truncated solve reports ``status: budget_exhausted`` with the
   certified lower bound (the anytime contract over HTTP).

Requests against a **registered graph** run steps 3–5 while holding
an admission slot plus the graph's per-graph lock.  The lock is
load-bearing twice over: the resident
:class:`~repro.dynamic.DynamicSolver` is single-writer by contract,
and the cache key must name the exact graph version being solved —
computing the fingerprint *outside* the lock would let a concurrent
edit slip in between keying and solving, caching the post-edit
answer under the pre-edit fingerprint.  The admission slot is taken
*before* the lock so a solve queued behind unrelated load never
holds the graph hostage: edits bypass admission and wait only for
actual solving.

Every request runs under its own :class:`~repro.obs.Tracer` span
(solver spans nest inside via the ``trace=`` kwarg); the buffer is
absorbed into the service tracer afterwards, so ``GET /stats`` and
``--trace`` see one merged span forest, exactly like the parallel
worker merge.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Coroutine, TypeVar

from ..obs import get_tracer
from ..resilience.budget import Status
from ..signed.graph import SignedGraph
from .protocol import (
    SERVE_SCHEMA,
    ProtocolError,
    SolveRequest,
    graph_from_inline,
    parse_edits_request,
    parse_json_body,
    parse_register_request,
    parse_solve_request,
    validate_graph_name,
)
from .service import (
    RegisteredGraph,
    SolverService,
    parse_dataset_ref,
)

_T = TypeVar("_T")

__all__ = ["ServeApp", "BackgroundServer", "DEFAULT_POOL_SIZE",
           "DEFAULT_MAX_PENDING"]

#: Default solver pool width (threads running blocking solves).
DEFAULT_POOL_SIZE = 4

#: Default admission bound: solves queued or running at once before
#: new requests wait at the semaphore.
DEFAULT_MAX_PENDING = 64

#: Cap on accepted request bodies (16 MiB ≈ a million inline edges).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Cap on request header lines; each line is further capped at the
#: stream reader's 64 KiB limit, bounding total header bytes.
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error"}


class _HttpError(Exception):
    """A transport-level request failure (pre-routing)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServeApp:
    """One serving daemon: routes HTTP onto a :class:`SolverService`.

    ``port=0`` binds an ephemeral port (tests and the bench harness);
    :attr:`port` reports the bound one after :meth:`start`.
    """

    def __init__(
        self,
        service: SolverService,
        host: str = "127.0.0.1",
        port: int = 8080,
        pool_size: int = DEFAULT_POOL_SIZE,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> None:
        if pool_size < 1:
            raise ValueError(
                f"pool_size must be >= 1, got {pool_size}")
        if max_pending < pool_size:
            raise ValueError(
                f"max_pending ({max_pending}) must be >= pool_size "
                f"({pool_size})")
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: "asyncio.Server | None" = None
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size,
            thread_name_prefix="repro-serve")
        self._admission = asyncio.Semaphore(max_pending)
        self._inflight: "dict[tuple, asyncio.Future]" = {}
        self._graph_locks: "dict[str, asyncio.Lock]" = {}
        self._dataset_lock = asyncio.Lock()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        sockets = self._server.sockets
        assert sockets
        port = sockets[0].getsockname()[1]
        assert isinstance(port, int)
        return port

    async def start(self) -> None:
        """Bind the listening socket."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)

    async def serve_forever(self) -> None:
        """Accept connections until cancelled."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting and release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    async def run(self) -> None:
        """``start`` + ``serve_forever`` (the CLI entry)."""
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.close()

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve HTTP/1.1 requests on one connection (keep-alive)."""
        try:
            while True:
                try:
                    parsed = await _read_request(reader)
                except _HttpError as exc:
                    writer.write(_encode_response(
                        exc.status, {"error": exc.message},
                        keep_alive=False))
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                status, payload = await self._dispatch(
                    method, path, body)
                writer.write(_encode_response(
                    status, payload, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> "tuple[int, dict]":
        """Route one request; every outcome becomes a JSON body."""
        self.service.count("serve.requests")
        try:
            status, payload = await self._route(method, path, body)
        except ProtocolError as exc:
            self.service.count("serve.rejected")
            return exc.status, {"error": exc.message,
                                "schema": SERVE_SCHEMA}
        except Exception as exc:  # noqa: BLE001 — the 500 boundary
            self.service.count("serve.errors")
            return 500, {"error": f"internal error: "
                                  f"{type(exc).__name__}: {exc}",
                         "schema": SERVE_SCHEMA}
        payload.setdefault("schema", SERVE_SCHEMA)
        return status, payload

    async def _route(self, method: str, path: str,
                     body: bytes) -> "tuple[int, dict]":
        if path == "/solve":
            _require_method(method, "POST")
            return 200, await self._handle_solve(
                parse_json_body(body))
        if path == "/graphs":
            if method == "GET":
                return 200, {"graphs": [
                    registered.describe() for registered in
                    self.service.graphs.values()]}
            _require_method(method, "POST")
            return 200, await self._handle_register(
                parse_json_body(body))
        if path.startswith("/graphs/") and path.endswith("/edits"):
            _require_method(method, "POST")
            name = path[len("/graphs/"):-len("/edits")]
            return 200, await self._handle_edits(
                name, parse_json_body(body))
        if path == "/stats":
            _require_method(method, "GET")
            return 200, self.service.stats()
        if path == "/healthz":
            _require_method(method, "GET")
            return 200, {"status": "ok",
                         "graphs": len(self.service.graphs),
                         "cache_size": len(self.service.cache)}
        if path == "/cache/clear":
            _require_method(method, "POST")
            return 200, {"cleared": self.service.cache.clear()}
        raise ProtocolError(404, f"no such endpoint: {path}")

    # -- /solve --------------------------------------------------------

    async def _handle_solve(self, payload: dict) -> dict:
        request = parse_solve_request(payload)
        graph, registered = await self._resolve(request)
        if registered is None:
            # Anonymous graphs are immutable snapshots: their key is
            # stable, so no lock is needed and the cache/coalesce
            # lookups can happen before the admission wait.
            return await self._answer(request, graph, None)
        # Registered graphs are live.  Admission first, so a solve
        # queued behind unrelated load never blocks edits (which
        # bypass admission); then the graph lock; and only then the
        # fingerprint — the cache key must name the exact graph
        # version being solved, with no edit able to interleave
        # before the result is stored under it.
        async with self._admission:
            async with self._graph_lock(registered.name):
                return await self._answer(request, graph, registered)

    async def _answer(
        self, request: SolveRequest, graph: SignedGraph,
        registered: "RegisteredGraph | None",
    ) -> dict:
        """Cache lookup, coalescing, and the solve for one request.

        For a registered graph the caller holds its admission slot
        and the graph's lock throughout, so the key computed here is
        the key of the graph version actually solved and cached.
        """
        key = self.service.cache_key(graph.fingerprint(), request)
        cached = self.service.cache.get(key)
        if cached is not None:
            self.service.count("serve.cache_hits")
            return {**cached, "cache": "hit"}
        coalesce_key = key + request.budget_key()
        inflight = self._inflight.get(coalesce_key)
        if inflight is not None:
            # The leader never needs the lock this request may hold
            # (a same-graph registered solve would already hold it,
            # excluding us), so awaiting here cannot deadlock; its
            # graph is content-identical and cannot mutate while we
            # hold ours, so its answer is ours.
            self.service.count("serve.coalesced")
            shared = await asyncio.shield(inflight)
            return {**shared, "cache": "coalesced"}
        self.service.count("serve.cache_misses")
        future: "asyncio.Future[dict]" = \
            asyncio.get_running_loop().create_future()
        # A coalesced waiter cancelled mid-await must not surface the
        # leader's "exception was never retrieved" warning.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[coalesce_key] = future
        try:
            result = await self._run_solve(request, graph, registered)
            future.set_result(result)
        except BaseException as exc:
            future.set_exception(exc)
            raise
        finally:
            del self._inflight[coalesce_key]
        if result["status"] == Status.OPTIMAL.value:
            self.service.cache.put(key, result)
        else:
            self.service.count("serve.truncated")
        return {**result, "cache": "miss"}

    async def _resolve(
        self, request: SolveRequest,
    ) -> "tuple[SignedGraph, RegisteredGraph | None]":
        """Resolve the graph spec, generating datasets on the pool."""
        if isinstance(request.graph, str) \
                and request.graph.startswith("dataset:") \
                and not self.service.dataset_cached(request.graph):
            name, scale = parse_dataset_ref(request.graph)
            async with self._dataset_lock:
                # The loaded graph itself, not a second memo lookup:
                # the bounded memo may have evicted it meanwhile.
                return await self._run_blocking(
                    self.service.load_dataset, name, scale), None
        return self.service.resolve_graph(request.graph)

    async def _run_solve(
        self, request: SolveRequest, graph: SignedGraph,
        registered: "RegisteredGraph | None",
    ) -> dict:
        """Execute one solve on the pool under its request span.

        Anonymous solves admit here; registered solves arrive from
        :meth:`_handle_solve` already holding an admission slot (and
        their graph lock).
        """
        budget = self.service.build_budget(request)
        tracer = get_tracer(True)
        admission = (self._admission if registered is None
                     else contextlib.nullcontext())
        async with admission:
            with tracer.span(
                    "serve.request", problem=request.problem,
                    tau=request.tau) as span:
                payload = await self._run_blocking(
                    self.service.execute, request, graph,
                    registered, budget, tracer)
                span.set(status=payload["status"])
        self.service.tracer.absorb(tracer.export_buffer())
        return payload

    def _graph_lock(self, name: str) -> "asyncio.Lock":
        """The per-registered-graph writer lock."""
        return self._graph_locks.setdefault(name, asyncio.Lock())

    # -- /graphs -------------------------------------------------------

    async def _handle_register(self, payload: dict) -> dict:
        name, spec, tau = parse_register_request(payload)
        if name in self.service.graphs:
            raise ProtocolError(
                409, f"graph {name!r} is already registered; POST "
                     f"edits to it or pick another name")
        if isinstance(spec, str):
            ds_name, scale = parse_dataset_ref(spec)
            async with self._dataset_lock:
                shared = await self._run_blocking(
                    self.service.load_dataset, ds_name, scale)
            # Residents own their graph's mutation stream; a shared
            # dataset memo entry must not mutate under other requests.
            graph = shared.copy()
        else:
            graph = graph_from_inline(spec)
        async with self._admission:
            registered = await self._run_blocking(
                self.service.prime_registration, name, graph, tau)
        return self.service.commit_registration(registered)

    async def _handle_edits(self, name: str, payload: dict) -> dict:
        validate_graph_name(name)
        script_text = parse_edits_request(payload)
        registered = self.service.lookup_graph(name)
        async with self._graph_lock(name):
            return await self._run_blocking(
                self.service.apply_script, registered, script_text)

    # -- pool plumbing -------------------------------------------------

    async def _run_blocking(self, fn: "Callable[..., _T]",
                            *args: object) -> "_T":
        """Run ``fn(*args)`` on the worker pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, *args)


# -- HTTP framing ------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict[str, str], bytes] | None":
    """Parse one HTTP/1.1 request; ``None`` on a clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, OSError):
        return None
    except (ValueError, asyncio.LimitOverrunError):
        # StreamReader.readline signals a line beyond its 64 KiB
        # limit with ValueError; answer 400 instead of letting the
        # connection task die with an unhandled exception.
        raise _HttpError(400, "request line too long") from None
    if not line:
        return None
    try:
        method, target, _version = line.decode(
            "latin-1").strip().split(" ", 2)
    except ValueError:
        raise _HttpError(
            400, f"malformed request line: {line!r}") from None
    headers: "dict[str, str]" = {}
    for _ in range(MAX_HEADER_LINES):
        try:
            header = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(
                431, "request header line too long") from None
        if header in (b"\r\n", b"\n", b""):
            break
        name, sep, value = header.decode("latin-1").partition(":")
        if not sep:
            raise _HttpError(
                400, f"malformed header line: {header!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(
            431, f"more than {MAX_HEADER_LINES} request headers")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(
            400, f"invalid Content-Length: {length_text!r}") from None
    if length > MAX_BODY_BYTES:
        raise _HttpError(
            413, f"request body of {length} bytes exceeds the "
                 f"{MAX_BODY_BYTES}-byte limit")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


def _encode_response(status: int, payload: dict,
                     keep_alive: bool) -> bytes:
    """Serialise a JSON response with explicit framing."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n")
    return head.encode("latin-1") + body


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise ProtocolError(
            405, f"method {method} not allowed here (use {expected})")


# -- embedding ---------------------------------------------------------


class BackgroundServer:
    """A serve daemon on a background thread, for tests and the bench.

    Runs the app's event loop on a daemon thread, exposes the bound
    URL, and tears the loop down on :meth:`stop` / context exit::

        with BackgroundServer(SolverService()) as server:
            urllib.request.urlopen(server.url + "/healthz")
    """

    def __init__(self, service: SolverService,
                 host: str = "127.0.0.1", port: int = 0,
                 pool_size: int = DEFAULT_POOL_SIZE) -> None:
        self.app = ServeApp(service, host=host, port=port,
                            pool_size=pool_size)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop",
            daemon=True)
        self._ready = threading.Event()
        self._startup_error: "BaseException | None" = None

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.app.start())
        except BaseException as exc:  # noqa: BLE001 — report to starter
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.app.close())
            self._loop.close()

    def start(self) -> "BackgroundServer":
        """Bind and begin serving; returns once the port is live."""
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve daemon failed to start: "
                f"{self._startup_error}") from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("serve daemon did not start in time")
        return self

    @property
    def url(self) -> str:
        """Base URL of the running daemon."""
        return f"http://{self.app.host}:{self.app.port}"

    def submit(
        self, coro: "Coroutine[object, object, object]",
    ) -> "object":
        """Run a coroutine on the server loop (test plumbing)."""
        return self.submit_nowait(coro).result(timeout=60)

    def submit_nowait(
        self, coro: "Coroutine[object, object, object]",
    ) -> "concurrent.futures.Future[object]":
        """Schedule a coroutine on the server loop without waiting
        (test plumbing for interleaving scenarios)."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def stop(self) -> None:
        """Shut the daemon down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
