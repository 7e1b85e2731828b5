"""The solver service: graph resolution, solving, and registration.

:class:`SolverService` is the synchronous core the asyncio app
(:mod:`repro.serve.app`) dispatches onto its worker pool.  It owns

* the **result cache** (:class:`~repro.serve.cache.ResultCache`,
  keyed by graph fingerprint — see that module for the
  only-certified-optimal rule),
* the **graph registry**: named graphs registered via ``POST
  /graphs``, each resident as a :class:`~repro.dynamic.DynamicSolver`
  so edits invalidate per-ego bounds incrementally instead of
  evicting whole answers,
* a memo of **resolved dataset refs**, so ``dataset:douban`` costs
  one generation, after which its fingerprint (the cache key) is
  O(1) per request; it keeps the ``DATASET_MEMO_CAPACITY`` most
  recently used refs, so distinct ``@SCALE`` refs cannot grow it
  without bound,
* the service-lifetime **metrics tracer** (``serve.*`` counters and
  the merged per-request span trees behind ``GET /stats``).

Splitting the blocking core from the event loop keeps every solver
call testable without a socket, and pins the threading contract in
one place: methods marked *loop-thread-only* below touch the cache /
registry / tracer and must be called from the event-loop thread (or
a single-threaded test); ``execute`` and ``prime_registration`` are
pure compute over arguments and are what the app runs on pool
threads.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core.gmbc import gmbc_star
from ..core.mbc_star import mbc_star
from ..core.pf import pf_star
from ..core.result import SolveResult
from ..datasets.registry import dataset_names, load
from ..dynamic import DynamicSolver, apply_edit, parse_edit_script
from ..obs import Tracer, get_tracer
from ..resilience.budget import Budget, Status
from ..signed.graph import SignedGraph
from .cache import DEFAULT_CACHE_CAPACITY, ResultCache
from .protocol import ProtocolError, SolveRequest, graph_from_inline

__all__ = ["SolverService", "RegisteredGraph", "parse_dataset_ref",
           "DATASET_MEMO_CAPACITY"]

#: Resolved dataset refs a service keeps, least recently used evicted
#: first: the size of the registry's own generation cache.
DATASET_MEMO_CAPACITY = 32


def parse_dataset_ref(ref: str) -> "tuple[str, float]":
    """Split ``dataset:NAME[@SCALE]`` into ``(name, scale)``.

    The optional ``@SCALE`` suffix mirrors ``REPRO_BENCH_SCALE`` so a
    load generator (or a CI smoke) can serve shrunken stand-ins
    without a separate registry.
    """
    spec = ref.split(":", 1)[1]
    name, _, scale_text = spec.partition("@")
    scale = 1.0
    if scale_text:
        try:
            scale = float(scale_text)
        except ValueError:
            raise ProtocolError(
                400, f"invalid dataset scale {scale_text!r} in "
                     f"{ref!r}") from None
        if not (scale > 0 and math.isfinite(scale)):
            raise ProtocolError(
                400, f"dataset scale must be a finite number > 0, "
                     f"got {scale_text!r} in {ref!r}")
    if name.lower() not in dataset_names():
        raise ProtocolError(
            400, f"unknown dataset {name!r}; "
                 f"available: {dataset_names()}")
    return name.lower(), scale


@dataclass
class RegisteredGraph:
    """One resident graph: a live :class:`DynamicSolver` + its key.

    ``tau`` is the residency parameter: ``mbc`` requests matching it
    (and every ``pf`` request) are answered straight from the solver's
    incremental cache; anything else (another tau, ``gmbc``) solves
    against the live graph it wraps.
    """

    name: str
    solver: DynamicSolver
    tau: int

    @property
    def graph(self) -> SignedGraph:
        """The live wrapped graph."""
        return self.solver.graph

    def describe(self) -> dict:
        """The registry row ``GET /graphs`` reports."""
        graph = self.graph
        return {
            "name": self.name,
            "fingerprint": graph.fingerprint(),
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "tau": self.tau,
            "edits": self.solver.edits,
        }


class SolverService:
    """Blocking solve/registration core behind the serve endpoints."""

    def __init__(
        self,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        workers: int = 0,
    ) -> None:
        self.workers = workers
        self.cache = ResultCache(cache_capacity)
        self.graphs: "dict[str, RegisteredGraph]" = {}
        #: Service-lifetime tracer: ``serve.*`` counters plus the
        #: per-request span trees the app absorbs after each request.
        self.tracer: Tracer = get_tracer(True)
        # The dataset memo, oldest use first.  ``load_dataset`` writes
        # it from pool threads while the loop thread reads it, so
        # every access holds the lock.
        self._datasets: \
            "OrderedDict[tuple[str, float], SignedGraph]" = OrderedDict()
        self._datasets_lock = threading.Lock()

    # -- counters (loop-thread-only) -----------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Bump a ``serve.*`` counter on the service tracer."""
        self.tracer.counter(name).inc(n)

    def counters_snapshot(self) -> "dict[str, int]":
        """Plain-data counter state (the ``GET /stats`` body)."""
        return self.tracer.counters_snapshot()

    # -- graph resolution ----------------------------------------------

    def resolve_graph(
        self, spec: "str | dict",
    ) -> "tuple[SignedGraph, RegisteredGraph | None]":
        """Materialise a request's graph spec.

        Loop-thread-only for the registry/memo lookups; the *first*
        resolution of a dataset ref generates the stand-in (blocking,
        potentially slow) — the app routes that case through the pool
        via :meth:`load_dataset`.
        """
        if isinstance(spec, dict):
            return graph_from_inline(spec), None
        if spec.startswith("graph:"):
            name = spec.split(":", 1)[1]
            registered = self.graphs.get(name)
            if registered is None:
                raise ProtocolError(
                    404, f"no registered graph named {name!r}; "
                         f"register it via POST /graphs first")
            return registered.graph, registered
        name, scale = parse_dataset_ref(spec)
        return self.load_dataset(name, scale), None

    def dataset_cached(self, spec: str) -> bool:
        """Whether a dataset ref is already materialised (memo hit)."""
        key = parse_dataset_ref(spec)
        with self._datasets_lock:
            return key in self._datasets

    def load_dataset(self, name: str, scale: float) -> SignedGraph:
        """Generate (or re-use) a stand-in; memoised per (name, scale)
        with least-recently-used eviction past
        ``DATASET_MEMO_CAPACITY`` refs.

        Generation is deterministic, so a duplicate generation from a
        racing first request is wasteful but harmless — last write
        wins with an identical graph.
        """
        key = (name, scale)
        with self._datasets_lock:
            graph = self._datasets.get(key)
            if graph is not None:
                self._datasets.move_to_end(key)
                return graph
        graph = load(name, scale=scale)
        graph.fingerprint()  # prime: later requests need O(1) keys
        with self._datasets_lock:
            self._datasets[key] = graph
            self._datasets.move_to_end(key)
            while len(self._datasets) > DATASET_MEMO_CAPACITY:
                self._datasets.popitem(last=False)
        return graph

    # -- solving -------------------------------------------------------

    @staticmethod
    def cache_key(fingerprint: str,
                  request: SolveRequest) -> "tuple[str, str, int]":
        """The result-cache key; tau is keyed for ``mbc`` only (pf and
        gmbc ignore it, so requests differing only in tau share the
        answer)."""
        tau = request.tau if request.problem == "mbc" else 0
        return (fingerprint, request.problem, tau)

    @staticmethod
    def build_budget(request: SolveRequest) -> "Budget | None":
        """A fresh per-request budget, or ``None`` when unbounded."""
        if request.timeout is None and request.max_nodes is None:
            return None
        return Budget(deadline=request.timeout,
                      max_nodes=request.max_nodes)

    def execute(
        self,
        request: SolveRequest,
        graph: SignedGraph,
        registered: "RegisteredGraph | None",
        budget: "Budget | None",
        trace: "Tracer | None" = None,
    ) -> dict:
        """Run one solve and build its response payload (pool-safe).

        Touches only its arguments — never the cache or registry — so
        the app can run it on any worker thread.  The payload's
        ``status`` mirrors the budget outcome; the app caches it only
        when optimal.
        """
        problem = request.problem
        use_resident = (
            registered is not None
            and (problem == "pf"
                 or (problem == "mbc" and request.tau == registered.tau)))
        if use_resident:
            assert registered is not None
            payload = self._execute_resident(
                request, registered, budget)
        elif problem == "mbc":
            clique = mbc_star(
                graph, request.tau, parallel=self.workers, trace=trace,
                budget=budget)
            payload = {
                "result": SolveResult.capture(clique, budget).to_json(),
            }
        elif problem == "pf":
            outcome = pf_star(
                graph, parallel=self.workers, return_witness=True,
                trace=trace, budget=budget)
            assert isinstance(outcome, tuple)
            beta, witness = outcome
            payload = {
                "beta": beta,
                "result": SolveResult.capture(
                    witness, budget, lower_bound=beta).to_json(),
            }
        else:
            results = gmbc_star(
                graph, parallel=self.workers, trace=trace, budget=budget)
            status_value = (budget.status if budget is not None
                            else Status.OPTIMAL).value
            payload = {
                "result": {
                    "status": status_value,
                    "beta": len(results) - 1 if results else 0,
                    "cliques": [clique.to_json()
                                for clique in results],
                },
            }
        status = payload["result"]["status"]
        payload.update(
            problem=problem, tau=request.tau,
            fingerprint=graph.fingerprint(), status=status,
            resident=use_resident)
        return payload

    def _execute_resident(
        self,
        request: SolveRequest,
        registered: RegisteredGraph,
        budget: "Budget | None",
    ) -> dict:
        """Answer through the resident dynamic solver's bound cache."""
        if request.problem == "pf":
            outcome = registered.solver.beta(
                budget, return_witness=True)
            assert isinstance(outcome, tuple)
            beta, witness = outcome
            return {
                "beta": beta,
                "result": SolveResult.capture(
                    witness, budget, lower_bound=beta).to_json(),
            }
        result = registered.solver.solve(budget)
        return {"result": result.to_json()}

    # -- registration --------------------------------------------------

    def prime_registration(
        self, name: str, graph: SignedGraph, tau: int,
    ) -> RegisteredGraph:
        """Build the resident solver for a graph (pool-safe: the cold
        priming sweep is the expensive part of registration)."""
        solver = DynamicSolver(graph, tau)
        return RegisteredGraph(name=name, solver=solver, tau=tau)

    def commit_registration(
        self, registered: RegisteredGraph,
    ) -> dict:
        """Publish a primed registration (loop-thread-only).

        Re-checks the name: two racing registrations both prime, but
        only the first publishes — the loser gets the 409 it would
        have gotten serially.
        """
        if registered.name in self.graphs:
            raise ProtocolError(
                409, f"graph {registered.name!r} is already "
                     f"registered; POST edits to it or pick another "
                     f"name")
        self.graphs[registered.name] = registered
        self.count("serve.graphs_registered")
        return registered.describe()

    def lookup_graph(self, name: str) -> RegisteredGraph:
        """The registered graph for an edits endpoint, or 404."""
        registered = self.graphs.get(name)
        if registered is None:
            raise ProtocolError(
                404, f"no registered graph named {name!r}")
        return registered

    def apply_script(self, registered: RegisteredGraph,
                     script_text: str) -> dict:
        """Parse and apply an edit script to a resident graph.

        Edits stream through the solver's guarded mutation API, so
        each one invalidates exactly the dirty ego instances.  A
        malformed script is rejected whole (parse-before-apply); an
        edit that is *semantically* impossible (removing an absent
        edge) fails mid-script — the response says how many were
        applied, and the applied prefix remains in effect, exactly
        like a partial CLI replay.
        """
        try:
            edits = parse_edit_script(script_text)
        except ValueError as exc:
            raise ProtocolError(
                400, f"invalid edit script: {exc}") from exc
        applied = 0
        no_ops = 0
        for index, edit in enumerate(edits):
            try:
                changed = apply_edit(registered.solver, edit)
            except (KeyError, ValueError) as exc:
                message = exc.args[0] if exc.args else str(exc)
                raise ProtocolError(
                    400, f"edit {index + 1} ({edit.as_line()}) "
                         f"failed after {applied} applied: "
                         f"{message}") from exc
            applied += 1
            if not changed:
                no_ops += 1
        self.count("serve.edits_applied", applied)
        return {
            "name": registered.name,
            "applied": applied,
            "no_ops": no_ops,
            "dirty_egos": registered.solver.dirty_count,
            "fingerprint": registered.graph.fingerprint(),
        }

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """The ``GET /stats`` body (loop-thread-only)."""
        return {
            "counters": self.counters_snapshot(),
            "cache": {
                "size": len(self.cache),
                "capacity": self.cache.capacity,
            },
            "graphs": [registered.describe()
                       for registered in self.graphs.values()],
        }
