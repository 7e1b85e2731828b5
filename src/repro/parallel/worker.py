"""Worker-side execution of ego-network tasks.

Each pool worker holds one :class:`WorkerContext` — the graph as two
adjacency-mask lists in the caller's vertex ids, the processing order,
the constraint and the shared incumbent — installed once at pool
start:

* under ``fork`` the parent stores the context in the module global
  :data:`_CTX` *before* creating the pool, and the children inherit it
  through the address space copy (zero serialization);
* under ``spawn`` the parent ships :meth:`WorkerContext.pack` — the
  masks flattened to two fixed-stride byte blobs
  (:func:`repro.kernels.bitset.masks_to_bytes`) — through the pool
  initializer, and each child rebuilds the context once.

Chunks then carry only vertex ids; the per-task allowed masks are
rebuilt worker-side from the shipped order
(:func:`repro.kernels.active.suffix_masks`).

The per-task bodies are the ego steps of :mod:`repro.dichromatic.ego`,
the same functions the serial MBC*/PF* sweeps call; the runners below
only supply the bar and aggregate.  :func:`run_mdc_chunk` reads the
bar from the shared incumbent at task start, so any worker's
improvement tightens every later task in every process;
:func:`run_dcc_chunk` is the PF* analogue: one
DCC feasibility question per vertex at the round's (or the live
shared) ``tau*`` bar.

Both mask engines hold the same masks: numpy = vectorised MDC/DCC
search, everything else shared, so a numpy worker runs the same ego
step as a bitset one and only its branch and bound differs.
"""

from __future__ import annotations

from typing import Any

from ..core.stats import SearchStats
from ..dichromatic.ego import DCC_STEPS, MDC_STEPS, witness_members
from ..kernels.active import suffix_masks
from ..kernels.bitset import masks_from_bytes, masks_to_bytes
from ..obs import TraceBuffer, get_tracer, install_tracer
from ..resilience.faults import fire_faults
from .incumbent import SharedIncumbent

__all__ = [
    "WorkerContext",
    "install_context",
    "init_spawned_worker",
    "run_mdc_chunk",
    "run_dcc_chunk",
    "run_mdc_chunk_task",
    "run_dcc_chunk_task",
    "PackedContext",
    "MdcChunkResult",
    "DccChunkResult",
]

#: :meth:`WorkerContext.pack` wire format — two mask byte blobs
#: (:func:`~repro.kernels.bitset.masks_to_bytes`), the vertex count,
#: tau, the processing order, the four flags, and the engine name.
#: Every engine ships the same blobs (numpy = vectorised MDC/DCC
#: search, everything else shared): the engine name only picks the
#: branch-and-bound search the worker's ego steps run.
PackedContext = tuple[
    bytes, bytes, int, int, "list[int]", bool, bool, bool, bool, str]

#: ``(witness, stats delta, trace delta, examined, skipped)`` per MDC
#: chunk; the witness is ``(anchor u, [(vertex, is_left), ...])`` or
#: ``None``; the trace delta is the chunk tracer's
#: :class:`~repro.obs.TraceBuffer` (``None`` unless requested).
MdcChunkResult = tuple[
    "tuple[int, list[tuple[int, bool]]] | None",
    "SearchStats | None", "TraceBuffer | None", int, int]

#: ``(successes, stats delta, trace delta, examined)`` per DCC chunk;
#: each success is ``(u, bar_used, [(vertex, is_left), ...])``.
DccChunkResult = tuple[
    "list[tuple[int, int, list[tuple[int, bool]]]]",
    "SearchStats | None", "TraceBuffer | None", int]

#: The per-process context (set by fork inheritance or the spawn
#: initializer).  One solve at a time per pool.
_CTX: "WorkerContext | None" = None


class WorkerContext:
    """Everything a worker needs for one solve, shipped at pool start."""

    def __init__(
        self,
        pos_bits: list[int],
        neg_bits: list[int],
        n: int,
        tau: int,
        order: list[int],
        incumbent: SharedIncumbent,
        use_core: bool = True,
        use_coloring: bool = True,
        want_stats: bool = False,
        want_trace: bool = False,
        engine: str = "bitset",
    ) -> None:
        self.pos_bits = pos_bits
        self.neg_bits = neg_bits
        self.n = n
        self.tau = tau
        self.order = order
        self.incumbent = incumbent
        self.use_core = use_core
        self.use_coloring = use_coloring
        self.want_stats = want_stats
        self.want_trace = want_trace
        self.engine = engine
        self._allowed: dict[int, int] | None = None

    def allowed(self, u: int) -> int:
        """Higher-ranked mask of ``u``, from the lazily-built suffix
        table (one pass over ``order`` per worker per solve)."""
        if self._allowed is None:
            self._allowed = suffix_masks(self.order)
        return self._allowed[u]

    def adjacency(self) -> object:
        """The graph as the ego steps of :mod:`repro.dichromatic.ego`
        take it: the mask pair, for every engine a pool runs."""
        return self.pos_bits, self.neg_bits

    def pack(self) -> PackedContext:
        """Compact picklable form for ``spawn`` pools.

        The adjacency dominates the payload; as byte blobs it pickles
        as two opaque buffers instead of ``2n`` big-int reductions.
        The incumbent's ``multiprocessing.Value`` travels separately —
        it carries its own shared-memory reduction.
        """
        return (
            masks_to_bytes(self.pos_bits, self.n),
            masks_to_bytes(self.neg_bits, self.n),
            self.n, self.tau, self.order,
            self.use_core, self.use_coloring, self.want_stats,
            self.want_trace, self.engine,
        )

    @classmethod
    def unpack(cls, packed: PackedContext,
               incumbent: SharedIncumbent) -> "WorkerContext":
        pos_blob, neg_blob, n, tau, order, use_core, use_coloring, \
            want_stats, want_trace, engine = packed
        return cls(
            masks_from_bytes(pos_blob, n), masks_from_bytes(neg_blob, n),
            n, tau, order, incumbent,
            use_core=use_core, use_coloring=use_coloring,
            want_stats=want_stats, want_trace=want_trace, engine=engine)


def install_context(ctx: "WorkerContext | None") -> None:
    """Set the process-local context (fork path and in-process path)."""
    global _CTX
    _CTX = ctx


def init_spawned_worker(packed: PackedContext, value: Any) -> None:
    """Pool initializer for ``spawn`` contexts."""
    incumbent = SharedIncumbent.from_value(value)
    install_context(WorkerContext.unpack(packed, incumbent))


def run_mdc_chunk(chunk: list[int]) -> MdcChunkResult:
    """Solve the MDC instances of ``chunk`` against the live incumbent.

    Returns ``(witness, stats, buffer, examined, skipped)`` where
    ``witness`` is ``(u, members)`` for the best clique found in this
    chunk (``members`` are ``(vertex, is_left)`` pairs in the shipped
    masks' ids, excluding the anchor ``u``) or ``None``; ``stats`` is the
    chunk's :class:`SearchStats` delta and ``buffer`` its
    :class:`~repro.obs.TraceBuffer` (each ``None`` unless requested);
    and ``examined`` / ``skipped`` count processed tasks and pre-bound
    skips for the dispatch report.
    """
    ctx = _CTX
    assert ctx is not None, "worker context not installed"
    tau = ctx.tau
    incumbent = ctx.incumbent
    stats = SearchStats() if ctx.want_stats else None
    tracer = get_tracer(ctx.want_trace)
    # Ambient for the chunk's duration, so kernel-layer spans (mask
    # builds inside the network constructors) land in the buffer too.
    previous = install_tracer(tracer) if ctx.want_trace else None
    mdc_step = MDC_STEPS[ctx.engine]
    adjacency = ctx.adjacency()
    # The first of the largest witnesses, as the chunk meets them.
    witness: "tuple[int, list[tuple[int, bool]]] | None" = None
    skipped = 0

    with tracer.span("chunk", size=len(chunk)):
        for u in chunk:
            with tracer.span("ego", v=u) as ego:
                # The bar, refreshed once per task from the shared
                # register: a stale read only loosens the bound, never
                # breaks correctness.
                pruned, upper, network, found = mdc_step(
                    adjacency, u, ctx.allowed(u), tau,
                    max(incumbent.get() + 1, 2 * tau),
                    use_core=ctx.use_core, use_coloring=ctx.use_coloring,
                    stats=stats, tracer=tracer, ego=ego)
            if pruned == "bound":
                skipped += 1
            if found is None or network is None:
                continue
            incumbent.improve(upper)
            members = witness_members(network, found)
            if witness is None or len(members) > len(witness[1]):
                witness = (u, members)

    if ctx.want_trace:
        install_tracer(previous)
    buffer = tracer.export_buffer() if ctx.want_trace else None
    return witness, stats, buffer, len(chunk), skipped


def run_mdc_chunk_task(
    task: "tuple[int, int, list[int]]",
) -> "tuple[int, MdcChunkResult]":
    """Dispatch envelope for :func:`run_mdc_chunk`.

    ``task`` is the resilient dispatcher's ``(chunk index, dispatch
    attempt, payload)`` triple; the index round-trips so the parent
    can account per-chunk completion, and ``(index, attempt)`` keys
    the fault-injection plan (:mod:`repro.resilience.faults`) — a
    no-op unless the chaos suite installed one.
    """
    idx, attempt, chunk = task
    fire_faults(idx, attempt)
    return idx, run_mdc_chunk(chunk)


def run_dcc_chunk_task(
    task: "tuple[int, int, tuple[int, list[int]]]",
) -> "tuple[int, DccChunkResult]":
    """Dispatch envelope for :func:`run_dcc_chunk` (see above)."""
    idx, attempt, payload = task
    fire_faults(idx, attempt)
    return idx, run_dcc_chunk(payload)


def run_dcc_chunk(args: tuple[int, list[int]]) -> DccChunkResult:
    """PF* round worker: one +1 feasibility question per vertex.

    ``args`` is ``(bar, chunk)`` — the round's ``tau*`` and the vertex
    ids to check.  Each check runs at ``max(bar, incumbent)`` so that
    successes elsewhere in the round tighten later questions; a success
    at bar ``b`` proves a clique with polarization ``b + 1`` and is
    published as such.  Returns ``(successes, stats, buffer,
    examined)`` with ``successes`` a list of ``(u, bar_used,
    members)``.
    """
    ctx = _CTX
    assert ctx is not None, "worker context not installed"
    bar, chunk = args
    incumbent = ctx.incumbent
    stats = SearchStats() if ctx.want_stats else None
    tracer = get_tracer(ctx.want_trace)
    previous = install_tracer(tracer) if ctx.want_trace else None
    dcc_step = DCC_STEPS[ctx.engine]
    adjacency = ctx.adjacency()
    successes = []

    with tracer.span("chunk", size=len(chunk), bar=bar):
        for u in chunk:
            bar_used = max(bar, incumbent.get())
            with tracer.span("ego", v=u, bar=bar_used) as ego:
                _pruned, _upper, network, found = dcc_step(
                    adjacency, u, ctx.allowed(u), bar_used, stats=stats,
                    tracer=tracer, ego=ego)
            if found is None or network is None:
                continue
            incumbent.improve(bar_used + 1)
            successes.append(
                (u, bar_used, witness_members(network, found)))

    if ctx.want_trace:
        install_tracer(previous)
    buffer = tracer.export_buffer() if ctx.want_trace else None
    return successes, stats, buffer, len(chunk)

