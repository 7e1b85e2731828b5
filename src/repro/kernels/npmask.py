"""uint64 mask-matrix search kernels (``engine="numpy"``).

numpy = vectorised MDC/DCC search, everything else shared: the
``"numpy"`` engine runs every phase of MBC*/PF* on the bitset engine's
int masks and uses this module only inside the branch and bound of
:mod:`repro.dichromatic.mdc` and :mod:`repro.dichromatic.dcc`.  Where
:mod:`repro.kernels.bitset` packs a vertex subset into one
arbitrary-precision Python int, the search here holds one ego
network's adjacency as a contiguous ``(n, ceil(n/64))`` uint64 **mask
matrix** — row ``v`` is the neighbourhood mask of vertex ``v`` — and a
vertex subset as one ``(ceil(n/64),)`` uint64 **row**.  Set algebra is
then elementwise ``&``/``|``/``^`` over machine words, cardinality is
a vectorised popcount (:data:`numpy.bitwise_count` where available, a
branch-free SWAR fallback otherwise), and the peeling kernels strip
whole frontiers per iteration instead of popping one vertex at a
time.

Word layout is little-endian throughout — bit ``v`` of a row lives in
word ``v >> 6`` at position ``v & 63`` — which makes the byte image of
a row identical to ``mask.to_bytes(..., "little")`` of the equivalent
int mask, so the int/row converters are plain byte copies.

numpy itself is an *optional* extra (``pip install repro[numpy]``).
The module always imports — :data:`HAVE_NUMPY` records whether the
backend is usable, and :func:`repro.kernels.validate_engine` refuses
``engine="numpy"`` with a clear error when it is not.  Nothing imports
this module until a numpy-engine search runs or the engine's
availability is probed, so ``import repro`` never loads numpy.

Vectorisation discipline is enforced by lint rule R010: no
Python-level ``for`` loop may iterate the rows of a ``Matrix``/``Row``
value in this module (see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..obs import current_tracer
from .active import first_fit_color_count

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import NDArray

    #: ``(n, words_for(n))`` uint64 adjacency mask matrix.
    Matrix = NDArray[np.uint64]
    #: ``(words_for(n),)`` uint64 vertex-set mask row.
    Row = NDArray[np.uint64]
    BoolArray = NDArray[np.bool_]
    IntArray = NDArray[np.int64]

__all__ = [
    "HAVE_NUMPY",
    "words_for",
    "popcount_words",
    "full_row",
    "row_from_mask",
    "mask_from_row",
    "row_count",
    "row_bool",
    "row_indices",
    "bool_to_row",
    "clear_bit",
    "test_bit",
    "matrix_from_masks",
    "degrees_in_active",
    "subtract_members",
    "argmin_active",
    "intersect_active",
    "degree_in_active",
    "k_core_active",
    "bicore_active",
    "coloring_upper_bound_active",
]

#: Whether the backend is usable (numpy importable).
HAVE_NUMPY = np is not None

#: ``numpy.bitwise_count`` when the installed numpy ships it (>= 2.0);
#: ``None`` selects the SWAR fallback.  Tests monkeypatch this to
#: exercise the fallback on modern numpy too.
_BITWISE_COUNT = getattr(np, "bitwise_count", None) if HAVE_NUMPY else None

_WORD_BYTES = 8
_WORD_DTYPE = "<u8"  # little-endian uint64: byte image == int mask bytes


def words_for(n: int) -> int:
    """uint64 words per mask row over vertex ids ``0..n-1``."""
    return max((n + 63) // 64, 1)


def _swar_popcount(words: "NDArray[np.uint64]") -> "NDArray[np.uint64]":
    """Branch-free SWAR popcount (numpy < 2.0 fallback).

    The classic 64-bit bit-twiddling reduction: pairwise sums, nibble
    sums, then one wrapping multiply gathers the byte counts into the
    top byte.  All arithmetic intentionally wraps modulo 2**64.
    """
    x = words.copy()
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + \
        ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def popcount_words(words: "NDArray[np.uint64]") -> "NDArray[np.uint64]":
    """Per-word popcount of a uint64 array (any shape)."""
    if _BITWISE_COUNT is not None:
        result: "NDArray[np.uint64]" = _BITWISE_COUNT(words)
        return result
    return _swar_popcount(words)


# ----------------------------------------------------------------------
# Rows (vertex-set masks)
# ----------------------------------------------------------------------
def full_row(n: int) -> "Row":
    """Row with bits ``0..n-1`` set and all trailing bits clear."""
    row = np.zeros(words_for(n), dtype=np.uint64)
    if n <= 0:
        return row
    row[: n >> 6] = np.uint64(0xFFFFFFFFFFFFFFFF)
    rem = n & 63
    if rem:
        row[n >> 6] = np.uint64((1 << rem) - 1)
    return row


def row_from_mask(mask: int, n: int) -> "Row":
    """Convert an int mask (:mod:`repro.kernels.bitset`) into a row."""
    blob = mask.to_bytes(words_for(n) * _WORD_BYTES, "little")
    return np.frombuffer(blob, dtype=_WORD_DTYPE).astype(
        np.uint64, copy=True)


def mask_from_row(row: "Row") -> int:
    """Inverse of :func:`row_from_mask`."""
    return int.from_bytes(
        row.astype(_WORD_DTYPE, copy=False).tobytes(), "little")


def row_count(row: "Row") -> int:
    """``|S|`` — number of vertices in the row."""
    return int(popcount_words(row).sum())


def row_bool(row: "Row", n: int) -> "BoolArray":
    """Row as an ``(n,)`` bool membership array."""
    bits = np.unpackbits(
        row.astype(_WORD_DTYPE, copy=False).view(np.uint8),
        bitorder="little")
    return bits[:n].astype(bool)


def row_indices(row: "Row", n: int) -> "NDArray[np.intp]":
    """Member vertex ids of the row, ascending."""
    return np.flatnonzero(row_bool(row, n))


def bool_to_row(flags: "BoolArray | Sequence[bool]", n: int) -> "Row":
    """Pack an ``(n,)`` bool membership array into a row."""
    words = np.zeros(words_for(n) * _WORD_BYTES, dtype=np.uint8)
    if n > 0:
        packed = np.packbits(
            np.asarray(flags, dtype=bool), bitorder="little")
        words[: packed.size] = packed
    return words.view(_WORD_DTYPE).astype(np.uint64, copy=False)


def clear_bit(row: "Row", v: int) -> None:
    """Remove vertex ``v`` from the row, in place."""
    row[v >> 6] &= ~(np.uint64(1) << np.uint64(v & 63))


def test_bit(row: "Row", v: int) -> bool:
    """Whether vertex ``v`` is in the row."""
    return bool(row[v >> 6] & (np.uint64(1) << np.uint64(v & 63)))


# ----------------------------------------------------------------------
# Matrices (adjacency)
# ----------------------------------------------------------------------
def matrix_from_masks(masks: Sequence[int], n: int) -> "Matrix":
    """Build the ``(len(masks), words_for(n))`` matrix from int masks."""
    with current_tracer().span("matrix_from_masks", n=n):
        width = words_for(n) * _WORD_BYTES
        blob = b"".join(mask.to_bytes(width, "little") for mask in masks)
        flat = np.frombuffer(blob, dtype=_WORD_DTYPE).astype(
            np.uint64, copy=True)
        return flat.reshape(len(masks), words_for(n))


# ----------------------------------------------------------------------
# Branching helpers (per-node search machinery)
# ----------------------------------------------------------------------
def degrees_in_active(mat: "Matrix", active: "Row") -> "IntArray":
    """Degree-in-active of every vertex, as one vectorised pass.

    Entries of vertices outside ``active`` are meaningless to callers
    (they are masked away before use) but computed anyway — one
    contiguous popcount beats any row-gathering bookkeeping.
    """
    return popcount_words(mat & active).sum(axis=1).astype(np.int64)


def subtract_members(
    degree: "IntArray", row: "Row", n: int
) -> None:
    """Decrement ``degree`` by one for every member of ``row``, in
    place (the incremental update after a branch vertex leaves)."""
    degree -= row_bool(row, n)


#: Fill value that never wins :func:`argmin_active`.  Built only when
#: numpy imported: this module must import cleanly without it.
_SENTINEL = np.int64(np.iinfo(np.int64).max) if HAVE_NUMPY else None


def argmin_active(values: "IntArray", flags: "BoolArray") -> int:
    """Index of the smallest value among ``flags``-marked entries.

    First occurrence wins, so ties break towards the lowest vertex id —
    the same tie-break as the bitset engine's ascending scan.  Returns
    ``-1`` when no entry is marked.
    """
    if not flags.any():
        return -1
    return int(np.argmin(np.where(flags, values, _SENTINEL)))


# ----------------------------------------------------------------------
# The kernel surface (array analogues of repro.kernels.active)
# ----------------------------------------------------------------------
def intersect_active(mat: "Matrix", v: int, active: "Row") -> "Row":
    """Candidate-set intersection ``N(v) ∩ active`` as a fresh row."""
    return mat[v] & active


def degree_in_active(mat: "Matrix", v: int, active: "Row") -> int:
    """``|N(v) ∩ active|``."""
    return int(popcount_words(mat[v] & active).sum())


def k_core_active(mat: "Matrix", k: int, active: "Row") -> "Row":
    """Label-blind ``k``-core of the subgraph induced by ``active``.

    Batch peeling: each iteration recomputes the degrees of every
    still-alive vertex in one vectorised pass and strips the *entire*
    frontier of violators at once, converging in at most "core-number
    layers" iterations rather than one pop per vertex.
    """
    if k <= 0:
        return active
    n = mat.shape[0]
    alive_row = active.copy()
    alive = row_bool(alive_row, n)
    members = np.flatnonzero(alive)
    while members.size:
        degrees = popcount_words(
            mat[members] & alive_row).sum(axis=1)
        keep = degrees >= np.uint64(k)
        if keep.all():
            break
        alive[members[~keep]] = False
        alive_row = bool_to_row(alive, n)
        members = members[keep]
    return alive_row


def bicore_active(
    mat: "Matrix",
    left_row: "Row",
    tau_l: int,
    tau_r: int,
    active: "Row",
) -> "Row":
    """``(tau_L, tau_R)``-core of the subgraph induced by ``active``.

    Same survival thresholds as
    :func:`repro.kernels.active.bicore_active_mask` — an L-vertex keeps
    ``>= tau_L - 1`` L-neighbours and ``>= tau_R`` R-neighbours, an
    R-vertex ``>= tau_L`` and ``>= tau_R - 1``; negative thresholds
    count as zero — peeled a whole frontier per iteration.
    """
    tau_l = max(tau_l, 0)
    tau_r = max(tau_r, 0)
    if tau_l == 0 and tau_r == 0:
        return active
    n = mat.shape[0]
    alive_row = active.copy()
    alive = row_bool(alive_row, n)
    is_left = row_bool(left_row, n)
    members = np.flatnonzero(alive)
    while members.size:
        rows = mat[members]
        left_deg = popcount_words(
            rows & (alive_row & left_row)).sum(axis=1).astype(np.int64)
        total_deg = popcount_words(
            rows & alive_row).sum(axis=1).astype(np.int64)
        right_deg = total_deg - left_deg
        violates = np.where(
            is_left[members],
            (left_deg < tau_l - 1) | (right_deg < tau_r),
            (left_deg < tau_l) | (right_deg < tau_r - 1))
        if not violates.any():
            break
        alive[members[violates]] = False
        alive_row = bool_to_row(alive, n)
        members = members[~violates]
    return alive_row


def coloring_upper_bound_active(mat: "Matrix", active: "Row",
                                adj: list[int]) -> int:
    """Greedy-colouring clique bound over ``active`` (``colorUB``).

    The greedy placement is inherently sequential — each colour choice
    depends on every earlier one — so a row-at-a-time numpy loop loses
    badly to int masks (0.12x vs bitset in the committed kernel
    benchmark).  Split the kernel instead: the degree ordering (half of
    the bitset kernel's cost) is computed vectorised from ``mat``, and
    placement runs through the shared bitset first-fit loop over
    ``adj``, the same adjacency as int masks (the caller keeps both,
    so no node converts rows back).  Order is identical by
    construction: non-increasing degree-in-active, ties by vertex id.
    """
    n = mat.shape[0]
    members = row_indices(active, n)
    if members.size == 0:
        return 0
    degrees = popcount_words(
        mat & active).sum(axis=1).astype(np.int64)
    order = members[np.lexsort((members, -degrees[members]))]
    return first_fit_color_count(adj, order.tolist())
