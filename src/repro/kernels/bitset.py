"""Bitset vertex-set representation.

A vertex subset of a graph over ids ``0..n-1`` is packed into a single
arbitrary-precision Python ``int``: bit ``v`` is set iff vertex ``v`` is
a member.  CPython stores these as arrays of 30-bit digits, so the three
primitives the branch-and-bound leans on all become word-parallel:

* intersection          — ``a & b``          (one C loop over digits),
* cardinality           — ``mask.bit_count()`` (popcount per digit),
* membership / removal  — ``mask & (1 << v)`` / ``mask & ~(1 << v)``.

An adjacency structure is simply ``list[int]`` — one neighbourhood mask
per vertex — built once per graph by :func:`adjacency_masks` and cached
by the graph classes (``DichromaticGraph.adjacency_bits`` /
``UnsignedGraph.adjacency_bits``).

This module is deliberately free of any graph-class imports so the
kernel layer never participates in import cycles (:mod:`repro.obs`
sits *below* the kernels and is the one sanctioned exception — the
mask builders report their cost to the ambient tracer).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..obs import current_tracer

__all__ = [
    "mask_of",
    "full_mask",
    "iter_bits",
    "bits_of",
    "popcount",
    "adjacency_masks",
    "left_side_mask",
    "mask_stride",
    "masks_to_bytes",
    "masks_from_bytes",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def full_mask(n: int) -> int:
    """Mask with bits ``0..n-1`` all set (the whole vertex set)."""
    return (1 << n) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> list[int]:
    """The set bit positions of ``mask`` as an ascending list."""
    return list(iter_bits(mask))


def popcount(mask: int) -> int:
    """Number of set bits (thin alias kept for call-site readability)."""
    return mask.bit_count()


def adjacency_masks(neighborhoods: Sequence[Iterable[int]]) -> list[int]:
    """Per-vertex neighbourhood masks from per-vertex neighbour sets."""
    with current_tracer().span("adjacency_masks", n=len(neighborhoods)):
        return [mask_of(adj) for adj in neighborhoods]


def left_side_mask(is_left: Sequence[bool]) -> int:
    """Mask of the L-side of a dichromatic graph's label array."""
    mask = 0
    for v, flag in enumerate(is_left):
        if flag:
            mask |= 1 << v
    return mask


def mask_stride(n: int) -> int:
    """Bytes needed to store one mask over vertex ids ``0..n-1``."""
    return max((n + 7) // 8, 1)


def masks_to_bytes(masks: Sequence[int], n: int) -> bytes:
    """Pack an adjacency mask list into one fixed-stride byte blob.

    The parallel engine ships graphs to worker processes in this form:
    ``n`` masks of ``mask_stride(n)`` bytes each, little-endian.  The
    blob is a flat ``bytes`` object, so pickling it costs one memcpy
    instead of one arbitrary-precision-int reduction per vertex.
    """
    with current_tracer().span("masks_to_bytes", n=n):
        stride = mask_stride(n)
        return b"".join(
            mask.to_bytes(stride, "little") for mask in masks)


def masks_from_bytes(blob: bytes, n: int) -> list[int]:
    """Inverse of :func:`masks_to_bytes`."""
    with current_tracer().span("masks_from_bytes", n=n):
        stride = mask_stride(n)
        if len(blob) != stride * n and n > 0:
            raise ValueError(
                f"blob of {len(blob)} bytes does not hold {n} masks "
                f"of stride {stride}")
        return [
            int.from_bytes(blob[i * stride:(i + 1) * stride], "little")
            for i in range(n)]
