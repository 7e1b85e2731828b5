"""Reading and writing signed graphs.

The on-disk format is a plain text edge list, one edge per line::

    # comment lines start with '#'
    <u> <v> <sign>

where ``sign`` is ``1``/``+``/``+1`` or ``-1``/``-``.  This matches the
format of the SNAP signed networks (soc-sign-bitcoin etc.) after their
header is stripped, so real datasets drop in directly when available.
"""

from __future__ import annotations

import os
from typing import IO, Iterable, Iterator, Sequence

from .graph import NEGATIVE, POSITIVE, SignedGraph

__all__ = [
    "read_edge_list",
    "read_edge_lines",
    "read_edge_text",
    "write_edge_list",
    "parse_edge_lines",
    "load_signed_graph",
    "save_signed_graph",
]

_SIGN_OF = {"1": POSITIVE, "+1": POSITIVE, "+": POSITIVE,
            "-1": NEGATIVE, "-": NEGATIVE}


def parse_edge_lines(
    lines: Iterable[str],
) -> Iterator[tuple[int, int, int]]:
    """Parse edge-list lines into ``(u, v, sign)`` triples.

    Blank lines and ``#`` comments are skipped.  Raises ``ValueError``
    with the offending line number for malformed input, including
    self-loops — :class:`~repro.signed.graph.SignedGraph` would reject
    one anyway, but only after id compaction has destroyed the line
    number the user needs to fix their file.  The whole input is read
    before the first triple is returned (:func:`_parse_columns`).
    """
    us, vs, signs = _parse_columns(lines)
    return zip(us, vs, signs)


def _parse_columns(
    lines: Iterable[str],
) -> tuple[list[int], list[int], list[int]]:
    """The edge-list syntax: lines to ``u``, ``v`` and sign columns.

    The one definition of the format and of its ``line N`` messages;
    :func:`parse_edge_lines` and :func:`read_edge_lines` both read
    through it.  ``raw.split()`` drops the same whitespace as
    ``raw.strip()``, so a line is a comment iff its first token starts
    with ``#``.
    """
    us: list[int] = []
    vs: list[int] = []
    signs: list[int] = []
    sign_of = _SIGN_OF.get
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'u v sign', got {raw.strip()!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-integer endpoint in "
                f"{raw.strip()!r}") from exc
        if u == v:
            raise ValueError(
                f"line {lineno}: self-loop ({u}, {v}) — signed graphs "
                f"here are simple")
        sign = sign_of(parts[2])
        if sign is None:
            raise ValueError(
                f"line {lineno}: sign must be +1/-1, got {parts[2]!r}")
        us.append(u)
        vs.append(v)
        signs.append(sign)
    return us, vs, signs


def read_edge_list(stream: IO[str]) -> SignedGraph:
    """Read a signed graph from an open text stream.

    Vertex ids may be sparse or negative; they are compacted to
    ``0..n-1`` in sorted order.  Duplicate edges with the
    same sign are merged silently; a duplicate with conflicting sign
    raises ``ValueError``.
    """
    return read_edge_lines(stream)


def read_edge_lines(lines: Iterable[str]) -> SignedGraph:
    """:func:`read_edge_list` over any iterable of edge-list lines.

    One pass parses the lines into three int columns, one sorted id
    set compacts them, and :class:`SignedGraph` links them in bulk.
    The graph and every ``ValueError`` are those of parsing with
    :func:`parse_edge_lines` and adding the triples one by one.
    """
    us, vs, signs = _parse_columns(lines)
    ids = sorted({*us, *vs})
    index = {old: new for new, old in enumerate(ids)}
    graph = SignedGraph._from_columns(
        len(ids), list(map(index.__getitem__, us)),
        list(map(index.__getitem__, vs)), signs)
    if graph is None:
        raise _first_conflict(us, vs, signs)
    return graph


def read_edge_text(text: str) -> SignedGraph:
    """:func:`read_edge_lines` over the lines of one text blob.

    The graph and every ``ValueError`` are those of
    ``read_edge_lines(text.splitlines())``.  A blob whose every line
    is exactly ``u v sign``, with single spaces and ``\n`` line ends,
    is read in bulk (:func:`_read_plain`); any other blob, and any
    plain one that some line would make raise, is read by the line
    loop, which stays the one definition of the syntax and of its
    ``line N`` messages.
    """
    graph = _read_plain(text)
    if graph is None:
        graph = read_edge_lines(text.splitlines())
    return graph


def _read_plain(text: str) -> SignedGraph | None:
    """The bulk read behind :func:`read_edge_text`, or ``None`` when
    the text is not plain or a line of it is not accepted.

    One ``split()`` gives the tokens, slicing gives the three columns,
    and re-joining them is the shape check: it rebuilds the text
    exactly iff every line is ``u v sign`` with single spaces (a
    trailing ``\n`` allowed), so the lines are those ``splitlines``
    yields and each holds the three tokens the loop would read.  Ids
    are compacted over the distinct tokens with one ``int()`` each
    (the loop's own conversion, so ``01`` and ``1`` are one vertex),
    and signs map through the loop's table.  A comment's ``#`` token
    fails ``int()``; a self-loop or an opposite-sign duplicate fails
    the bulk builder.  Each returns ``None`` before any message is
    written.
    """
    tokens = text.split()
    us, vs, signs = tokens[0::3], tokens[1::3], tokens[2::3]
    plain = "\n".join(map(" ".join, zip(us, vs, signs)))
    if text != plain and text != plain + "\n":
        return None
    try:
        value = {token: int(token) for token in {*us, *vs}}
    except ValueError:
        return None
    ids = sorted({*value.values()})
    rank = {old: new for new, old in enumerate(ids)}
    index = {token: rank[old] for token, old in value.items()}
    if not {*signs}.issubset(_SIGN_OF):
        return None
    return SignedGraph._from_columns(
        len(ids), list(map(index.__getitem__, us)),
        list(map(index.__getitem__, vs)),
        list(map(_SIGN_OF.__getitem__, signs)))


def _first_conflict(us: Sequence[int], vs: Sequence[int],
                    signs: Sequence[int]) -> ValueError:
    """The error for the first edge whose pair was already read with
    the other sign, named as its line wrote it."""
    seen: dict[tuple[int, int], int] = {}
    for u, v, sign in zip(us, vs, signs):
        if seen.setdefault((min(u, v), max(u, v)), sign) != sign:
            return ValueError(f"conflicting duplicate edge ({u}, {v})")
    raise AssertionError("no conflicting duplicate edge")


def write_edge_list(graph: SignedGraph, stream: IO[str]) -> None:
    """Write ``graph`` in the edge-list format."""
    stream.write(f"# signed graph: n={graph.num_vertices} "
                 f"m={graph.num_edges}\n")
    for u, v, sign in graph.edges():
        stream.write(f"{u} {v} {sign}\n")


def load_signed_graph(path: str | os.PathLike[str]) -> SignedGraph:
    """Load a signed graph from ``path`` (edge-list format).

    ``OSError`` is re-raised with the path attached: the CLI surfaces
    these directly, and a bare ``ENOENT`` from three frames down is
    useless without knowing *which* file the solve tried to read.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return read_edge_list(handle)
    except OSError as exc:
        raise OSError(
            f"cannot read signed graph {os.fspath(path)!r}: "
            f"{exc.strerror or exc}") from exc


def save_signed_graph(
    graph: SignedGraph, path: str | os.PathLike[str]
) -> None:
    """Save ``graph`` to ``path`` (edge-list format)."""
    with open(path, "w", encoding="utf-8") as handle:
        write_edge_list(graph, handle)
