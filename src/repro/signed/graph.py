"""Signed graph data structure.

The :class:`SignedGraph` is the substrate every algorithm in this package
operates on.  It stores an undirected simple signed graph
``G = (V, E+, E-)`` as two families of adjacency sets (one per edge sign),
mirroring the paper's notation:

* ``N+(v)`` — positive neighbours (:meth:`SignedGraph.pos_neighbors`),
* ``N-(v)`` — negative neighbours (:meth:`SignedGraph.neg_neighbors`),
* ``d+(v)`` / ``d-(v)`` — positive / negative degree.

Vertices are integers ``0..n-1``.  Optional string labels can be attached
(used by the case-study datasets so results are human-readable).

Design notes
------------
Adjacency *sets* (not lists) are used because the branch-and-bound
algorithms intersect neighbourhoods constantly; set intersection is the
dominant primitive.  The structure is mutable only through the explicit
edge/vertex editing API; algorithms never mutate a caller's graph.
MBC* and PF* restrict every phase to a vertex mask over the graph's
cached adjacency masks (:meth:`SignedGraph.adjacency_rows`), in the
caller's own ids, and run their graph-level peels on its cached
ascending neighbour lists (:meth:`SignedGraph.neighbor_rows`).  Both
caches fill one row at a time, on demand: a solve asks for the rows
of the vertices it will read (MBC* for its VertexReduction survivors),
so a graph that reduces to a few survivors never builds the rest.  A
row nobody asked for is an unbuilt row, which raises on any use.  Code
that must edit (EdgeReduction) works on a :meth:`SignedGraph.copy`.
The mutators are the one place an edit is checked: they reject
out-of-range ids before touching anything, report what they changed,
and keep the built rows current (the edge mutators patch both
endpoints' mask rows in place), so a solve after an edit never sees
stale adjacency and an incremental caller
(:class:`repro.dynamic.DynamicSolver`) reads the same masks instead
of keeping its own.
"""

from __future__ import annotations

import hashlib
import operator
import threading
from typing import Any, Iterable, Iterator, Mapping, NoReturn, Sequence

from ..kernels.bitset import full_mask, mask_of

POSITIVE = 1
NEGATIVE = -1

__all__ = ["SignedGraph", "POSITIVE", "NEGATIVE"]

_SIGNS = frozenset((POSITIVE, NEGATIVE))


#: ``S_u`` is a sum of 256-bit keys taken mod ``2**256``.
_ROW_MASK = (1 << 256) - 1

#: Vertices whose neighbour keys the process keeps: enough for every
#: stand-in dataset (3,000 vertices at scale 1.0), so the table's size
#: does not follow the largest graph a client sends.
_SHARED_KEY_VERTICES = 4096

# The fingerprint's neighbour keys, ``K(2v)`` in ``_KEYS[0][v]`` and
# ``K(2v + 1)`` in ``_KEYS[1][v]`` (code ``2v + 1`` is a negative
# neighbour), for ``v`` below ``_SHARED_KEY_VERTICES``.  Each key is a
# pure function of its code, so one table serves every graph in the
# process.  It only grows, by appends made under ``_KEYS_LOCK`` (the
# serve loop thread and pool threads fingerprint concurrently), and a
# reader indexes it only below a length it has already seen.
_KEYS: tuple[list[int], list[int]] = ([], [])
_KEYS_LOCK = threading.Lock()


def _key(code: int) -> int:
    """``K(code)``, from its definition."""
    return int.from_bytes(hashlib.sha256(
        b"repro.signed.fingerprint/key/%d" % code).digest(), "big")


def _neighbor_keys(n: int) -> tuple[list[int], list[int]]:
    """Key tables covering vertices ``0..n-1``: the shared table,
    grown up to the cap, and past it fresh copies that extend it and
    are freed with the caller's reference."""
    shared = min(n, _SHARED_KEY_VERTICES)
    if len(_KEYS[1]) < shared:
        with _KEYS_LOCK:
            for code in range(2 * len(_KEYS[1]), 2 * shared):
                _KEYS[code & 1].append(_key(code))
    start = len(_KEYS[1])
    if start >= n:
        return _KEYS
    pos, neg = _KEYS
    return (pos[:start] + [_key(c) for c in range(2 * start, 2 * n, 2)],
            neg[:start] + [_key(c) for c in range(2 * start + 1, 2 * n, 2)])


def _neighbor_key(code: int) -> int:
    """``K(code)`` for one edit: read from the shared table when its
    vertex is below the cap, hashed afresh otherwise."""
    v = code >> 1
    keys = _KEYS[code & 1]
    if v < len(keys):
        return keys[v]
    if v >= _SHARED_KEY_VERTICES:
        return _key(code)
    return _neighbor_keys(v + 1)[code & 1][v]


class _UnbuiltRow:
    """The entry of an adjacency row nobody has asked for yet.

    Every use raises ``LookupError``, so a solve that reads a row it
    did not ask for fails at once instead of reading an empty mask or
    an empty neighbour list.
    """

    __slots__ = ()

    def _unbuilt(self, *_args: object) -> NoReturn:
        raise LookupError(
            "adjacency row not built: ask for it with "
            "SignedGraph.adjacency_rows() or neighbor_rows()")

    __bool__ = __len__ = __iter__ = __contains__ = __getitem__ = _unbuilt
    __index__ = __int__ = __invert__ = __neg__ = _unbuilt
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _unbuilt
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _unbuilt
    __add__ = __radd__ = __sub__ = __rsub__ = _unbuilt
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _unbuilt
    bit_count = to_bytes = _unbuilt

    def __repr__(self) -> str:
        return "<unbuilt row>"

    def __reduce__(self) -> str:
        # Pickles and deep copies as the module's one instance, so a
        # copied graph's unbuilt rows still compare by identity.
        return "_UNBUILT"


#: The one unbuilt-row entry (compared by identity).
_UNBUILT: Any = _UnbuiltRow()

# Guards the first allocation of a graph's row lists, so threads that
# ask for rows of one shared graph at once fill the same lists.
_ROWS_LOCK = threading.Lock()


def _row_token(u: int, row_sum: int) -> int:
    """SHA-256 of row ``u``: ``u`` as 8 big-endian bytes, then its key
    sum as 32."""
    return int.from_bytes(hashlib.sha256(
        ((u << 256) | row_sum).to_bytes(40, "big")).digest(), "big")


class SignedGraph:
    """An undirected simple signed graph with integer vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    labels:
        Optional sequence of ``n`` vertex labels (e.g. subreddit names).
    """

    def __init__(self, n: int = 0,
                 labels: Sequence[str] | None = None) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._pos: list[set[int]] = [set() for _ in range(n)]
        self._neg: list[set[int]] = [set() for _ in range(n)]
        # Edge counters maintained incrementally by the mutation API so
        # num_edges / negative_ratio are O(1) (they are queried inside
        # reduction loops).
        self._pos_edges = 0
        self._neg_edges = 0
        # The row caches (see ``adjacency_rows`` and ``neighbor_rows``):
        # one entry per vertex, ``_UNBUILT`` until someone asks for it.
        self._masks: tuple[list[int], list[int]] | None = None
        self._masks_complete = False
        self._neighbor_rows: list[list[int]] | None = None
        # The last digest ``fingerprint()`` returned, with the
        # ``(n, acc)`` it hashed: a pair it checks rather than trusts,
        # so a digest computed on one thread while another edits can
        # never outlive the state it names.
        self._fingerprint: tuple[int, int, str] | None = None
        # The fingerprint's rows (see ``fingerprint()``): per vertex
        # ``u`` the key sum ``S_u`` of its neighbours above ``u`` and
        # its row token (0 for a zero sum), and ``acc``, the XOR of
        # all tokens.  ``None`` means "not primed": mutators skip the
        # rows entirely, so bulk construction and the reductions'
        # peeling loops pay nothing.  The first ``fingerprint()`` call
        # primes them with one SHA-256 per non-empty row; after that
        # an edge edit changes one row's sum and re-hashes its token
        # at once, so ``fingerprint()`` itself only reads, and
        # fingerprint-keyed caching stays viable on streaming graphs
        # (see ``repro.dynamic``).
        self._row_sums: list[int] | None = None
        self._row_tokens: list[int] = []
        self._row_acc = 0
        self._labels: list[str] | None = None
        if labels is not None:
            if len(labels) != n:
                raise ValueError(
                    f"expected {n} labels, got {len(labels)}")
            self._labels = list(labels)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        positive_edges: Iterable[tuple[int, int]] = (),
        negative_edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ) -> "SignedGraph":
        """Build a graph from explicit positive / negative edge lists
        (the positive list first, as :meth:`from_signed_edges`)."""
        return cls.from_signed_edges(
            n,
            [(u, v, POSITIVE) for u, v in positive_edges]
            + [(u, v, NEGATIVE) for u, v in negative_edges],
            labels=labels)

    @classmethod
    def from_signed_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        labels: Sequence[str] | None = None,
    ) -> "SignedGraph":
        """Build a graph from ``(u, v, sign)`` triples.

        The result and any ``ValueError`` are those of calling
        :meth:`add_edge` once per triple in order: same-sign
        duplicates merge, and the first offending triple raises
        ``add_edge``'s own message.  The edges are linked in bulk
        (:meth:`_from_columns`); only an input that fails there is
        replayed edge by edge, to raise that message.
        """
        triples = list(edges)
        graph = cls._from_columns(
            n, [u for u, _, _ in triples], [v for _, v, _ in triples],
            [sign for _, _, sign in triples], labels)
        if graph is None:
            graph = cls(n, labels=labels)
            for u, v, sign in triples:
                graph.add_edge(u, v, sign)
        return graph

    @classmethod
    def _from_columns(
        cls,
        n: int,
        us: Sequence[int],
        vs: Sequence[int],
        signs: Sequence[int],
        labels: Sequence[str] | None = None,
    ) -> "SignedGraph | None":
        """The bulk builder: edges ``(us[i], vs[i], signs[i])`` in one
        pass, or ``None`` when some edge would make :meth:`add_edge`
        raise ``ValueError``.

        Signs, ranges and self-loops are checked over whole columns,
        the adjacency sets are filled directly, the counters come from
        the set sizes, and an opposite-sign duplicate shows as a
        vertex whose positive and negative sets meet.
        """
        graph = cls(n, labels=labels)
        pos, neg = graph._pos, graph._neg
        if us:
            if not ({*signs} <= _SIGNS
                    and min(us) >= 0 and min(vs) >= 0
                    and max(us) < n and max(vs) < n) \
                    or any(map(operator.eq, us, vs)):
                return None
            for u, v, sign in zip(us, vs, signs):
                if sign == POSITIVE:
                    pos[u].add(v)
                    pos[v].add(u)
                else:
                    neg[u].add(v)
                    neg[v].add(u)
            if not all(map(set.isdisjoint, pos, neg)):
                return None
        graph._pos_edges = sum(map(len, pos)) // 2
        graph._neg_edges = sum(map(len, neg)) // 2
        return graph

    def copy(self) -> "SignedGraph":
        """Return a deep copy (labels included)."""
        clone = SignedGraph(self.num_vertices, labels=self._labels)
        clone._pos = [set(adj) for adj in self._pos]
        clone._neg = [set(adj) for adj in self._neg]
        clone._pos_edges = self._pos_edges
        clone._neg_edges = self._neg_edges
        return clone

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``n = |V|``."""
        return len(self._pos)

    @property
    def num_edges(self) -> int:
        """``m = |E+| + |E-|``."""
        return self.num_positive_edges + self.num_negative_edges

    @property
    def num_positive_edges(self) -> int:
        """``|E+|`` (incrementally maintained, O(1))."""
        return self._pos_edges

    @property
    def num_negative_edges(self) -> int:
        """``|E-|`` (incrementally maintained, O(1))."""
        return self._neg_edges

    @property
    def negative_ratio(self) -> float:
        """``|E-| / |E|`` — the statistic reported in Table I."""
        m = self.num_edges
        return self.num_negative_edges / m if m else 0.0

    def vertices(self) -> range:
        """Iterate vertex ids ``0..n-1``."""
        return range(self.num_vertices)

    def label(self, v: int) -> str:
        """Human-readable label of ``v`` (falls back to ``str(v)``)."""
        if self._labels is None:
            return str(v)
        return self._labels[v]

    def labels(self) -> list[str]:
        """Labels for all vertices (generated if none were attached)."""
        if self._labels is None:
            return [str(v) for v in self.vertices()]
        return list(self._labels)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def pos_neighbors(self, v: int) -> set[int]:
        """``N+(v)`` — the set of positive neighbours of ``v``.

        The returned set is the live internal set; callers must not
        mutate it.
        """
        return self._pos[v]

    def neg_neighbors(self, v: int) -> set[int]:
        """``N-(v)`` — the set of negative neighbours of ``v``."""
        return self._neg[v]

    def neighbors(self, v: int) -> set[int]:
        """``N(v) = N+(v) ∪ N-(v)`` (a fresh set)."""
        return self._pos[v] | self._neg[v]

    def adjacency_rows(
        self, rows: Iterable[int] | None = None,
    ) -> tuple[list[int], list[int]]:
        """The signed adjacency masks ``(pos, neg)``, built per row on
        demand.

        ``pos[v]`` and ``neg[v]`` are the masks of ``v``'s positive
        and negative neighbours.  The rows of ``rows`` (every row when
        ``None``) are built before this returns; any other entry may be
        an unbuilt row, which raises ``LookupError`` on any use, so
        ask for every row you read.  Built rows stay cached, and the
        calls return the same two lists: :meth:`add_edge`,
        :meth:`remove_edge` and :meth:`flip_sign` patch both endpoints'
        built rows in place, while :meth:`add_vertex` and
        :meth:`isolate_vertex` drop the lists, so the next call
        returns fresh ones.  Once every row is built a call costs
        O(1).  Callers must not mutate the lists.
        """
        masks = self._masks
        if masks is None:
            with _ROWS_LOCK:
                if self._masks is None:
                    n = len(self._pos)
                    self._masks = [_UNBUILT] * n, [_UNBUILT] * n
                masks = self._masks
        if not self._masks_complete:
            pos, neg = masks
            for v in range(len(pos)) if rows is None else rows:
                if pos[v] is _UNBUILT:
                    # ``pos[v]`` last: it is what marks the row built.
                    neg[v] = mask_of(self._neg[v])
                    pos[v] = mask_of(self._pos[v])
            if rows is None:
                self._masks_complete = True
        return masks

    def pos_adjacency_bits(self) -> list[int]:
        """Per-vertex positive-neighbour bitmasks, every row built:
        ``adjacency_rows()[0]``, under its contract."""
        return self.adjacency_rows()[0]

    def neg_adjacency_bits(self) -> list[int]:
        """Per-vertex negative-neighbour bitmasks, every row built:
        ``adjacency_rows()[1]``, under its contract."""
        return self.adjacency_rows()[1]

    def neighbor_rows(
        self, rows: Iterable[int] | None = None,
    ) -> list[list[int]]:
        """Signs-ignored adjacency as one ascending neighbour list per
        vertex, built per row on demand.

        Entry ``v`` is ``sorted(N(v))``.  The rows of ``rows`` (every
        row when ``None``) are built before this returns; any other
        entry may be an unbuilt row, as in :meth:`adjacency_rows`.
        The graph-level peels walk these lists, one machine-word read
        per edge.  Every call returns the same list; an edge edit
        drops both endpoints' rows and a vertex edit drops the list,
        so callers must not mutate it or hold a row across edits.
        """
        lists = self._neighbor_rows
        if lists is None:
            with _ROWS_LOCK:
                if self._neighbor_rows is None:
                    self._neighbor_rows = [_UNBUILT] * len(self._pos)
                lists = self._neighbor_rows
        for v in range(len(lists)) if rows is None else rows:
            if lists[v] is _UNBUILT:
                lists[v] = sorted(self._pos[v] | self._neg[v])
        return lists

    def built_rows(self) -> tuple[list[int], list[int]]:
        """The vertices whose mask rows and whose neighbour rows are
        built, each ascending: what the solves so far asked for."""
        masks = [] if self._masks is None else [
            v for v, row in enumerate(self._masks[0])
            if row is not _UNBUILT]
        lists = [] if self._neighbor_rows is None else [
            v for v, row in enumerate(self._neighbor_rows)
            if row is not _UNBUILT]
        return masks, lists

    def all_bits(self) -> int:
        """Mask of the full vertex set ``0..n-1``."""
        return full_mask(self.num_vertices)

    def _drop_rows(self) -> None:
        """Forget both row caches (a vertex edit)."""
        self._masks_complete = False
        self._masks = None
        self._neighbor_rows = None

    def _check_ids(self, u: int, v: int | None = None) -> None:
        """Reject an out-of-range edge ``(u, v)`` (or vertex ``u``)
        before any mutator touches the adjacency: a negative id would
        index the lists from the end and leave the graph corrupt."""
        n = len(self._pos)
        if v is None:
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range for n={n}")
        elif not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")

    def _link(self, u: int, v: int, sign: int) -> None:
        """Join ``u`` and ``v`` with ``sign``: adjacency, counter and
        built mask rows.  Drops both neighbour rows; the caller edits
        the fingerprint row (:meth:`_edit_row`)."""
        if sign == POSITIVE:
            adjacency = self._pos
            self._pos_edges += 1
        else:
            adjacency = self._neg
            self._neg_edges += 1
        adjacency[u].add(v)
        adjacency[v].add(u)
        self._patch_rows(u, v, sign, True)

    def _unlink(self, u: int, v: int) -> int:
        """Delete edge ``(u, v)`` as :meth:`_link` adds one; returns
        the sign it had.  Raises ``KeyError`` if no edge joins them."""
        if v in self._pos[u]:
            sign, adjacency = POSITIVE, self._pos
            self._pos_edges -= 1
        elif v in self._neg[u]:
            sign, adjacency = NEGATIVE, self._neg
            self._neg_edges -= 1
        else:
            raise KeyError(f"no edge between {u} and {v}")
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        self._patch_rows(u, v, sign, False)
        return sign

    def _patch_rows(self, u: int, v: int, sign: int,
                    linked: bool) -> None:
        """Reflect an edge ``(u, v)`` of ``sign`` just linked (or
        unlinked) in the built rows: set (or clear) its bit in both
        endpoints' mask rows, and drop both neighbour rows."""
        if self._masks is not None:
            masks = self._masks[sign == NEGATIVE]
            for a, b in ((u, v), (v, u)):
                row = masks[a]
                if row is not _UNBUILT:
                    masks[a] = row | (1 << b) if linked else row & ~(1 << b)
        lists = self._neighbor_rows
        if lists is not None:
            lists[u] = lists[v] = _UNBUILT

    def _edit_row(self, u: int, v: int, added: int | None,
                  removed: int | None) -> None:
        """In the row of the lower endpoint of ``(u, v)``, add the key
        of the edge with sign ``added`` and take away the key of the
        edge with sign ``removed`` (either may be ``None``), then
        re-hash the row's token: one SHA-256, so a flip costs the same
        as an insertion.  Does nothing while the rows are unprimed."""
        if self._row_sums is None:
            return
        if u > v:
            u, v = v, u
        row = self._row_sums[u]
        if added is not None:
            row += _neighbor_key(2 * v + (added == NEGATIVE))
        if removed is not None:
            row -= _neighbor_key(2 * v + (removed == NEGATIVE))
        self._set_row(u, row & _ROW_MASK)

    def _set_row(self, u: int, row_sum: int) -> None:
        """Store ``S_u`` and fold its new token into ``acc``."""
        self._row_sums[u] = row_sum
        token = _row_token(u, row_sum) if row_sum else 0
        self._row_acc ^= self._row_tokens[u] ^ token
        self._row_tokens[u] = token

    def pos_degree(self, v: int) -> int:
        """``d+(v)``."""
        return len(self._pos[v])

    def neg_degree(self, v: int) -> int:
        """``d-(v)``."""
        return len(self._neg[v])

    def degree(self, v: int) -> int:
        """``d(v) = d+(v) + d-(v)``."""
        return len(self._pos[v]) + len(self._neg[v])

    def sign(self, u: int, v: int) -> int | None:
        """Sign of edge ``(u, v)``: ``+1``, ``-1`` or ``None`` if absent."""
        if v in self._pos[u]:
            return POSITIVE
        if v in self._neg[u]:
            return NEGATIVE
        return None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether any edge (either sign) joins ``u`` and ``v``."""
        return v in self._pos[u] or v in self._neg[u]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each edge once as ``(u, v, sign)`` with ``u < v``."""
        for u in self.vertices():
            for v in self._pos[u]:
                if u < v:
                    yield u, v, POSITIVE
            for v in self._neg[u]:
                if u < v:
                    yield u, v, NEGATIVE

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, label: str | None = None) -> int:
        """Append a vertex; returns its id."""
        self._pos.append(set())
        self._neg.append(set())
        if self._row_sums is not None:
            self._row_sums.append(0)
            self._row_tokens.append(0)
        self._drop_rows()
        if self._labels is not None:
            self._labels.append(label if label is not None
                                else str(len(self._pos) - 1))
        elif label is not None:
            self._labels = [str(v) for v in range(len(self._pos) - 1)]
            self._labels.append(label)
        return len(self._pos) - 1

    def add_edge(self, u: int, v: int, sign: int) -> bool:
        """Insert edge ``(u, v)`` with the given sign.

        Returns ``False`` when the edge is already present with the
        same sign (a no-op) and ``True`` otherwise.

        Raises
        ------
        ValueError
            on self-loops, out-of-range endpoints, invalid signs, or if
            the edge already exists with the *opposite* sign (the paper
            assumes ``E+ ∩ E- = ∅``).
        """
        if sign not in (POSITIVE, NEGATIVE):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        self._check_ids(u, v)
        other = self._neg if sign == POSITIVE else self._pos
        if v in other[u]:
            raise ValueError(
                f"edge ({u}, {v}) already present with opposite sign")
        target = self._pos if sign == POSITIVE else self._neg
        if v in target[u]:
            return False
        self._link(u, v, sign)
        self._edit_row(u, v, sign, None)
        return True

    def remove_edge(self, u: int, v: int) -> int:
        """Delete the edge ``(u, v)`` whatever its sign; returns that
        sign.

        Raises
        ------
        ValueError
            on out-of-range endpoints.
        KeyError
            if no edge joins ``u`` and ``v``.
        """
        self._check_ids(u, v)
        sign = self._unlink(u, v)
        self._edit_row(u, v, None, sign)
        return sign

    def flip_sign(self, u: int, v: int) -> int:
        """Toggle the sign of the existing edge ``(u, v)``; returns the
        new sign.

        Raises
        ------
        ValueError
            on out-of-range endpoints.
        KeyError
            if no edge joins ``u`` and ``v``.
        """
        self._check_ids(u, v)
        sign = -self._unlink(u, v)
        self._link(u, v, sign)
        self._edit_row(u, v, sign, -sign)
        return sign

    def isolate_vertex(self, v: int) -> None:
        """Remove all edges incident to ``v`` (used by peeling reductions).

        Raises ``ValueError`` if ``v`` is out of range.  Drops the
        row caches, like :meth:`add_vertex`.
        """
        self._check_ids(v)
        if self._row_sums is not None:
            # Row ``v`` held every edge to a neighbour above ``v``;
            # each neighbour below ``v`` loses one key from its row.
            for sign, family in ((POSITIVE, self._pos),
                                 (NEGATIVE, self._neg)):
                for u in family[v]:
                    if u < v:
                        self._edit_row(u, v, None, sign)
            self._set_row(v, 0)
        for u in self._pos[v]:
            self._pos[u].discard(v)
        for u in self._neg[v]:
            self._neg[u].discard(v)
        self._pos_edges -= len(self._pos[v])
        self._neg_edges -= len(self._neg[v])
        self._pos[v] = set()
        self._neg[v] = set()
        self._drop_rows()

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def subgraph(
        self, vertices: Iterable[int]
    ) -> tuple["SignedGraph", list[int]]:
        """Vertex-induced subgraph ``G[S]`` with relabelled vertices.

        Returns the subgraph plus ``mapping`` where ``mapping[new_id]``
        is the original vertex id, so results can be translated back.
        """
        kept = set(vertices)
        mapping = sorted(kept)
        if len(mapping) == self.num_vertices:
            return self.copy(), mapping
        index: dict[int, int] = {old: new for new, old in enumerate(mapping)}
        labels = None
        if self._labels is not None:
            labels = [self._labels[old] for old in mapping]
        sub = SignedGraph(len(mapping), labels=labels)
        for new_u, old_u in enumerate(mapping):
            for old_v in self._pos[old_u] & kept:
                new_v = index[old_v]
                if new_u < new_v:
                    sub._pos[new_u].add(new_v)
                    sub._pos[new_v].add(new_u)
                    sub._pos_edges += 1
            for old_v in self._neg[old_u] & kept:
                new_v = index[old_v]
                if new_u < new_v:
                    sub._neg[new_u].add(new_v)
                    sub._neg[new_v].add(new_u)
                    sub._neg_edges += 1
        return sub, mapping

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of ``(n, signed edge set)``.

        Each signed neighbour code ``c = 2v + (sign is negative)`` has
        a 256-bit key ``K(c)``, the SHA-256 of
        ``b"repro.signed.fingerprint/key/%d" % c``, computed once per
        process.  Row ``u`` sums the keys of its neighbours ``v > u``
        mod ``2**256`` (``S_u``; each edge counts once, under its lower
        endpoint).  A row with a non-zero sum has the token SHA-256 of
        ``u`` as 8 big-endian bytes followed by ``S_u`` as 32 (an empty
        row's sum is 0 and has no token), and the fingerprint is the
        SHA-256 of ``"n={n};rows={acc:064x}"``, where ``acc`` is the
        XOR of the row tokens.  Labels and construction order do not
        matter.  This is the cache key for result caching /
        memoization.

        The row sums are an additive multiset hash (AdHash, Bellare
        and Micciancio, EUROCRYPT 1997): for edges chosen
        independently of the keys, two different rows collide with
        probability ``2**-256``, as does a non-empty row with a zero
        sum.  So the fingerprint is safe as a key for non-adversarial
        caching, not against clients who choose edges to collide.

        The first call primes the rows: one SHA-256 per non-empty row
        and one key addition per edge.  After that an edge edit
        (insertion, removal or flip) changes one row's sum and
        re-hashes that row's token, one SHA-256;
        :meth:`isolate_vertex` re-hashes one row per neighbour below
        the vertex.  A call then hashes only ``n`` and ``acc``, once
        per state: the digest is cached with the ``(n, acc)`` it
        hashed.  This method writes no row state once the rows are
        primed, so it may run on one thread while another edits.
        Keys of vertices at or above ``_SHARED_KEY_VERTICES`` are not
        kept: priming hashes them afresh, and an edit on such a
        vertex costs one more SHA-256 per key.  :meth:`copy` and
        :meth:`subgraph` return unprimed graphs.  The incremental
        path is what :class:`repro.dynamic.DynamicSolver` keys its
        per-ego result cache on; ``tests/test_signed_graph.py`` asserts
        it always equals a from-scratch recomputation.
        """
        if self._row_sums is None:
            self._prime_rows()
        n, acc = self.num_vertices, self._row_acc
        cached = self._fingerprint
        if cached is None or cached[0] != n or cached[1] != acc:
            cached = n, acc, hashlib.sha256(
                f"n={n};rows={acc:064x}".encode()).hexdigest()
            self._fingerprint = cached
        return cached[2]

    def _prime_rows(self) -> None:
        """Build the fingerprint's rows from the adjacency sets."""
        n = self.num_vertices
        pos_keys, neg_keys = _neighbor_keys(n)
        sums, tokens = [0] * n, [0] * n
        acc = 0
        for u, pos, neg in zip(range(n), self._pos, self._neg):
            row = [pos_keys[v] for v in pos if v > u]
            row += [neg_keys[v] for v in neg if v > u]
            if row:
                sums[u] = sum(row) & _ROW_MASK
                if sums[u]:
                    tokens[u] = _row_token(u, sums[u])
                    acc ^= tokens[u]
        # ``_row_sums`` last: it is what tells the mutators the rows
        # are primed.
        self._row_tokens, self._row_acc = tokens, acc
        self._row_sums = sums

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Intended for tests and after bulk construction — verifies
        symmetry, sign-disjointness, absence of self-loops, and that
        every built mask row and neighbour row matches the adjacency
        sets.
        """
        n = self.num_vertices
        for v in self.vertices():
            assert v not in self._pos[v], f"positive self-loop at {v}"
            assert v not in self._neg[v], f"negative self-loop at {v}"
            overlap = self._pos[v] & self._neg[v]
            assert not overlap, f"vertex {v} has double-signed edges {overlap}"
            for u in self._pos[v]:
                assert 0 <= u < n and v in self._pos[u], \
                    f"asymmetric positive edge ({v}, {u})"
            for u in self._neg[v]:
                assert 0 <= u < n and v in self._neg[u], \
                    f"asymmetric negative edge ({v}, {u})"
        pos_sum = sum(len(adj) for adj in self._pos) // 2
        neg_sum = sum(len(adj) for adj in self._neg) // 2
        assert self._pos_edges == pos_sum, \
            f"positive edge counter {self._pos_edges} != {pos_sum}"
        assert self._neg_edges == neg_sum, \
            f"negative edge counter {self._neg_edges} != {neg_sum}"
        masks, lists = self.built_rows()
        for v in masks:
            assert self._masks is not None
            assert self._masks[0][v] == mask_of(self._pos[v]) \
                and self._masks[1][v] == mask_of(self._neg[v]), \
                f"stale mask row {v}"
        for v in lists:
            assert self._neighbor_rows is not None
            assert self._neighbor_rows[v] == sorted(self.neighbors(v)), \
                f"stale neighbour row {v}"

    def degree_statistics(self) -> Mapping[str, float]:
        """Summary statistics used by dataset reports."""
        n = self.num_vertices
        if n == 0:
            return {"max_degree": 0, "avg_degree": 0.0,
                    "max_pos_degree": 0, "max_neg_degree": 0}
        return {
            "max_degree": max(self.degree(v) for v in self.vertices()),
            "avg_degree": 2.0 * self.num_edges / n,
            "max_pos_degree": max(self.pos_degree(v)
                                  for v in self.vertices()),
            "max_neg_degree": max(self.neg_degree(v)
                                  for v in self.vertices()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SignedGraph(n={self.num_vertices}, "
                f"m+={self.num_positive_edges}, "
                f"m-={self.num_negative_edges})")
