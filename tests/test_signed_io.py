"""Tests for signed-graph I/O."""

import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph
from repro.signed.io import _read_plain, load_signed_graph, \
    parse_edge_lines, read_edge_lines, read_edge_list, read_edge_text, \
    save_signed_graph, write_edge_list

from .conftest import signed_graphs


class TestParse:
    def test_basic_lines(self):
        triples = list(parse_edge_lines(["0 1 1", "1 2 -1"]))
        assert triples == [(0, 1, POSITIVE), (1, 2, NEGATIVE)]

    def test_sign_tokens(self):
        triples = list(parse_edge_lines(
            ["0 1 +1", "0 2 +", "0 3 -", "0 4 -1"]))
        assert [s for _, _, s in triples] == [1, 1, -1, -1]

    def test_skips_comments_and_blanks(self):
        triples = list(parse_edge_lines(
            ["# header", "", "   ", "0 1 1"]))
        assert triples == [(0, 1, POSITIVE)]

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="line 1"):
            list(parse_edge_lines(["0 1"]))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="non-integer"):
            list(parse_edge_lines(["a b 1"]))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            list(parse_edge_lines(["0 1 2"]))

    def test_rejects_self_loop_with_line_number(self):
        # SignedGraph would reject the loop anyway, but only after id
        # compaction has destroyed the line number the user needs.
        with pytest.raises(ValueError, match=r"line 2.*self-loop"):
            list(parse_edge_lines(["0 1 +1", "3 3 -1"]))


class TestReadWrite:
    def test_read_compacts_sparse_ids(self):
        graph = read_edge_list(io.StringIO("10 20 1\n20 30 -1\n"))
        assert graph.num_vertices == 3
        assert graph.sign(0, 1) == POSITIVE
        assert graph.sign(1, 2) == NEGATIVE

    def test_read_merges_duplicates(self):
        graph = read_edge_list(io.StringIO("0 1 1\n1 0 1\n"))
        assert graph.num_edges == 1

    def test_read_rejects_conflicting_duplicates(self):
        with pytest.raises(ValueError, match="conflicting"):
            read_edge_list(io.StringIO("0 1 1\n0 1 -1\n"))

    def test_write_contains_all_edges(self):
        graph = SignedGraph.from_edges(
            3, positive_edges=[(0, 1)], negative_edges=[(1, 2)])
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        body = buffer.getvalue()
        assert "0 1 1" in body
        assert "1 2 -1" in body

    def test_round_trip_via_stream(self):
        graph = SignedGraph.from_edges(
            4, positive_edges=[(0, 1), (2, 3)], negative_edges=[(0, 3)])
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        buffer.seek(0)
        loaded = read_edge_list(buffer)
        assert sorted(loaded.edges()) == sorted(graph.edges())

    def test_round_trip_via_file(self, tmp_path):
        graph = SignedGraph.from_edges(
            5, positive_edges=[(0, 4), (1, 2)], negative_edges=[(3, 4)])
        path = tmp_path / "graph.txt"
        save_signed_graph(graph, path)
        loaded = load_signed_graph(path)
        assert sorted(loaded.edges()) == sorted(graph.edges())

    def test_load_error_names_the_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(OSError, match="nope.txt"):
            load_signed_graph(missing)

    @given(signed_graphs(max_vertices=12))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, graph):
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        buffer.seek(0)
        loaded = read_edge_list(buffer)
        # Isolated vertices are not representable in an edge list, so
        # compare edge sets modulo the id compaction.
        used = sorted({u for u, v, _ in graph.edges()}
                      | {v for u, v, _ in graph.edges()})
        relabel = {old: new for new, old in enumerate(used)}
        expected = sorted(
            (relabel[u], relabel[v], s) for u, v, s in graph.edges())
        assert sorted(loaded.edges()) == expected


# ----------------------------------------------------------------------
# Bulk ingest against the per-edge reference
# ----------------------------------------------------------------------
def _reference_parse(lines):
    """The line-at-a-time parser the column loop replaced, kept as the
    oracle for the syntax and its ``line N`` messages."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected 'u v sign', got {line!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-integer endpoint in {line!r}") from exc
        if u == v:
            raise ValueError(
                f"line {lineno}: self-loop ({u}, {v}) — signed graphs "
                f"here are simple")
        token = parts[2]
        if token in {"1", "+1", "+"}:
            sign = POSITIVE
        elif token in {"-1", "-"}:
            sign = NEGATIVE
        else:
            raise ValueError(
                f"line {lineno}: sign must be +1/-1, got {token!r}")
        yield u, v, sign


def _reference_read(text):
    """The per-edge reader the bulk path replaces: the reference
    parser, then one ``sign()`` test and ``add_edge`` per triple."""
    triples = list(_reference_parse(io.StringIO(text)))
    ids = sorted({u for u, _, _ in triples} | {v for _, v, _ in triples})
    index = {old: new for new, old in enumerate(ids)}
    graph = SignedGraph(len(ids))
    for u, v, sign in triples:
        a, b = index[u], index[v]
        if graph.sign(a, b) == sign:
            continue
        try:
            graph.add_edge(a, b, sign)
        except ValueError as exc:
            raise ValueError(
                f"conflicting duplicate edge ({u}, {v})") from exc
    return graph


def _reference_fingerprint(graph):
    """The fingerprint written out from its definition: a key per
    signed neighbour code ``2v + (sign is negative)``, per vertex the
    sum of its upper neighbours' keys mod 2**256, one SHA-256 token per
    row with a non-zero sum over the vertex (8 bytes) and its sum (32
    bytes), and SHA-256 over ``n`` and the XOR of the tokens."""
    def key(code):
        digest = hashlib.sha256(
            f"repro.signed.fingerprint/key/{code}".encode()).digest()
        return int.from_bytes(digest, "big")

    rows = {}
    for u, v, sign in graph.edges():
        low, high = min(u, v), max(u, v)
        code = 2 * high + (1 if sign == NEGATIVE else 0)
        rows[low] = (rows.get(low, 0) + key(code)) % 2**256
    acc = 0
    for u, row_sum in rows.items():
        if not row_sum:
            continue
        payload = u.to_bytes(8, "big") + row_sum.to_bytes(32, "big")
        acc ^= int.from_bytes(hashlib.sha256(payload).digest(), "big")
    payload = f"n={graph.num_vertices};rows={acc:064x}"
    return hashlib.sha256(payload.encode()).hexdigest()


def _parsed(parse, text):
    """The triples ``parse`` reads from ``text``, or its message."""
    try:
        return list(parse(io.StringIO(text)))
    except ValueError as exc:
        return str(exc)


def _outcome(build):
    """What a build yields: the graph's observable state, or the
    ``ValueError`` message it raised."""
    try:
        graph = build()
    except ValueError as exc:
        return ("error", str(exc))
    try:
        graph.validate()
        valid = "valid"
    except AssertionError as exc:
        valid = str(exc)
    return ("graph", graph.num_vertices,
            [sorted(graph.pos_neighbors(v)) for v in graph.vertices()],
            [sorted(graph.neg_neighbors(v)) for v in graph.vertices()],
            graph.num_positive_edges, graph.num_negative_edges,
            valid, graph.fingerprint(), _reference_fingerprint(graph))


_IDS = st.sampled_from([-12, -3, -1, 0, 1, 2, 3, 5, 9, 40, 1000])
_SIGN_TOKENS = st.sampled_from(["1", "+1", "+", "-1", "-"])
_GAP = st.sampled_from([" ", "  ", "\t", " \t "])
_LEAD = st.sampled_from(["", " ", "\t"])
_SKIPPED_LINE = st.sampled_from(["", "   ", "# comment", "  # 1 2 1",
                                 "#x"])
_MALFORMED_LINE = st.sampled_from([
    "1 2", "1 2 1 4", "a 1 1", "1 b -1", "1 2 2", "1 2 +-", "3 3 1",
    "-3 -3 -", "7\t7 +",
])


@st.composite
def _edge_list_lines(draw):
    """Edge lines over sparse and negative ids, mixed with comments
    and blanks, plus repeats of earlier edges in either orientation
    and (less often) with the other sign; some inputs get one
    malformed line, wrong token counts and self-loops included."""
    lines = []
    edges = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["edge"] * 5 + ["repeat"] * 2
                                    + ["skipped"]))
        if kind == "skipped":
            lines.append(draw(_SKIPPED_LINE))
            continue
        if kind == "repeat" and edges:
            u, v, token = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                u, v = v, u
            if draw(st.integers(0, 3)) == 0:
                token = "-" if token in ("1", "+1", "+") else "+1"
        else:
            u = draw(_IDS)
            v = draw(_IDS.filter(lambda v: v != u))
            token = draw(_SIGN_TOKENS)
            edges.append((u, v, token))
        gaps = draw(st.tuples(_GAP, _GAP))
        lead = draw(_LEAD)
        lines.append(f"{lead}{u}{gaps[0]}{v}{gaps[1]}{token}{lead}")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(_MALFORMED_LINE))
    return lines


class TestBulkIngestDifferential:
    """``read_edge_list`` and ``read_edge_lines`` link their edges in
    bulk; every input must still give the reference's graph (adjacency,
    counters, ``validate()``, fingerprint) or its exact error."""

    @given(_edge_list_lines(), st.sampled_from(["\n", "\r\n"]),
           st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_read_matches_reference(self, lines, newline, trailing):
        text = newline.join(lines) + (newline if trailing else "")
        expected = _outcome(lambda: _reference_read(text))
        assert _outcome(lambda: read_edge_list(io.StringIO(text))) \
            == expected
        assert _outcome(lambda: read_edge_lines(iter(text.splitlines()))) \
            == _outcome(lambda: _reference_read(
                "\n".join(text.splitlines())))
        assert _parsed(parse_edge_lines, text) \
            == _parsed(_reference_parse, text)
        if expected[0] == "graph":
            # The bulk fingerprint is the definition's, byte for byte.
            assert expected[7] == expected[8]

    @pytest.mark.parametrize("text, message", [
        ("0 1 1\n2 3 -1\n1 0 -\n5 5 1\n",
         "line 4: self-loop (5, 5) — signed graphs here are simple"),
        ("10 20 +\n30 20 -1\n20 10 -\n",
         "conflicting duplicate edge (20, 10)"),
        ("-5 7 1\n7 -5 -1\n", "conflicting duplicate edge (7, -5)"),
        ("0 1 1\n1 0 1\n0 1 -1\n1 0 -1\n",
         "conflicting duplicate edge (0, 1)"),
        ("0 1 1\n0 1 -1\n0 1\n", "line 3: expected 'u v sign', "
                                    "got '0 1'"),
    ])
    def test_first_error_in_input_order(self, text, message):
        with pytest.raises(ValueError) as caught:
            _reference_read(text)
        assert str(caught.value) == message
        with pytest.raises(ValueError) as caught:
            read_edge_list(io.StringIO(text))
        assert str(caught.value) == message


_TEXT_IDS = st.sampled_from(["0", "1", "2", "3", "5", "9", "40", "1000",
                             "-3", "-12", "01", "-0", "+7"])
_TEXT_SIGNS = st.sampled_from(["1", "-1", "+1", "+", "-"])
#: Token gaps and line ends: the plain ones most of the time.
_TEXT_GAPS = st.sampled_from([" "] * 8 + ["\t", "  ", "\x0b", "\x85",
                                          "\xa0", "\x0c"])
_TEXT_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x85",
                                          "\u2028", "\x1e"])
#: Whole lines the line loop skips or rejects.
_NEAR_MISS_LINES = st.sampled_from([
    "# comment", "#", "", "   ", "0 0 1", "01 1 -", "-0 0 1", "1 x 1",
    "1.5 2 1", "1 2 2", "1 2 +-", "1 2 plus", "1 2", "1 2 1 1",
])


@st.composite
def _edge_texts(draw, plain=False):
    """An edge-list text blob: ``u v sign`` lines, single spaces and
    ``\n`` ends when ``plain``; otherwise also other gaps and line
    ends, leading and trailing spaces, skipped and rejected lines.
    Either way some edges repeat, reversed, some with the other sign
    (a conflicting duplicate), and ids are spelled with leading
    zeros, signs and negatives."""
    end = "\n" if plain else draw(_TEXT_ENDS)
    lines = []
    edges = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["repeat"]
                                    + ["near-miss"] * (not plain)))
        if kind == "near-miss":
            lines.append(draw(_NEAR_MISS_LINES))
            continue
        if kind == "repeat" and edges:
            v, u, token = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                token = "1" if token.startswith("-") else "-"
        else:
            u = draw(_TEXT_IDS)
            v = draw(_TEXT_IDS.filter(lambda v: int(v) != int(u)))
            token = draw(_TEXT_SIGNS)
            edges.append((u, v, token))
        gap = " " if plain else draw(_TEXT_GAPS)
        lead, tail = ("", "") if plain else draw(st.sampled_from(
            [("", "")] * 6 + [(" ", ""), ("", " "), ("\t", "\t")]))
        lines.append(f"{lead}{u}{gap}{v} {token}{tail}")
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _text_outcome(build):
    """:func:`_outcome` plus each adjacency set's iteration order, so
    the graphs must match byte for byte, not only as sets."""
    outcome = _outcome(build)
    if outcome[0] == "graph":
        graph = build()
        outcome += ([list(graph.pos_neighbors(v)) for v in graph.vertices()],
                    [list(graph.neg_neighbors(v)) for v in graph.vertices()])
    return outcome


class TestBulkTextRead:
    """``read_edge_text`` reads plain blobs in bulk and everything else
    through the line loop; every blob must give what the line loop
    gives: graph, counters, fingerprint, or the exact error."""

    @given(_edge_texts())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_line_loop(self, text):
        assert _text_outcome(lambda: read_edge_text(text)) \
            == _text_outcome(lambda: read_edge_lines(text.splitlines()))

    @given(_edge_texts(plain=True))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_plain_texts_are_read_in_bulk(self, text):
        expected = _text_outcome(
            lambda: read_edge_lines(text.splitlines()))
        bulk = _read_plain(text)
        if expected[0] == "error":
            assert bulk is None
        else:
            assert bulk is not None
            assert _text_outcome(lambda: _read_plain(text)) == expected

    @pytest.mark.parametrize("text", [
        "0 1 1\t\n", "0 1 1\r\n1 2 -1", "0 1 1\n\n", " 0 1 1",
        "0  1 1", "0 1 1\x851 2 1", "# 0 1\n0 1 1", "0 1 1\n1 1 -1",
        "0 1 1\n1 0 -1", "0 1 x", "a 1 1", "0 1", "0 1 1 1\n2 3",
        "0 1 1\n\u2028", "1 01 1",
    ])
    def test_near_misses_fall_back_to_the_line_loop(self, text):
        assert _read_plain(text) is None
        assert _text_outcome(lambda: read_edge_text(text)) \
            == _text_outcome(lambda: read_edge_lines(text.splitlines()))


def _add_edge_loop(n, triples):
    graph = SignedGraph(n)
    for u, v, sign in triples:
        graph.add_edge(u, v, sign)
    return graph


class TestBulkConstructors:
    """``from_signed_edges`` / ``from_edges`` build in bulk but raise
    ``add_edge``'s own message for the first offending edge."""

    @pytest.mark.parametrize("n, triples", [
        (4, [(0, 1, 1), (-1, 2, 1)]),
        (4, [(0, 1, 1), (2, -3, -1)]),
        (4, [(0, 1, 1), (2, 4, -1)]),
        (4, [(0, 1, 1), (2, 2, 1)]),
        (4, [(0, 1, 1), (2, 3, 0)]),
        (4, [(0, 1, 1), (1, 0, -1)]),
        (4, [(0, 1, 1), (0, 1, -1), (5, 6, 1)]),
        (4, [(5, 6, 1), (0, 1, 1), (0, 1, -1)]),
    ])
    def test_signed_edges_raise_add_edge_messages(self, n, triples):
        with pytest.raises(ValueError) as expected:
            _add_edge_loop(n, triples)
        with pytest.raises(ValueError) as caught:
            SignedGraph.from_signed_edges(n, triples)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("n, positive, negative", [
        (4, [(0, 1), (-1, 2)], []),
        (4, [(0, 1)], [(2, 9)]),
        (4, [(0, 1), (3, 3)], []),
        (4, [(0, 1)], [(1, 0)]),
        (4, [(0, 1)], [(2, 3), (0, 1)]),
    ])
    def test_from_edges_raises_add_edge_messages(self, n, positive,
                                                  negative):
        with pytest.raises(ValueError) as expected:
            _add_edge_loop(n, [(u, v, POSITIVE) for u, v in positive]
                           + [(u, v, NEGATIVE) for u, v in negative])
        with pytest.raises(ValueError) as caught:
            SignedGraph.from_edges(n, positive, negative)
        assert str(caught.value) == str(expected.value)

    @given(st.integers(0, 6),
           st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6),
                              st.sampled_from([1, -1, 1, -1, 0, 2])),
                    max_size=20))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_signed_edges_match_add_edge_loop(self, n, triples):
        assert _outcome(lambda: SignedGraph.from_signed_edges(n, triples)) \
            == _outcome(lambda: _add_edge_loop(n, triples))
