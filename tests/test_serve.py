"""Black-box tests of the serve daemon over a real socket.

Every test here talks HTTP to a :class:`~repro.serve.BackgroundServer`
— the same transport a deployed client uses — so the wire contract
(status codes, JSON shapes, cache/coalescing counters) is pinned
end-to-end, not via internal calls.  The blocking core gets its own
direct coverage where the HTTP layer would only add noise
(`TestServiceCore`).

Counter assertions read ``GET /stats`` *deltas* so tests stay valid
regardless of what earlier requests on the same fixture did.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.core.result import BalancedClique, SolveResult
from repro.serve import (
    DATASET_MEMO_CAPACITY,
    BackgroundServer,
    ProtocolError,
    ResultCache,
    SERVE_SCHEMA,
    SolverService,
    parse_dataset_ref,
)
from repro.serve.protocol import graph_from_inline
from repro.signed.graph import POSITIVE, SignedGraph
from repro.signed.io import read_edge_list

from .conftest import make_random_signed_graph

# -- fixtures and helpers ----------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A 3|3 two-faction graph: optimum {0,1,2}|{3,4,5} at tau=3.
FACTIONS = (
    [[u, v, 1] for u, v in [(0, 1), (0, 2), (1, 2),
                            (3, 4), (3, 5), (4, 5)]]
    + [[u, v, -1] for u in (0, 1, 2) for v in (3, 4, 5)])

#: Big enough that a solve takes real wall time (coalescing window)
#: and a ``max_nodes=1`` budget truncates.
SLOW_GRAPH_ARGS = (100, 0.55, 0.3, 7)


def edges_of(graph: SignedGraph) -> list[list[int]]:
    """The inline-triples spelling of a graph's edge list."""
    return [[u, v, 1 if sign == POSITIVE else -1]
            for u, v, sign in graph.edges()]


@pytest.fixture()
def server():
    with BackgroundServer(SolverService()) as running:
        yield running


def request(server: BackgroundServer, method: str, path: str,
            payload: "dict | None" = None) -> "tuple[int, dict]":
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        server.url + path, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


def post(server: BackgroundServer, path: str,
         payload: dict) -> "tuple[int, dict]":
    return request(server, "POST", path, payload)


def get(server: BackgroundServer, path: str) -> "tuple[int, dict]":
    return request(server, "GET", path)


def counters(server: BackgroundServer) -> "dict[str, int]":
    status, body = get(server, "/stats")
    assert status == 200
    return dict(body["counters"])


def counter_delta(before: "dict[str, int]", after: "dict[str, int]",
                  name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def read_raw_response(sock: socket.socket) -> "tuple[int, dict]":
    """Read one framed HTTP response off a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += sock.recv(4096)
    head, _, rest = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length"))
    while len(rest) < length:
        rest += sock.recv(4096)
    return status, json.loads(rest[:length])


# -- routing and transport ---------------------------------------------


class TestRouting:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["schema"] == SERVE_SCHEMA

    def test_unknown_path_is_404(self, server):
        status, body = get(server, "/nope")
        assert status == 404
        assert "/nope" in body["error"]

    def test_wrong_method_is_405(self, server):
        status, body = get(server, "/solve")
        assert status == 405
        assert "POST" in body["error"]

    def test_post_to_stats_is_405(self, server):
        status, _ = post(server, "/stats", {})
        assert status == 405

    def test_empty_body_is_400(self, server):
        status, body = request(server, "POST", "/solve", None)
        assert status == 400
        assert "JSON object" in body["error"]

    def test_invalid_json_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/solve", data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_non_object_body_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/solve", data=b"[1, 2]", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_rejections_bump_the_rejected_counter(self, server):
        before = counters(server)
        get(server, "/nope")
        post(server, "/solve", {"problem": "mbc"})
        after = counters(server)
        assert counter_delta(before, after, "serve.rejected") == 2
        assert counter_delta(before, after, "serve.errors") == 0


class TestKeepAlive:
    def _raw_request(self, payload: dict, close: bool = False) -> bytes:
        body = json.dumps(payload).encode()
        connection = b"Connection: close\r\n" if close else b""
        return (b"POST /solve HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                + connection + b"\r\n" + body)

    def _read_response(self, sock: socket.socket) -> "tuple[int, dict]":
        return read_raw_response(sock)

    def test_two_requests_on_one_connection(self, server):
        payload = {"graph": {"edges": FACTIONS}, "problem": "mbc",
                   "tau": 3}
        with socket.create_connection(
                (server.app.host, server.app.port), timeout=30) as sock:
            sock.sendall(self._raw_request(payload))
            status1, body1 = self._read_response(sock)
            sock.sendall(self._raw_request(payload))
            status2, body2 = self._read_response(sock)
        assert status1 == status2 == 200
        assert body1["cache"] == "miss"
        assert body2["cache"] == "hit"
        assert body1["result"] == body2["result"]

    def test_connection_close_is_honoured(self, server):
        payload = {"graph": {"edges": FACTIONS}, "problem": "mbc"}
        with socket.create_connection(
                (server.app.host, server.app.port), timeout=30) as sock:
            sock.sendall(self._raw_request(payload, close=True))
            status, _ = self._read_response(sock)
            assert status == 200
            sock.settimeout(10)
            assert sock.recv(4096) == b""  # server closed its side


class TestTransportLimits:
    """Oversized framing answers a 4xx and closes — never a dropped
    connection with an unhandled task exception (the StreamReader
    64 KiB line limit surfaces as ValueError from readline)."""

    def _exchange(self, server, data: bytes) -> "tuple[int, dict]":
        with socket.create_connection(
                (server.app.host, server.app.port),
                timeout=30) as sock:
            sock.sendall(data)
            status, body = read_raw_response(sock)
            sock.settimeout(10)
            try:
                trailing = sock.recv(4096)
            except ConnectionError:
                trailing = b""  # reset counts as closed
            assert trailing == b""  # server closed its side
        return status, body

    def test_oversized_request_line_is_400(self, server):
        status, body = self._exchange(
            server, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        assert status == 400
        assert "request line" in body["error"]

    def test_oversized_header_line_is_431(self, server):
        status, body = self._exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
            b"X-Pad: " + b"a" * 70_000 + b"\r\n\r\n")
        assert status == 431
        assert "header line" in body["error"]

    def test_too_many_headers_is_431(self, server):
        headers = b"".join(
            b"X-H%d: v\r\n" % index for index in range(150))
        status, body = self._exchange(
            server,
            b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
        assert status == 431
        assert "headers" in body["error"]

    def test_header_count_under_the_cap_still_serves(self, server):
        headers = b"".join(
            b"X-H%d: v\r\n" % index for index in range(50))
        with socket.create_connection(
                (server.app.host, server.app.port),
                timeout=30) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            status, body = read_raw_response(sock)
        assert status == 200
        assert body["status"] == "ok"


# -- request validation ------------------------------------------------


class TestSolveValidation:
    def _reject(self, server, payload: dict, *needles: str) -> None:
        status, body = post(server, "/solve", payload)
        assert status == 400, body
        for needle in needles:
            assert needle in body["error"], body["error"]

    def test_unknown_problem(self, server):
        self._reject(server, {"graph": {"edges": FACTIONS},
                              "problem": "sat"}, "problem", "sat")

    def test_missing_problem(self, server):
        self._reject(server, {"graph": {"edges": FACTIONS}}, "problem")

    def test_unknown_field(self, server):
        self._reject(server, {"graph": {"edges": FACTIONS},
                              "problem": "mbc", "depth": 4},
                     "unknown request fields", "depth")

    def test_bad_tau(self, server):
        for tau in (-1, "3", True, 1.5):
            self._reject(server, {"graph": {"edges": FACTIONS},
                                  "problem": "mbc", "tau": tau}, "tau")

    def test_unknown_engine(self, server):
        # The engine is not a request field: any value is rejected.
        for engine in ("cuda", "set", "bitset"):
            self._reject(server, {"graph": {"edges": FACTIONS},
                                  "problem": "mbc", "engine": engine},
                         "unknown request fields", "engine")

    def test_bad_timeout(self, server):
        for timeout in (-1, "fast", True):
            self._reject(server, {"graph": {"edges": FACTIONS},
                                  "problem": "mbc",
                                  "timeout": timeout}, "timeout")

    def test_bad_max_nodes(self, server):
        for max_nodes in (-5, 2.5, "many"):
            self._reject(server, {"graph": {"edges": FACTIONS},
                                  "problem": "mbc",
                                  "max_nodes": max_nodes}, "max_nodes")

    def test_missing_graph(self, server):
        self._reject(server, {"problem": "mbc"}, "graph")

    def test_bad_graph_ref_prefix(self, server):
        self._reject(server, {"graph": "file:/etc/passwd",
                              "problem": "mbc"}, "dataset:", "graph:")

    def test_inline_graph_unknown_field(self, server):
        self._reject(server, {"graph": {"edges": [], "directed": True},
                              "problem": "mbc"}, "directed")

    def test_unknown_dataset(self, server):
        self._reject(server, {"graph": "dataset:enron",
                              "problem": "mbc"}, "enron")

    def test_bad_dataset_scale(self, server):
        self._reject(server, {"graph": "dataset:bitcoin@big",
                              "problem": "mbc"}, "scale")
        self._reject(server, {"graph": "dataset:bitcoin@0",
                              "problem": "mbc"}, "scale")

    @pytest.mark.parametrize("scale", ["inf", "1e400", "-inf", "nan"])
    def test_non_finite_dataset_scale_is_400(self, server, scale):
        ref = f"dataset:bitcoin@{scale}"
        before = counters(server)
        self._reject(server, {"graph": ref, "problem": "mbc"},
                     "finite", ref)
        status, body = post(server, "/graphs", {
            "name": "g", "graph": ref, "tau": 3})
        assert status == 400, body
        assert "finite" in body["error"] and ref in body["error"]
        after = counters(server)
        assert counter_delta(before, after, "serve.errors") == 0

    def test_unregistered_graph_ref_is_404(self, server):
        status, body = post(server, "/solve", {
            "graph": "graph:ghost", "problem": "mbc"})
        assert status == 404
        assert "ghost" in body["error"]


class TestInlineEdgeErrors:
    """The satellite fix: library parse errors surface as 400s with
    the library's own diagnostics, never 500s."""

    def _reject(self, server, edges: object, *needles: str) -> None:
        before = counters(server)
        status, body = post(server, "/solve", {
            "graph": {"edges": edges}, "problem": "mbc"})
        after = counters(server)
        assert status == 400, body
        assert "invalid edge list" in body["error"]
        for needle in needles:
            assert needle in body["error"], body["error"]
        assert counter_delta(before, after, "serve.errors") == 0

    def test_self_loop_payload(self, server):
        self._reject(server, [[0, 0, 1]], "line 1", "self-loop")

    def test_self_loop_line_number_survives(self, server):
        self._reject(server, [[0, 1, 1], [2, 2, -1]],
                     "line 2", "self-loop")

    def test_conflicting_duplicate_edge_payload(self, server):
        self._reject(server, [[0, 1, 1], [0, 1, -1]], "0", "1")

    def test_bad_sign_token(self, server):
        self._reject(server, ["0 1 5"], "line 1")

    def test_text_blob_spelling(self, server):
        self._reject(server, "0 1 1\n0 0 1", "line 2", "self-loop")

    def test_array_item_holding_two_lines(self, server):
        # The item's newline starts a line, so the bad item is line 3.
        self._reject(server, ["0 1 1\n1 2 -1", "2 3"],
                     "line 3: expected 'u v sign', got '2 3'")

    def test_malformed_triple_is_400(self, server):
        status, body = post(server, "/solve", {
            "graph": {"edges": [[0, 1]]}, "problem": "mbc"})
        assert status == 400
        assert "edges[0]" in body["error"]

    def test_bad_edges_type_is_400(self, server):
        status, body = post(server, "/solve", {
            "graph": {"edges": 42}, "problem": "mbc"})
        assert status == 400


class TestInlineLines:
    """An array of lines reads as the lines joined by ``\\n``, read as
    one edge-list stream."""

    @pytest.mark.parametrize("edges", [
        ["0 1 1\n1 2 -1"],
        ["0 1 1\n1 2 -1", "2 3"],
        ["0 1 1\n", "", "1 2 -1\n\n", "2 2 1"],
        ["0 1 1\r\n1 2 -1", "2 3 +"],
        ["0 1 1\r1 2 -1"],
        [[0, 1, 1], ["1", "2\n2", "1"]],
        [[0, 1, 1], ["1", "2", "-1\n3 4 1"], "4 4 -"],
        [""],
    ])
    def test_matches_joined_stream(self, edges):
        def read(build):
            try:
                graph = build()
            except (ProtocolError, ValueError) as exc:
                return str(exc).removeprefix("invalid edge list: ")
            return graph.num_vertices, sorted(graph.edges())

        joined = "\n".join(
            item if isinstance(item, str)
            else " ".join(str(part) for part in item) for item in edges)
        assert read(lambda: graph_from_inline({"edges": edges})) \
            == read(lambda: read_edge_list(io.StringIO(joined)))


# -- solving through the wire ------------------------------------------


class TestSolve:
    def test_mbc_answer_matches_direct_solve(self, server):
        status, body = post(server, "/solve", {
            "graph": {"edges": FACTIONS}, "problem": "mbc", "tau": 3})
        assert status == 200
        assert body["status"] == "optimal"
        assert body["problem"] == "mbc"
        result = SolveResult.from_json(body["result"])
        assert result.clique.left == frozenset({0, 1, 2})
        assert result.clique.right == frozenset({3, 4, 5})
        assert result.lower_bound == 6

    def test_pf_answer_carries_beta_and_witness(self, server):
        graph = make_random_signed_graph(30, 0.4, 0.3, 11)
        status, body = post(server, "/solve", {
            "graph": {"edges": edges_of(graph)}, "problem": "pf"})
        assert status == 200
        outcome = pf_star(graph, return_witness=True)
        assert isinstance(outcome, tuple)
        beta, witness = outcome
        assert body["beta"] == beta
        served = SolveResult.from_json(body["result"])
        assert served.lower_bound == beta
        assert served.clique.polarization == beta

    def test_gmbc_answer_lists_a_clique_per_tau(self, server):
        graph = make_random_signed_graph(25, 0.45, 0.3, 13)
        status, body = post(server, "/solve", {
            "graph": {"edges": edges_of(graph)}, "problem": "gmbc"})
        assert status == 200
        cliques = [BalancedClique.from_json(c)
                   for c in body["result"]["cliques"]]
        assert body["result"]["beta"] == len(cliques) - 1
        for tau, clique in enumerate(cliques):
            direct = mbc_star(graph, tau)
            assert clique.size == direct.size
            assert clique.polarization >= tau

    def test_dataset_ref_solves(self, server):
        status, body = post(server, "/solve", {
            "graph": "dataset:bitcoin@0.05", "problem": "mbc",
            "tau": 2})
        assert status == 200
        assert body["status"] == "optimal"
        assert len(body["fingerprint"]) == 64


class TestCache:
    def test_identical_request_hits(self, server):
        payload = {"graph": {"edges": FACTIONS}, "problem": "mbc",
                   "tau": 3}
        before = counters(server)
        _, first = post(server, "/solve", payload)
        _, second = post(server, "/solve", payload)
        after = counters(server)
        assert first["cache"] == "miss"
        assert second["cache"] == "hit"
        assert first["result"] == second["result"]
        assert counter_delta(before, after, "serve.cache_misses") == 1
        assert counter_delta(before, after, "serve.cache_hits") == 1

    def test_different_tau_misses(self, server):
        base = {"graph": {"edges": FACTIONS}, "problem": "mbc"}
        post(server, "/solve", {**base, "tau": 3})
        _, body = post(server, "/solve", {**base, "tau": 2})
        assert body["cache"] == "miss"

    def test_pf_ignores_tau_in_the_key(self, server):
        base = {"graph": {"edges": FACTIONS}, "problem": "pf"}
        post(server, "/solve", {**base, "tau": 1})
        _, body = post(server, "/solve", {**base, "tau": 2})
        assert body["cache"] == "hit"

    def test_same_graph_inline_vs_dataset_shares_entries(self, server):
        # Fingerprint keying: the same content served two ways is one
        # cache entry.
        _, first = post(server, "/solve", {
            "graph": "dataset:bitcoin@0.05", "problem": "mbc",
            "tau": 2})
        from repro.datasets.registry import load
        graph = load("bitcoin", scale=0.05)
        _, second = post(server, "/solve", {
            "graph": {"edges": edges_of(graph)}, "problem": "mbc",
            "tau": 2})
        assert first["fingerprint"] == second["fingerprint"]
        assert second["cache"] == "hit"

    def test_cache_clear_forces_a_fresh_solve(self, server):
        payload = {"graph": {"edges": FACTIONS}, "problem": "mbc",
                   "tau": 3}
        post(server, "/solve", payload)
        status, body = post(server, "/cache/clear", {})
        assert status == 200
        assert body["cleared"] >= 1
        _, again = post(server, "/solve", payload)
        assert again["cache"] == "miss"

    def test_stats_reports_cache_occupancy(self, server):
        post(server, "/solve", {"graph": {"edges": FACTIONS},
                                "problem": "mbc", "tau": 3})
        _, body = get(server, "/stats")
        assert body["cache"]["size"] >= 1
        assert body["cache"]["capacity"] >= body["cache"]["size"]


class TestTruncation:
    """Budget-truncated requests: HTTP 200, certified bound, never
    cached."""

    def _slow_payload(self) -> dict:
        graph = make_random_signed_graph(*SLOW_GRAPH_ARGS)
        return {"graph": {"edges": edges_of(graph)}, "problem": "mbc",
                "tau": 3, "max_nodes": 1}

    def test_truncated_solve_is_200_budget_exhausted(self, server):
        status, body = post(server, "/solve", self._slow_payload())
        assert status == 200
        assert body["status"] == "budget_exhausted"
        result = SolveResult.from_json(body["result"])
        assert result.status.value == "budget_exhausted"
        assert result.lower_bound == result.clique.size

    def test_truncated_results_are_never_cached(self, server):
        payload = self._slow_payload()
        before = counters(server)
        _, first = post(server, "/solve", payload)
        _, second = post(server, "/solve", payload)
        after = counters(server)
        assert first["cache"] == second["cache"] == "miss"
        assert counter_delta(before, after, "serve.truncated") == 2
        assert counter_delta(before, after, "serve.cache_hits") == 0

    def test_unbudgeted_rerun_upgrades_to_optimal(self, server):
        payload = self._slow_payload()
        _, truncated = post(server, "/solve", payload)
        del payload["max_nodes"]
        _, full = post(server, "/solve", payload)
        assert full["status"] == "optimal"
        assert full["result"]["lower_bound"] >= \
            truncated["result"]["lower_bound"]


class TestConcurrency:
    def _fire(self, server, payload: dict,
              results: "list[tuple[int, dict]]") -> threading.Thread:
        def run() -> None:
            results.append(post(server, "/solve", payload))

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    def test_concurrent_distinct_clients_all_answered(self, server):
        results: "list[tuple[int, dict]]" = []
        threads = [
            self._fire(server, {
                "graph": {"edges": FACTIONS}, "problem": "mbc",
                "tau": tau}, results)
            for tau in (1, 2, 3) for _ in range(2)]
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 6
        assert all(status == 200 for status, _ in results)
        assert all(body["status"] == "optimal" for _, body in results)

    def test_identical_inflight_requests_coalesce(self, server):
        graph = make_random_signed_graph(*SLOW_GRAPH_ARGS)
        payload = {"graph": {"edges": edges_of(graph)},
                   "problem": "mbc", "tau": 3}
        before = counters(server)
        results: "list[tuple[int, dict]]" = []
        threads = [self._fire(server, payload, results)
                   for _ in range(3)]
        for thread in threads:
            thread.join(timeout=120)
        after = counters(server)
        assert len(results) == 3
        bodies = [body for _, body in results]
        assert all(b["result"] == bodies[0]["result"] for b in bodies)
        # Exactly one solve ran; the rest coalesced onto it or (if
        # they arrived after it finished) hit the cache.
        assert counter_delta(before, after, "serve.cache_misses") == 1
        assert counter_delta(before, after, "serve.coalesced") \
            + counter_delta(before, after, "serve.cache_hits") == 2


# -- the graph registry ------------------------------------------------


class TestRegistry:
    def _register(self, server, name: str = "g",
                  tau: int = 3) -> "tuple[int, dict]":
        return post(server, "/graphs", {
            "name": name, "graph": {"edges": FACTIONS}, "tau": tau})

    def test_register_reports_the_registry_row(self, server):
        status, body = self._register(server)
        assert status == 200
        assert body["name"] == "g"
        assert body["n"] == 6
        assert body["m"] == len(FACTIONS)
        assert body["tau"] == 3
        assert body["edits"] == 0

    def test_registered_graphs_are_listed(self, server):
        self._register(server, "alpha")
        self._register(server, "beta")
        status, body = get(server, "/graphs")
        assert status == 200
        assert sorted(g["name"] for g in body["graphs"]) == \
            ["alpha", "beta"]

    def test_duplicate_name_is_409(self, server):
        self._register(server)
        status, body = self._register(server)
        assert status == 409
        assert "'g'" in body["error"]

    def test_register_requires_tau_at_least_one(self, server):
        status, body = self._register(server, tau=0)
        assert status == 400
        assert "tau" in body["error"]

    def test_bad_name_is_400(self, server):
        for name in ("", "a/b", "a b", 7):
            status, body = post(server, "/graphs", {
                "name": name, "graph": {"edges": FACTIONS}})
            assert status == 400, name

    def test_register_from_graph_ref_is_400(self, server):
        self._register(server)
        status, body = post(server, "/graphs", {
            "name": "g2", "graph": "graph:g"})
        assert status == 400
        assert "graph:" in body["error"]

    def test_register_from_dataset_ref(self, server):
        status, body = post(server, "/graphs", {
            "name": "btc", "graph": "dataset:bitcoin@0.05", "tau": 2})
        assert status == 200
        _, solved = post(server, "/solve", {
            "graph": "graph:btc", "problem": "mbc", "tau": 2})
        assert solved["resident"] is True
        assert solved["fingerprint"] == body["fingerprint"]

    def test_resident_solve_matches_direct(self, server):
        self._register(server)
        status, body = post(server, "/solve", {
            "graph": "graph:g", "problem": "mbc", "tau": 3})
        assert status == 200
        assert body["resident"] is True
        result = SolveResult.from_json(body["result"])
        assert result.clique.size == 6

    def test_non_resident_tau_still_answers(self, server):
        self._register(server, tau=3)
        status, body = post(server, "/solve", {
            "graph": "graph:g", "problem": "mbc", "tau": 1})
        assert status == 200
        assert body["resident"] is False
        assert SolveResult.from_json(body["result"]).clique.size == 6

    def test_resident_pf_answer_carries_witness(self, server):
        # The resident solver's beta() must back its bound with the
        # same witness contract the direct pf_star path has — and the
        # cached payload must replay that witness to inline requests
        # for content-identical graphs.
        self._register(server)
        status, body = post(server, "/solve", {
            "graph": "graph:g", "problem": "pf"})
        assert status == 200
        assert body["resident"] is True
        assert body["beta"] == 3
        served = SolveResult.from_json(body["result"])
        assert served.lower_bound == 3
        assert served.clique.polarization == 3
        _, again = post(server, "/solve", {
            "graph": {"edges": FACTIONS}, "problem": "pf"})
        assert again["cache"] == "hit"
        assert SolveResult.from_json(
            again["result"]).clique.polarization == 3


class TestEdits:
    def _setup(self, server) -> None:
        status, _ = post(server, "/graphs", {
            "name": "g", "graph": {"edges": FACTIONS}, "tau": 3})
        assert status == 200

    def test_edit_script_text_form(self, server):
        self._setup(server)
        status, body = post(server, "/graphs/g/edits", {
            "script": "remove 0 1\nadd 0 1 +"})
        assert status == 200
        assert body["applied"] == 2
        assert body["name"] == "g"

    def test_edits_array_form(self, server):
        self._setup(server)
        status, body = post(server, "/graphs/g/edits", {
            "edits": ["flip 0 1", "flip 0 1"]})
        assert status == 200
        assert body["applied"] == 2

    def test_both_script_and_edits_is_400(self, server):
        self._setup(server)
        status, body = post(server, "/graphs/g/edits", {
            "script": "flip 0 1", "edits": ["flip 0 1"]})
        assert status == 400
        assert "exactly one" in body["error"]

    def test_edits_for_unknown_graph_is_404(self, server):
        status, body = post(server, "/graphs/ghost/edits", {
            "edits": ["flip 0 1"]})
        assert status == 404

    def test_invalid_script_is_rejected_whole(self, server):
        self._setup(server)
        status, body = post(server, "/graphs/g/edits", {
            "script": "remove 0 1\nteleport 2 3"})
        assert status == 400
        assert "invalid edit script" in body["error"]
        # Parse-before-apply: the valid first line must NOT have run.
        _, row = get(server, "/graphs")
        assert row["graphs"][0]["edits"] == 0

    def test_mid_script_failure_reports_progress(self, server):
        self._setup(server)
        status, body = post(server, "/graphs/g/edits", {
            "edits": ["remove 0 1", "remove 0 9"]})
        assert status == 400
        assert "edit 2" in body["error"]
        assert "after 1 applied" in body["error"]

    def test_edit_changes_the_served_answer(self, server):
        self._setup(server)
        payload = {"graph": "graph:g", "problem": "mbc", "tau": 3}
        _, before = post(server, "/solve", payload)
        assert SolveResult.from_json(before["result"]).clique.size == 6
        status, edit = post(server, "/graphs/g/edits", {
            "edits": ["remove 0 1"]})
        assert status == 200
        _, after = post(server, "/solve", payload)
        assert after["fingerprint"] == edit["fingerprint"]
        assert after["fingerprint"] != before["fingerprint"]
        # Removing a positive in-faction edge kills the only 3|3.
        assert SolveResult.from_json(after["result"]).clique.size == 0

    def test_edit_bumps_the_edits_counter(self, server):
        self._setup(server)
        before = counters(server)
        post(server, "/graphs/g/edits", {"edits": ["flip 0 1"]})
        after = counters(server)
        assert counter_delta(before, after, "serve.edits_applied") == 1


class TestEditSolveInterleaving:
    """The cache key must name the graph version actually solved.

    Regression: the key used to be computed *before* the per-graph
    lock was acquired, so an edit could slip in between
    fingerprinting and solving — the post-edit answer was then cached
    under the pre-edit fingerprint, poisoning every later request for
    the original content.  The test forces that exact interleaving by
    pinning the graph lock while a solve is queued on it and editing
    the live graph in the window.
    """

    def test_edit_between_request_and_solve_cannot_poison(
            self, server):
        status, _ = post(server, "/graphs", {
            "name": "g", "graph": {"edges": FACTIONS}, "tau": 3})
        assert status == 200
        app = server.app
        registered = app.service.graphs["g"]

        async def hold_lock() -> None:
            async with app._graph_lock("g"):
                await asyncio.sleep(1.0)

        holder = server.submit_nowait(hold_lock())
        results: "list[tuple[int, dict]]" = []
        thread = threading.Thread(target=lambda: results.append(
            post(server, "/solve", {
                "graph": "graph:g", "problem": "mbc", "tau": 3})))
        thread.start()
        time.sleep(0.3)  # let the solve queue up on the held lock
        # Mutate the live graph in the window (the loop is parked on
        # the lock, so touching the resident solver here is safe).
        app.service.apply_script(registered, "remove 0 1")
        holder.result(timeout=30)
        thread.join(timeout=60)
        assert len(results) == 1
        status, body = results[0]
        assert status == 200
        # The solve ran against the edited graph and must say so:
        # removing the positive in-faction edge kills the only 3|3.
        assert body["fingerprint"] == registered.graph.fingerprint()
        assert SolveResult.from_json(body["result"]).clique.size == 0
        # The original content must still answer correctly — a
        # poisoned cache would replay the post-edit answer here.
        status, original = post(server, "/solve", {
            "graph": {"edges": FACTIONS}, "problem": "mbc", "tau": 3})
        assert status == 200
        assert SolveResult.from_json(
            original["result"]).clique.size == 6


# -- direct coverage of the blocking core ------------------------------


class TestNoEngineField:
    """A pooled service (``workers=2``) over a stand-in dataset.

    Naming an engine in a solve or registration body is a client
    mistake (400); the same body without it answers the optimum pinned
    in ``perfbench/expected.json``.
    """

    @pytest.fixture(scope="class")
    def pooled(self):
        with BackgroundServer(SolverService(workers=2)) as running:
            yield running

    @pytest.fixture(scope="class")
    def expected(self) -> dict:
        path = REPO_ROOT / "perfbench" / "expected.json"
        return json.loads(path.read_text())

    @pytest.mark.parametrize("problem", ["mbc", "pf"])
    def test_solve_naming_engine_is_400(self, pooled, expected,
                                        problem):
        body = {"graph": "dataset:bitcoin", "problem": problem,
                "tau": expected["tau"]}
        for engine in ("set", "bitset"):
            status, answer = post(pooled, "/solve",
                                  {**body, "engine": engine})
            assert status == 400, answer
            assert "engine" in answer["error"]
        status, answer = post(pooled, "/solve", body)
        assert status == 200, answer
        assert answer["status"] == "optimal"
        assert "engine" not in answer
        pinned = expected[problem]["bitcoin"]
        if problem == "mbc":
            clique = SolveResult.from_json(answer["result"]).clique
            assert clique.size == pinned
        else:
            assert answer["beta"] == pinned

    def test_register_naming_engine_is_400(self, pooled, expected):
        body = {"name": "btc", "graph": "dataset:bitcoin",
                "tau": expected["tau"]}
        status, answer = post(pooled, "/graphs",
                              {**body, "engine": "set"})
        assert status == 400, answer
        assert "engine" in answer["error"]
        status, row = post(pooled, "/graphs", body)
        assert status == 200, row
        assert "engine" not in row
        status, answer = post(pooled, "/solve", {
            "graph": "graph:btc", "problem": "mbc",
            "tau": expected["tau"]})
        assert status == 200, answer
        clique = SolveResult.from_json(answer["result"]).clique
        assert clique.size == expected["mbc"]["bitcoin"]


class TestServiceCore:
    def test_cache_rejects_non_optimal_payloads(self):
        cache = ResultCache(4)
        with pytest.raises(ValueError, match="OPTIMAL"):
            cache.put(("f", "mbc", 3),
                      {"status": "budget_exhausted"})

    def test_cache_is_lru(self):
        cache = ResultCache(2)
        for name in ("a", "b", "c"):
            cache.put((name,), {"status": "optimal", "name": name})
        assert ("a",) not in cache
        assert ("b",) in cache and ("c",) in cache
        cache.get(("b",))
        cache.put(("d",), {"status": "optimal"})
        assert ("c",) not in cache and ("b",) in cache

    def test_cache_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(0)

    def test_parse_dataset_ref(self):
        assert parse_dataset_ref("dataset:bitcoin") == ("bitcoin", 1.0)
        assert parse_dataset_ref("dataset:Bitcoin@0.5") == \
            ("bitcoin", 0.5)
        with pytest.raises(ProtocolError) as excinfo:
            parse_dataset_ref("dataset:bitcoin@-1")
        assert excinfo.value.status == 400

    def test_dataset_memo_is_bounded_lru(self):
        service = SolverService()
        hot = service.load_dataset("bitcoin", 0.05)
        fingerprint = hot.fingerprint()
        for i in range(40):
            service.load_dataset("bitcoin", 0.001 * (i + 1))
            # The hot ref is asked for between the cold ones.
            graph, registered = service.resolve_graph(
                "dataset:bitcoin@0.05")
            assert graph is hot and registered is None
        assert len(service._datasets) <= DATASET_MEMO_CAPACITY == 32
        assert service.dataset_cached("dataset:bitcoin@0.05")
        assert not service.dataset_cached("dataset:bitcoin@0.001")
        assert service.dataset_cached("dataset:bitcoin@0.04")
        assert hot.fingerprint() == fingerprint

    def test_service_rejects_unknown_default_engine(self):
        # The service has no engine knob at all.
        for engine in ("cuda", "bitset"):
            with pytest.raises(TypeError, match="default_engine"):
                SolverService(default_engine=engine)  # type: ignore

    def test_pool_size_validation(self):
        from repro.serve import ServeApp
        with pytest.raises(ValueError):
            ServeApp(SolverService(), pool_size=0)
        with pytest.raises(ValueError):
            ServeApp(SolverService(), pool_size=8, max_pending=2)
