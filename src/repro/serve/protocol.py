"""Wire protocol of the solve service: request schema + validation.

Everything a client can say to ``repro serve`` is validated here,
*before* any solver runs, and every way a request can be malformed
maps to a :class:`ProtocolError` carrying the HTTP status the daemon
should answer with.  The contract (see ``docs/SERVING.md``):

* client mistakes — unparseable JSON, unknown problem, bad tau, a
  malformed inline edge list — are **4xx**, with the same message the
  library layer raises (e.g. :func:`repro.signed.io.parse_edge_lines`
  line numbers survive verbatim into the response body);
* only genuinely unexpected failures are 500s, and the server counts
  them separately (``serve.errors``).

A solve request body is a JSON object::

    {
      "graph":     "dataset:douban"          (stand-in registry)
                 | "dataset:douban@0.3"      (scaled stand-in)
                 | "graph:mygraph"           (registered via /graphs)
                 | {"edges": ...}            (inline edge list),
      "problem":   "mbc" | "pf" | "gmbc",
      "tau":       3,            (mbc only; default 3)
      "timeout":   1.5,          (optional per-request SLO, seconds)
      "max_nodes": 100000        (optional per-request node budget)
    }

Inline ``edges`` accept the three spellings clients naturally have in
hand: one ``"u v sign"`` text blob, a list of such lines, or a list of
``[u, v, sign]`` triples.  All three are normalised to edge-list lines
and read by the CLI's own :func:`~repro.signed.io.read_edge_lines`,
whose syntax and messages are
:func:`~repro.signed.io.parse_edge_lines`'s, so the error messages
(line numbers, self-loop and duplicate-edge diagnostics) are
identical to the CLI's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..signed.graph import SignedGraph
from ..signed.io import read_edge_lines, read_edge_text

__all__ = [
    "SERVE_SCHEMA",
    "PROBLEMS",
    "ProtocolError",
    "SolveRequest",
    "parse_json_body",
    "parse_solve_request",
    "parse_register_request",
    "parse_edits_request",
    "graph_from_inline",
    "validate_graph_name",
]

#: Schema tag stamped into every response body.
SERVE_SCHEMA = "repro.serve/1"

#: The problems the service answers, in CLI-subcommand spelling.
PROBLEMS = ("mbc", "pf", "gmbc")

#: Characters allowed in a registered-graph name (path-segment safe).
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


class ProtocolError(Exception):
    """A request the protocol rejects; ``status`` is the HTTP answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class SolveRequest:
    """A validated solve request (graph still unresolved).

    ``graph`` is the raw spec — a ref string or an inline-edges
    object — because resolution (dataset generation, registry lookup)
    is the service's job and may need the event loop's locks.
    """

    graph: "str | dict"
    problem: str
    tau: int
    timeout: "float | None"
    max_nodes: "int | None"

    def budget_key(self) -> "tuple[float | None, int | None]":
        """The budget part of the request-coalescing key."""
        return (self.timeout, self.max_nodes)


def parse_json_body(body: bytes) -> dict:
    """Decode a request body into a JSON object, or 400."""
    if not body:
        raise ProtocolError(400, "request body must be a JSON object")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(400, f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            400, f"request body must be a JSON object, "
                 f"got {type(payload).__name__}")
    return payload


def _require_graph_spec(payload: dict) -> "str | dict":
    spec = payload.get("graph")
    if isinstance(spec, str):
        if spec.startswith(("dataset:", "graph:")):
            return spec
        raise ProtocolError(
            400, f"graph ref {spec!r} must start with 'dataset:' or "
                 f"'graph:'")
    if isinstance(spec, dict):
        if "edges" not in spec:
            raise ProtocolError(
                400, "inline graph object must carry an 'edges' field")
        unknown = set(spec) - {"edges"}
        if unknown:
            raise ProtocolError(
                400, f"unknown inline graph fields: {sorted(unknown)}")
        return spec
    raise ProtocolError(
        400, "missing or invalid 'graph': expected a 'dataset:NAME' / "
             "'graph:NAME' ref or an inline {'edges': ...} object")


def _parse_tau(payload: dict) -> int:
    tau = payload.get("tau", 3)
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 0:
        raise ProtocolError(
            400, f"tau must be a non-negative integer, got {tau!r}")
    return tau


def _parse_budget_fields(
    payload: dict,
) -> "tuple[float | None, int | None]":
    timeout = payload.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or \
                not isinstance(timeout, (int, float)) or timeout < 0:
            raise ProtocolError(
                400, f"timeout must be a non-negative number of "
                     f"seconds, got {timeout!r}")
        timeout = float(timeout)
    max_nodes = payload.get("max_nodes")
    if max_nodes is not None and (
            not isinstance(max_nodes, int)
            or isinstance(max_nodes, bool) or max_nodes < 0):
        raise ProtocolError(
            400, f"max_nodes must be a non-negative integer, "
                 f"got {max_nodes!r}")
    return timeout, max_nodes


def parse_solve_request(payload: dict) -> SolveRequest:
    """Validate a ``POST /solve`` body into a :class:`SolveRequest`."""
    known = {"graph", "problem", "tau", "timeout", "max_nodes"}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            400, f"unknown request fields: {sorted(unknown)}")
    problem = payload.get("problem")
    if problem not in PROBLEMS:
        raise ProtocolError(
            400, f"problem must be one of {list(PROBLEMS)}, "
                 f"got {problem!r}")
    assert isinstance(problem, str)
    timeout, max_nodes = _parse_budget_fields(payload)
    return SolveRequest(
        graph=_require_graph_spec(payload),
        problem=problem,
        tau=_parse_tau(payload),
        timeout=timeout,
        max_nodes=max_nodes)


def validate_graph_name(name: object) -> str:
    """A registered-graph name: non-empty, path-segment safe."""
    if not isinstance(name, str) or not name or \
            not set(name) <= _NAME_CHARS:
        raise ProtocolError(
            400, f"graph name must be a non-empty string of "
                 f"[A-Za-z0-9_.-], got {name!r}")
    return name


def parse_register_request(
    payload: dict,
) -> "tuple[str, str | dict, int]":
    """Validate a ``POST /graphs`` body.

    Returns ``(name, graph_spec, tau)``; the spec must be a
    dataset ref or inline edges — registering a registered graph
    under a second name is a client mistake, not a feature.
    """
    known = {"name", "graph", "tau"}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            400, f"unknown register fields: {sorted(unknown)}")
    name = validate_graph_name(payload.get("name"))
    spec = _require_graph_spec(payload)
    if isinstance(spec, str) and spec.startswith("graph:"):
        raise ProtocolError(
            400, "cannot register a graph from a 'graph:' ref; "
                 "use a dataset ref or inline edges")
    tau = _parse_tau(payload)
    if tau < 1:
        raise ProtocolError(
            400, f"registered graphs need tau >= 1 (the resident "
                 f"dynamic solver's contract), got {tau}")
    return name, spec, tau


def parse_edits_request(payload: dict) -> str:
    """Validate a ``POST /graphs/NAME/edits`` body into script text."""
    known = {"script", "edits"}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            400, f"unknown edit fields: {sorted(unknown)}")
    script = payload.get("script")
    edits = payload.get("edits")
    if (script is None) == (edits is None):
        raise ProtocolError(
            400, "exactly one of 'script' (text) or 'edits' (array "
                 "of lines) is required")
    if script is not None:
        if not isinstance(script, str):
            raise ProtocolError(
                400, f"script must be a string, got "
                     f"{type(script).__name__}")
        return script
    if not isinstance(edits, list) or any(
            not isinstance(line, str) for line in edits):
        raise ProtocolError(
            400, "edits must be an array of edit-script lines")
    return "\n".join(edits)


def _inline_lines(edges: object) -> "list[str]":
    """Normalise the three inline-edge spellings to edge-list lines.

    A text blob splits at every line boundary; an array item splits at
    each ``\\n`` it holds, so ``["0 1 1\\n1 2 -1"]`` is two lines and
    later items are numbered after both.
    """
    if isinstance(edges, str):
        return edges.splitlines()
    if not isinstance(edges, list):
        raise ProtocolError(
            400, f"edges must be a text blob, an array of lines, or "
                 f"an array of [u, v, sign] triples, "
                 f"got {type(edges).__name__}")
    lines: list[str] = []
    for index, item in enumerate(edges, start=1):
        if isinstance(item, str):
            lines += item.split("\n")
        elif isinstance(item, list) and len(item) == 3:
            lines += " ".join(str(part) for part in item).split("\n")
        else:
            raise ProtocolError(
                400, f"edges[{index - 1}] must be a 'u v sign' line "
                     f"or a [u, v, sign] triple, got {item!r}")
    return lines


def graph_from_inline(spec: dict) -> SignedGraph:
    """Build a :class:`SignedGraph` from an inline ``edges`` payload.

    Parse failures surface as 400s carrying the library's own
    message — ``parse_edge_lines`` line numbers, the self-loop
    diagnostic, ``read_edge_lines``'s conflicting-duplicate-edge error
    — never as 500s (the regression the serve suite pins).
    """
    edges = spec["edges"]
    try:
        if isinstance(edges, str):
            return read_edge_text(edges)
        return read_edge_lines(_inline_lines(edges))
    except ValueError as exc:
        raise ProtocolError(400, f"invalid edge list: {exc}") from exc
