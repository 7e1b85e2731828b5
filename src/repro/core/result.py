"""Result types returned by the search algorithms.

Both types carry a stable JSON wire form (``to_json`` /
``from_json``): the serve layer (``repro.serve``) ships results over
HTTP and caches them by value, so the codec — not ``__repr__`` — is
the compatibility contract.  :data:`RESULT_SCHEMA` versions it; a
future incompatible change bumps the tag rather than silently
re-shaping payloads under deployed clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resilience.budget import Budget, Status
from ..signed.graph import SignedGraph
from .balance import split_sides

__all__ = ["BalancedClique", "EMPTY_RESULT", "SolveResult",
           "RESULT_SCHEMA"]

#: Schema tag stamped into every :meth:`SolveResult.to_json` payload.
RESULT_SCHEMA = "repro.result/1"


def _int_list(value: object, where: str) -> list[int]:
    """Validate a JSON array of vertex ids (bools are not vertices)."""
    if not isinstance(value, list) or any(
            not isinstance(v, int) or isinstance(v, bool)
            for v in value):
        raise ValueError(
            f"{where} must be an array of integer vertex ids, "
            f"got {value!r}")
    return value


@dataclass(frozen=True)
class BalancedClique:
    """A balanced clique with its (canonical) side split.

    ``left`` and ``right`` are frozen vertex sets; ``left`` is the side
    containing the smallest vertex id whenever both sides are non-empty,
    so two equal cliques compare equal regardless of discovery order.
    """

    left: frozenset[int] = field(default_factory=frozenset)
    right: frozenset[int] = field(default_factory=frozenset)

    @classmethod
    def from_sides(
        cls, left: "set[int] | frozenset[int]",
        right: "set[int] | frozenset[int]",
    ) -> "BalancedClique":
        """Build with canonical side ordering."""
        left_f = frozenset(left)
        right_f = frozenset(right)
        if not left_f:
            left_f, right_f = right_f, left_f
        elif right_f and min(right_f) < min(left_f):
            left_f, right_f = right_f, left_f
        return cls(left_f, right_f)

    @classmethod
    def from_anchor(
        cls, u: int, members: "list[tuple[int, bool]]",
    ) -> "BalancedClique":
        """An ego witness: the anchor ``u`` (left side) plus its
        ``(vertex, is_left)`` members."""
        left = {u}
        right: set[int] = set()
        for vertex, is_left in members:
            (left if is_left else right).add(vertex)
        return cls.from_sides(left, right)

    @classmethod
    def from_vertices(
        cls, graph: SignedGraph, vertices: "set[int] | frozenset[int]"
    ) -> "BalancedClique":
        """Recover the side split of a balanced clique of ``graph``.

        Raises ``ValueError`` if the vertex set is not a balanced clique.
        """
        sides = split_sides(graph, vertices)
        if sides is None:
            raise ValueError(
                f"{sorted(vertices)} is not a balanced clique")
        return cls.from_sides(*sides)

    @property
    def vertices(self) -> frozenset[int]:
        """``C = C_L ∪ C_R``."""
        return self.left | self.right

    @property
    def size(self) -> int:
        """``|C|``."""
        return len(self.left) + len(self.right)

    @property
    def polarization(self) -> int:
        """``min(|C_L|, |C_R|)`` — the largest ``tau`` this clique
        satisfies."""
        return min(len(self.left), len(self.right))

    def satisfies(self, tau: int) -> bool:
        """Whether both sides have at least ``tau`` members."""
        return self.polarization >= tau

    @property
    def is_empty(self) -> bool:
        return not self.left and not self.right

    def to_json(self) -> dict:
        """Plain-data wire form: sorted vertex lists per side."""
        return {"left": sorted(self.left), "right": sorted(self.right)}

    @classmethod
    def from_json(cls, payload: object) -> "BalancedClique":
        """Rebuild from :meth:`to_json` output.

        Raises ``ValueError`` on malformed payloads.  Sides are
        re-canonicalised through :meth:`from_sides`, so a hand-written
        payload with swapped sides decodes to the same value the
        encoder would have produced.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"clique payload must be an object, got {payload!r}")
        unknown = set(payload) - {"left", "right"}
        if unknown:
            raise ValueError(
                f"unknown clique fields: {sorted(unknown)}")
        left = _int_list(payload.get("left", []), "clique.left")
        right = _int_list(payload.get("right", []), "clique.right")
        if set(left) & set(right):
            raise ValueError(
                f"clique sides overlap: {sorted(set(left) & set(right))}")
        return cls.from_sides(set(left), set(right))

    def describe(self, graph: SignedGraph | None = None) -> str:
        """Human-readable summary, using vertex labels when available."""

        def names(side: frozenset[int]) -> str:
            if graph is None:
                return ", ".join(str(v) for v in sorted(side))
            return ", ".join(graph.label(v) for v in sorted(side))

        return (f"|C|={self.size} <{len(self.left)}|{len(self.right)}> "
                f"L=[{names(self.left)}] R=[{names(self.right)}]")


#: Shared sentinel for "no qualifying clique".
EMPTY_RESULT = BalancedClique()


@dataclass(frozen=True)
class SolveResult:
    """An anytime solver outcome: incumbent + status + certified bound.

    A budgeted solve (``--timeout`` / ``--max-nodes``) may stop before
    proving optimality.  ``clique`` is then the best incumbent it
    *did* prove (always a real balanced clique, possibly empty),
    ``status`` says whether the answer is exact, and ``lower_bound``
    is the quantity the incumbent certifies — ``clique.size`` for the
    MBC problems, the last proven ``tau*`` for PF.  ``nodes`` is the
    budget's branch-and-bound node count at capture time.
    """

    clique: BalancedClique
    status: Status = Status.OPTIMAL
    lower_bound: int = 0
    nodes: int = 0

    @property
    def optimal(self) -> bool:
        """Whether the solve ran to completion (answer is exact)."""
        return self.status is Status.OPTIMAL

    @classmethod
    def capture(
        cls,
        clique: BalancedClique,
        budget: "Budget | None",
        lower_bound: "int | None" = None,
    ) -> "SolveResult":
        """Wrap a solver's return against the budget it ran under.

        With no budget the solve was unbounded, hence optimal.
        ``lower_bound`` defaults to ``clique.size`` (the MBC
        certificate); PF callers pass their proven ``tau*``.
        """
        status = Status.OPTIMAL if budget is None else budget.status
        return cls(
            clique=clique,
            status=status,
            lower_bound=(clique.size if lower_bound is None
                         else lower_bound),
            nodes=0 if budget is None else budget.nodes)

    def to_json(self) -> dict:
        """Stable wire form (schema :data:`RESULT_SCHEMA`).

        Everything a client needs to act on an anytime answer: the
        witness clique, whether it is exact, and the certified lower
        bound the witness backs.  ``from_json`` round-trips this
        exactly.
        """
        return {
            "schema": RESULT_SCHEMA,
            "status": self.status.value,
            "lower_bound": self.lower_bound,
            "nodes": self.nodes,
            "clique": self.clique.to_json(),
        }

    @classmethod
    def from_json(cls, payload: object) -> "SolveResult":
        """Rebuild from :meth:`to_json` output.

        Raises ``ValueError`` on malformed payloads — wrong schema
        tag, unknown status, missing or mistyped fields — so a serve
        client can tell a corrupt response from a valid truncated one.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"result payload must be an object, got {payload!r}")
        schema = payload.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported result schema {schema!r} "
                f"(expected {RESULT_SCHEMA!r})")
        unknown = set(payload) - {
            "schema", "status", "lower_bound", "nodes", "clique"}
        if unknown:
            raise ValueError(
                f"unknown result fields: {sorted(unknown)}")
        try:
            status = Status(payload.get("status"))
        except ValueError:
            raise ValueError(
                f"unknown result status {payload.get('status')!r}; "
                f"expected one of "
                f"{sorted(s.value for s in Status)}") from None
        lower_bound = payload.get("lower_bound")
        nodes = payload.get("nodes", 0)
        for name, value in (("lower_bound", lower_bound),
                            ("nodes", nodes)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"result.{name} must be a non-negative integer, "
                    f"got {value!r}")
        assert isinstance(lower_bound, int)
        assert isinstance(nodes, int)
        clique = BalancedClique.from_json(payload.get("clique", {}))
        return cls(clique=clique, status=status,
                   lower_bound=lower_bound, nodes=nodes)
