"""Unit tests for the SignedGraph substrate."""

import pytest
from hypothesis import given, settings

from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph

from .conftest import signed_graphs


class TestConstruction:
    def test_empty_graph(self):
        graph = SignedGraph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_vertex_count(self):
        assert SignedGraph(7).num_vertices == 7

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            SignedGraph(-1)

    def test_from_edges(self):
        graph = SignedGraph.from_edges(
            3, positive_edges=[(0, 1)], negative_edges=[(1, 2)])
        assert graph.sign(0, 1) == POSITIVE
        assert graph.sign(1, 2) == NEGATIVE
        assert graph.sign(0, 2) is None

    def test_from_signed_edges(self):
        graph = SignedGraph.from_signed_edges(
            3, [(0, 1, 1), (1, 2, -1)])
        assert graph.num_positive_edges == 1
        assert graph.num_negative_edges == 1

    def test_labels_must_match_length(self):
        with pytest.raises(ValueError):
            SignedGraph(2, labels=["only-one"])

    def test_labels_round_trip(self):
        graph = SignedGraph(2, labels=["a", "b"])
        assert graph.label(0) == "a"
        assert graph.labels() == ["a", "b"]

    def test_default_labels_are_ids(self):
        graph = SignedGraph(2)
        assert graph.label(1) == "1"
        assert graph.labels() == ["0", "1"]

    def test_copy_is_deep(self):
        graph = SignedGraph.from_edges(3, positive_edges=[(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2, NEGATIVE)
        assert not graph.has_edge(1, 2)
        assert clone.has_edge(1, 2)

    def test_copy_preserves_labels(self):
        graph = SignedGraph(2, labels=["x", "y"])
        assert graph.copy().labels() == ["x", "y"]


class TestEdges:
    def test_add_positive_edge(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, POSITIVE)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.sign(1, 0) == POSITIVE

    def test_add_negative_edge(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 2, NEGATIVE)
        assert graph.sign(0, 2) == NEGATIVE

    def test_self_loop_rejected(self):
        graph = SignedGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(1, 1, POSITIVE)

    def test_out_of_range_rejected(self):
        graph = SignedGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 3, POSITIVE)

    def test_invalid_sign_rejected(self):
        graph = SignedGraph(3)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, 0)

    def test_conflicting_sign_rejected(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, POSITIVE)
        with pytest.raises(ValueError):
            graph.add_edge(0, 1, NEGATIVE)

    def test_duplicate_same_sign_is_idempotent(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, POSITIVE)
        graph.add_edge(0, 1, POSITIVE)
        assert graph.num_edges == 1

    def test_remove_edge(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, POSITIVE)
        graph.remove_edge(0, 1)
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 0

    def test_remove_negative_edge(self):
        graph = SignedGraph(3)
        graph.add_edge(0, 1, NEGATIVE)
        graph.remove_edge(1, 0)
        assert graph.num_edges == 0

    def test_remove_missing_edge_raises(self):
        graph = SignedGraph(3)
        with pytest.raises(KeyError):
            graph.remove_edge(0, 1)

    @pytest.mark.parametrize("mutate", [
        lambda graph: graph.remove_edge(-1, 1),
        lambda graph: graph.flip_sign(-1, 2),
        lambda graph: graph.isolate_vertex(-1),
    ], ids=["remove_edge", "flip_sign", "isolate_vertex"])
    def test_negative_id_rejected_before_any_change(self, mutate):
        graph = SignedGraph.from_signed_edges(
            4, [(0, 1, 1), (1, 3, 1), (2, 3, -1)])
        before = graph.fingerprint()
        with pytest.raises(ValueError, match="out of range for n=4"):
            mutate(graph)
        graph.validate()
        assert graph.fingerprint() == before

    def test_mutators_report_what_changed(self):
        graph = SignedGraph(3)
        assert graph.add_edge(0, 1, POSITIVE) is True
        assert graph.add_edge(1, 0, POSITIVE) is False
        assert graph.flip_sign(0, 1) == NEGATIVE
        assert graph.flip_sign(1, 0) == POSITIVE
        assert graph.remove_edge(0, 1) == POSITIVE
        assert graph.add_edge(1, 2, NEGATIVE) is True
        assert graph.remove_edge(2, 1) == NEGATIVE

    def test_isolate_vertex(self):
        graph = SignedGraph.from_edges(
            4, positive_edges=[(0, 1), (0, 2)],
            negative_edges=[(0, 3), (1, 2)])
        graph.isolate_vertex(0)
        assert graph.degree(0) == 0
        assert graph.num_edges == 1
        graph.validate()

    def test_edges_iterates_each_once(self):
        graph = SignedGraph.from_edges(
            4, positive_edges=[(0, 1), (2, 3)], negative_edges=[(1, 2)])
        edges = sorted(graph.edges())
        assert edges == [(0, 1, 1), (1, 2, -1), (2, 3, 1)]

    def test_add_vertex_extends_graph(self):
        graph = SignedGraph(2)
        new = graph.add_vertex()
        assert new == 2
        graph.add_edge(0, 2, POSITIVE)
        assert graph.has_edge(0, 2)

    def test_add_vertex_with_label(self):
        graph = SignedGraph(1)
        graph.add_vertex(label="hub")
        assert graph.label(1) == "hub"
        assert graph.label(0) == "0"


class TestDegreesAndNeighbors:
    @pytest.fixture
    def graph(self) -> SignedGraph:
        return SignedGraph.from_edges(
            5,
            positive_edges=[(0, 1), (0, 2)],
            negative_edges=[(0, 3), (0, 4), (1, 2)])

    def test_pos_degree(self, graph):
        assert graph.pos_degree(0) == 2

    def test_neg_degree(self, graph):
        assert graph.neg_degree(0) == 2

    def test_total_degree(self, graph):
        assert graph.degree(0) == 4

    def test_pos_neighbors(self, graph):
        assert graph.pos_neighbors(0) == {1, 2}

    def test_neg_neighbors(self, graph):
        assert graph.neg_neighbors(0) == {3, 4}

    def test_neighbors_union(self, graph):
        assert graph.neighbors(0) == {1, 2, 3, 4}

    def test_counts(self, graph):
        assert graph.num_positive_edges == 2
        assert graph.num_negative_edges == 3
        assert graph.num_edges == 5

    def test_negative_ratio(self, graph):
        assert graph.negative_ratio == pytest.approx(0.6)

    def test_negative_ratio_empty_graph(self):
        assert SignedGraph(3).negative_ratio == 0.0

    def test_degree_statistics(self, graph):
        stats = graph.degree_statistics()
        assert stats["max_degree"] == 4
        assert stats["avg_degree"] == pytest.approx(2.0)
        assert stats["max_pos_degree"] == 2
        assert stats["max_neg_degree"] == 2

    def test_degree_statistics_empty(self):
        stats = SignedGraph(0).degree_statistics()
        assert stats["max_degree"] == 0


class TestSubgraph:
    def test_subgraph_basic(self):
        graph = SignedGraph.from_edges(
            5, positive_edges=[(0, 1), (1, 2)],
            negative_edges=[(2, 3), (3, 4)])
        sub, mapping = graph.subgraph([1, 2, 3])
        assert mapping == [1, 2, 3]
        assert sub.num_vertices == 3
        assert sub.sign(0, 1) == POSITIVE  # (1, 2)
        assert sub.sign(1, 2) == NEGATIVE  # (2, 3)
        assert sub.num_edges == 2

    def test_subgraph_excludes_outside_edges(self):
        graph = SignedGraph.from_edges(
            4, positive_edges=[(0, 1)], negative_edges=[(2, 3)])
        sub, _mapping = graph.subgraph([0, 2])
        assert sub.num_edges == 0

    def test_subgraph_deduplicates_vertices(self):
        graph = SignedGraph(4)
        sub, mapping = graph.subgraph([2, 2, 0])
        assert mapping == [0, 2]
        assert sub.num_vertices == 2

    def test_subgraph_keeps_labels(self):
        graph = SignedGraph(3, labels=["a", "b", "c"])
        sub, _ = graph.subgraph([0, 2])
        assert sub.labels() == ["a", "c"]

    def test_subgraph_validates(self):
        graph = SignedGraph.from_edges(
            6, positive_edges=[(0, 1), (2, 4)],
            negative_edges=[(1, 5), (3, 4)])
        sub, _ = graph.subgraph([1, 3, 4, 5])
        sub.validate()


class TestValidate:
    def test_valid_graph_passes(self, toy_figure2):
        toy_figure2.validate()

    def test_detects_double_sign(self):
        graph = SignedGraph(2)
        graph.add_edge(0, 1, POSITIVE)
        graph._neg[0].add(1)
        graph._neg[1].add(0)
        with pytest.raises(AssertionError):
            graph.validate()

    def test_detects_asymmetry(self):
        graph = SignedGraph(2)
        graph._pos[0].add(1)
        with pytest.raises(AssertionError):
            graph.validate()


class TestPropertyBased:
    @given(signed_graphs(max_vertices=12))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_validate(self, graph):
        graph.validate()

    @given(signed_graphs(max_vertices=12))
    @settings(max_examples=60, deadline=None)
    def test_edge_count_matches_iteration(self, graph):
        assert graph.num_edges == sum(1 for _ in graph.edges())

    @given(signed_graphs(max_vertices=12))
    @settings(max_examples=60, deadline=None)
    def test_degree_sums_to_twice_edges(self, graph):
        total = sum(graph.degree(v) for v in graph.vertices())
        assert total == 2 * graph.num_edges

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_subgraph_of_all_vertices_is_identity(self, graph):
        sub, mapping = graph.subgraph(graph.vertices())
        assert mapping == list(graph.vertices())
        assert sorted(sub.edges()) == sorted(graph.edges())

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_copy_equals_original(self, graph):
        clone = graph.copy()
        assert sorted(clone.edges()) == sorted(graph.edges())


class TestFingerprint:
    def test_stable_across_calls_and_copies(self):
        graph = SignedGraph.from_signed_edges(
            4, [(0, 1, 1), (1, 2, -1), (2, 3, 1)])
        first = graph.fingerprint()
        assert first == graph.fingerprint()
        assert graph.copy().fingerprint() == first

    def test_independent_of_insertion_order(self):
        forward = SignedGraph(3)
        forward.add_edge(0, 1, POSITIVE)
        forward.add_edge(1, 2, NEGATIVE)
        backward = SignedGraph(3)
        backward.add_edge(1, 2, NEGATIVE)
        backward.add_edge(0, 1, POSITIVE)
        assert forward.fingerprint() == backward.fingerprint()

    def test_sensitive_to_content(self):
        base = SignedGraph.from_signed_edges(3, [(0, 1, 1)])
        flipped = SignedGraph.from_signed_edges(3, [(0, 1, -1)])
        extra = SignedGraph.from_signed_edges(3, [(0, 1, 1), (1, 2, 1)])
        bigger = SignedGraph.from_signed_edges(4, [(0, 1, 1)])
        # The fingerprint hashes one key sum per row (a vertex's
        # neighbours above it), so the cases below keep what a per-row
        # sum could confuse: every vertex's degree, every row's size,
        # or a row's multiset of signs.  Upper rows of ``rows``:
        # 0: {1+, 4-}, 1: {5+}, 2: {3+}, 3: {5-}.
        rows = [(0, 1, 1), (0, 4, -1), (2, 3, 1), (1, 5, 1), (3, 5, -1)]
        # (0, 1) and (2, 3) become (0, 3) and (1, 2): degrees kept.
        double_swap = [(0, 3, 1), (0, 4, -1), (1, 2, 1), (1, 5, 1),
                       (3, 5, -1)]
        # Row 0 keeps its neighbours and its signs, exchanged.
        sign_swap = [(0, 1, -1), (0, 4, 1), (2, 3, 1), (1, 5, 1),
                     (3, 5, -1)]
        # Every row keeps its size: row 0 trades 1 for 2, and rows
        # 1 and 2 trade their contents.
        same_sizes = [(0, 2, 1), (0, 4, -1), (2, 3, 1), (1, 5, 1),
                      (3, 5, -1)]
        rows_traded = [(0, 1, 1), (0, 4, -1), (1, 3, 1), (2, 5, 1),
                       (3, 5, -1)]
        graphs = [base, flipped, extra, bigger] + [
            SignedGraph.from_signed_edges(6, edges)
            for edges in (rows, double_swap, sign_swap, same_sizes,
                          rows_traded)]
        degrees = [graphs[4].degree(v) for v in range(6)]
        assert [graphs[5].degree(v) for v in range(6)] == degrees
        prints = {g.fingerprint() for g in graphs}
        assert len(prints) == len(graphs)

    def test_mutation_invalidates_cache(self):
        graph = SignedGraph.from_signed_edges(3, [(0, 1, 1)])
        before = graph.fingerprint()
        graph.add_edge(1, 2, NEGATIVE)
        changed = graph.fingerprint()
        assert changed != before
        graph.remove_edge(1, 2)
        assert graph.fingerprint() == before

    def test_format_is_hex_sha256(self):
        print_ = SignedGraph(0).fingerprint()
        assert len(print_) == 64
        assert set(print_) <= set("0123456789abcdef")

    @given(signed_graphs(max_vertices=10))
    @settings(max_examples=40, deadline=None)
    def test_equal_content_equal_fingerprint(self, graph):
        rebuilt = SignedGraph.from_signed_edges(
            graph.num_vertices, sorted(graph.edges(), reverse=True))
        assert rebuilt.fingerprint() == graph.fingerprint()


class TestIncrementalFingerprint:
    """The O(1)-per-edit accumulator must always equal a from-scratch
    recomputation — this is the cache key the dynamic solver trusts."""

    @staticmethod
    def _recomputed(graph: SignedGraph) -> str:
        rebuilt = SignedGraph.from_signed_edges(
            graph.num_vertices, sorted(graph.edges()))
        return rebuilt.fingerprint()

    def test_every_mutation_kind_matches_recompute(self):
        graph = SignedGraph.from_signed_edges(
            6, [(0, 1, 1), (0, 2, -1), (1, 2, 1), (3, 4, -1)])
        graph.fingerprint()  # prime the incremental accumulator
        mutations = [
            lambda: graph.add_edge(2, 3, POSITIVE),
            lambda: graph.add_edge(4, 5, NEGATIVE),
            lambda: graph.flip_sign(0, 1),
            lambda: graph.remove_edge(0, 2),
            lambda: graph.flip_sign(0, 1),
            lambda: graph.isolate_vertex(2),
            lambda: graph.remove_edge(3, 4),
        ]
        for mutate in mutations:
            mutate()
            assert graph.fingerprint() == self._recomputed(graph)

    def test_random_edit_stream_matches_recompute(self):
        import random as _random
        rng = _random.Random(42)
        graph = SignedGraph(9)
        graph.fingerprint()
        for _ in range(120):
            u, v = rng.sample(range(9), 2)
            sign = graph.sign(u, v)
            if sign is None:
                graph.add_edge(
                    u, v, NEGATIVE if rng.random() < 0.5 else POSITIVE)
            elif rng.random() < 0.5:
                graph.remove_edge(u, v)
            else:
                graph.flip_sign(u, v)
            assert graph.fingerprint() == self._recomputed(graph)

    def test_vertex_edits_match_recompute(self):
        graph = SignedGraph.from_signed_edges(
            5, [(0, 2, 1), (1, 2, -1), (2, 3, 1), (2, 4, -1), (0, 4, 1)])
        graph.fingerprint()
        graph.isolate_vertex(2)
        assert graph.fingerprint() == self._recomputed(graph)
        graph.add_vertex()
        graph.add_edge(5, 1, NEGATIVE)
        graph.add_edge(2, 5, POSITIVE)
        assert graph.fingerprint() == self._recomputed(graph)
        graph.isolate_vertex(5)
        assert graph.fingerprint() == self._recomputed(graph)

    def test_concurrent_key_growth_matches_serial(self, monkeypatch):
        """Threads prime graphs of increasing ``n`` at once on an
        empty key table, so it grows under contention; every digest
        and every key must equal the single-threaded ones."""
        import random as _random
        import sys
        import threading

        from repro.signed import graph as graph_module

        def chain(n, seed):
            rng = _random.Random(seed)
            return SignedGraph.from_signed_edges(
                n, [(v, v + 1, rng.choice((POSITIVE, NEGATIVE)))
                    for v in range(n - 1)]
                + [(0, n - 1, NEGATIVE)])

        threads_n, per_thread = 8, 6
        graphs = [[chain(40 + 60 * (i + threads_n * t), t * 100 + i)
                   for i in range(per_thread)]
                  for t in range(threads_n)]
        expected = [[g.copy().fingerprint() for g in row]
                    for row in graphs]
        serial_keys = graph_module._neighbor_keys(
            max(g.num_vertices for row in graphs for g in row))
        serial_keys = tuple(list(keys) for keys in serial_keys)
        monkeypatch.setattr(graph_module, "_KEYS", ([], []))
        barrier = threading.Barrier(threads_n)
        results = [None] * threads_n

        def prime(t):
            barrier.wait(timeout=30)
            results[t] = [g.fingerprint() for g in graphs[t]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=prime, args=(t,))
                       for t in range(threads_n)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == expected
        grown = graph_module._KEYS
        assert len(grown[0]) == len(grown[1])
        assert tuple(keys[:len(grown[1])] for keys in serial_keys) \
            == grown

    def test_reads_on_another_thread_during_edits(self):
        """A thread that keeps calling ``fingerprint()`` while another
        edits and reads it after each edit, as a dynamic solver does
        (the daemon's ``GET /graphs`` beside an edit script), never
        fails and leaves the graph's rows and cached digest equal to
        a from-scratch recomputation."""
        import random as _random
        import sys
        import threading

        rng = _random.Random(7)
        n = 60
        graph = SignedGraph.from_signed_edges(
            n, [(v, (v + 1) % n, POSITIVE) for v in range(n)])
        graph.fingerprint()
        done = threading.Event()
        errors = []
        seen = set()

        def read():
            try:
                while not done.is_set():
                    seen.add(graph.fingerprint())
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=read)
        reader.start()
        try:
            for _ in range(3000):
                u, v = rng.sample(range(n), 2)
                sign = graph.sign(u, v)
                if sign is None:
                    graph.add_edge(u, v, rng.choice((POSITIVE, NEGATIVE)))
                elif rng.random() < 0.5:
                    graph.flip_sign(u, v)
                elif rng.random() < 0.05:
                    graph.isolate_vertex(u)
                else:
                    graph.remove_edge(u, v)
                graph.fingerprint()
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert errors == []
        assert len(seen) > 1
        assert graph.fingerprint() == self._recomputed(graph)

    def test_keys_past_the_shared_cap_are_not_kept(self, monkeypatch):
        """Vertices at or above ``_SHARED_KEY_VERTICES`` get their keys
        hashed afresh: the shared table stops at the cap, and priming
        and edits past it give the digests of an uncapped table."""
        import random as _random

        from repro.signed import graph as graph_module

        rng = _random.Random(3)
        n = 50
        edges = {(u, v): rng.choice((POSITIVE, NEGATIVE))
                 for u, v in (sorted(rng.sample(range(n), 2))
                              for _ in range(150))}
        graph = SignedGraph.from_signed_edges(
            n, [(u, v, sign) for (u, v), sign in edges.items()])
        edits = [tuple(rng.sample(range(n), 2)) for _ in range(40)]
        uncapped = graph.copy()
        expected = [uncapped.fingerprint()]
        for u, v in edits:
            if uncapped.has_edge(u, v):
                uncapped.flip_sign(u, v)
            else:
                uncapped.add_edge(u, v, NEGATIVE)
            expected.append(uncapped.fingerprint())

        monkeypatch.setattr(graph_module, "_SHARED_KEY_VERTICES", 8)
        monkeypatch.setattr(graph_module, "_KEYS", ([], []))
        capped = graph.copy()
        got = [capped.fingerprint()]
        for u, v in edits:
            if capped.has_edge(u, v):
                capped.flip_sign(u, v)
            else:
                capped.add_edge(u, v, NEGATIVE)
            got.append(capped.fingerprint())
        assert got == expected
        assert [len(keys) for keys in graph_module._KEYS] == [8, 8]
        assert capped.fingerprint() == self._recomputed(capped)

    def test_remove_then_readd_restores_fingerprint(self):
        graph = SignedGraph.from_signed_edges(
            4, [(0, 1, 1), (1, 2, -1)])
        before = graph.fingerprint()
        graph.remove_edge(1, 2)
        graph.add_edge(1, 2, NEGATIVE)
        assert graph.fingerprint() == before


class TestFlipSign:
    def test_flip_toggles_and_updates_counters(self):
        graph = SignedGraph.from_signed_edges(3, [(0, 1, 1)])
        graph.flip_sign(0, 1)
        assert graph.sign(0, 1) == NEGATIVE
        assert graph.num_positive_edges == 0
        assert graph.num_negative_edges == 1
        graph.flip_sign(0, 1)
        assert graph.sign(0, 1) == POSITIVE
        assert graph.num_positive_edges == 1
        assert graph.num_negative_edges == 0

    def test_flip_missing_edge_raises(self):
        graph = SignedGraph(3)
        with pytest.raises(KeyError):
            graph.flip_sign(0, 1)

    def test_flip_equals_remove_plus_add(self):
        flipped = SignedGraph.from_signed_edges(
            4, [(0, 1, 1), (2, 3, -1)])
        flipped.fingerprint()
        flipped.flip_sign(0, 1)
        rebuilt = SignedGraph.from_signed_edges(
            4, [(0, 1, -1), (2, 3, -1)])
        assert flipped.fingerprint() == rebuilt.fingerprint()
        assert sorted(flipped.edges()) == sorted(rebuilt.edges())
