"""Tests for the observability layer (``repro.obs``).

Four groups:

* unit tests for the primitives — spans, counters, histograms, the
  ambient-tracer runtime, the JSONL sink and its validator;
* guard tests for the *disabled* path: an untraced solve must allocate
  zero ``Span`` objects (asserted by monkeypatching the span class);
* integration: traced solves across engines and worker counts produce
  schema-valid traces with the expected span taxonomy, and tracing
  never perturbs the result;
* the acceptance metric: on a bundled dataset the per-ego spans must
  account for >= 90% of the sweep span's wall time
  (``span_time_coverage``).
"""

import json

import pytest

import repro.obs.tracer as tracer_module
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.datasets.registry import load
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    SCHEMA_VERSION,
    NullTracer,
    TraceBuffer,
    Tracer,
    current_tracer,
    dump_jsonl,
    get_tracer,
    install_tracer,
    render_tree,
    span_time_coverage,
    trace_events,
    validate_trace_file,
    validate_trace_lines,
    write_jsonl,
)
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_HISTOGRAM,
    Counter,
    Histogram,
)
from repro.parallel import engine as engine_module


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture(autouse=True)
def _clean_ambient():
    """Never leak an ambient tracer between tests."""
    previous = install_tracer(None)
    yield
    install_tracer(previous)


class TestCounter:
    def test_increments(self):
        counter = Counter("nodes")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter("nodes").inc(-1)

    def test_absorb_folds_snapshot(self):
        counter = Counter("nodes")
        counter.inc(2)
        counter.absorb(Counter("nodes").snapshot())
        counter.absorb(7)
        assert counter.value == 9

    def test_null_counter_is_inert(self):
        NULL_COUNTER.inc(10)
        assert NULL_COUNTER.value == 0


class TestHistogram:
    def test_buckets_are_upper_inclusive(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            hist.observe(value)
        assert hist.buckets == [2, 2, 1]
        assert hist.count == 5
        assert hist.min == 0.5
        assert hist.max == 11.0
        assert hist.mean == pytest.approx(27.5 / 5)

    def test_empty_mean_is_none(self):
        assert Histogram("h").mean is None

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", bounds=(2.0, 1.0))

    def test_absorb_merges_snapshots(self):
        a = Histogram("h", bounds=(1.0,))
        b = Histogram("h", bounds=(1.0,))
        a.observe(0.5)
        b.observe(3.0)
        a.absorb(b.snapshot())
        assert a.count == 2
        assert a.buckets == [1, 1]
        assert a.min == 0.5
        assert a.max == 3.0

    def test_absorb_rejects_different_bounds(self):
        a = Histogram("h", bounds=(1.0,))
        b = Histogram("h", bounds=(2.0,))
        with pytest.raises(ValueError, match="bucket bounds"):
            a.absorb(b.snapshot())

    def test_null_histogram_is_inert(self):
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_HISTOGRAM.count == 0


class TestTracer:
    def test_nested_spans_record_ids_and_parents(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", n=3) as outer:
            with tracer.span("inner") as inner:
                inner.count("nodes")
                inner.count("nodes", 2)
            outer.set(found=True)
        records = {r["name"]: r for r in tracer.records}
        assert records["outer"]["id"] == 0
        assert records["outer"]["parent"] is None
        assert records["outer"]["attrs"] == {"n": 3, "found": True}
        assert records["inner"]["parent"] == 0
        assert records["inner"]["attrs"] == {"nodes": 3}
        # Parent ids always precede child ids.
        assert records["inner"]["id"] > records["outer"]["id"]

    def test_elapsed_uses_injected_clock(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("solve"):
            pass
        (record,) = tracer.records
        # Epoch read, open read, close read: start 1.0, elapsed 1.0.
        assert record["start"] == pytest.approx(1.0)
        assert record["elapsed"] == pytest.approx(1.0)

    def test_span_survives_exceptions(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("solve"):
                raise RuntimeError("boom")
        assert [r["name"] for r in tracer.records] == ["solve"]

    def test_mismatched_close_asserts(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(AssertionError, match="must nest"):
            outer.__exit__(None, None, None)

    def test_metrics_registry_is_per_name(self):
        tracer = Tracer(clock=FakeClock())
        tracer.counter("nodes").inc(2)
        tracer.counter("nodes").inc(3)
        tracer.histogram("sizes").observe(4.0)
        assert tracer.counters_snapshot() == {"nodes": 5}
        assert tracer.histograms_snapshot()["sizes"]["count"] == 1

    def test_export_absorb_roundtrip_renumbers_and_grafts(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("chunk"):
            with worker.span("ego", v=7):
                pass
        worker.counter("nodes").inc(5)
        worker.histogram("mdc.nodes").observe(5.0)
        buffer = worker.export_buffer()

        parent = Tracer(clock=FakeClock())
        with parent.span("fanout") as fanout:
            parent.absorb(buffer, chunk=2)
            graft_parent = fanout.id
        records = {r["name"]: r for r in parent.records}
        assert records["chunk"]["parent"] == graft_parent
        assert records["chunk"]["attrs"] == {"chunk": 2}
        assert records["ego"]["parent"] == records["chunk"]["id"]
        assert records["ego"]["attrs"] == {"v": 7}
        ids = [r["id"] for r in parent.records]
        assert len(ids) == len(set(ids))
        assert parent.counters_snapshot() == {"nodes": 5}
        assert parent.histograms_snapshot()["mdc.nodes"]["count"] == 1

    def test_absorb_empty_and_none_are_noops(self):
        tracer = Tracer(clock=FakeClock())
        tracer.absorb(None)
        tracer.absorb(TraceBuffer())
        assert tracer.records == []

    def test_buffer_is_plain_data(self):
        import pickle

        worker = Tracer(clock=FakeClock())
        with worker.span("chunk"):
            pass
        restored = pickle.loads(pickle.dumps(worker.export_buffer()))
        assert restored.spans[0]["name"] == "chunk"


class TestNullTracer:
    def test_span_returns_shared_singleton(self):
        assert NULL_TRACER.span("anything", v=1) is NULL_SPAN
        assert not NULL_TRACER.enabled

    def test_null_span_operations_are_noops(self):
        with NULL_TRACER.span("s") as span:
            assert span.set(x=1) is span
            span.count("nodes")
        assert NULL_TRACER.records == []

    def test_metrics_are_shared_nulls(self):
        assert NULL_TRACER.counter("c") is NULL_COUNTER
        assert NULL_TRACER.histogram("h") is NULL_HISTOGRAM
        assert NULL_TRACER.counters_snapshot() == {}
        assert NULL_TRACER.histograms_snapshot() == {}

    def test_absorb_discards(self):
        buffer = TraceBuffer(spans=[{
            "id": 0, "parent": None, "name": "x", "start": 0.0,
            "elapsed": 0.0, "attrs": {}}])
        NULL_TRACER.absorb(buffer)
        assert NULL_TRACER.records == []
        assert NULL_TRACER.export_buffer().is_empty


class TestRuntime:
    def test_get_tracer_disabled_is_the_shared_null(self):
        assert get_tracer(False) is NULL_TRACER
        assert get_tracer(True) is not get_tracer(True)
        assert isinstance(get_tracer(True), Tracer)

    def test_install_returns_previous_and_restores(self):
        assert current_tracer() is NULL_TRACER
        first = get_tracer(True)
        assert install_tracer(first) is None
        assert current_tracer() is first
        second = get_tracer(True)
        assert install_tracer(second) is first
        assert current_tracer() is second
        install_tracer(None)
        assert current_tracer() is NULL_TRACER


class TestSink:
    def _traced(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("solve", n=4):
            with tracer.span("ego", v=0):
                pass
        tracer.counter("nodes").inc(3)
        tracer.histogram("mdc.nodes").observe(3.0)
        return tracer

    def test_trace_events_layout(self):
        events = trace_events(self._traced())
        assert events[0] == {
            "type": "meta", "schema": SCHEMA_VERSION, "span_count": 2,
            "counter_count": 1, "histogram_count": 1}
        kinds = [e["type"] for e in events[1:]]
        assert kinds == ["span", "span", "counter", "histogram"]
        span_ids = [e["id"] for e in events if e["type"] == "span"]
        assert span_ids == sorted(span_ids)

    def test_write_and_validate_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        lines = write_jsonl(self._traced(), path)
        assert lines == 5
        assert validate_trace_file(path) == 2

    def test_dump_jsonl_counts_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            assert dump_jsonl(self._traced(), handle) == 5
        assert len(path.read_text().splitlines()) == 5

    def test_validator_rejects_garbage(self):
        assert validate_trace_lines([]) == \
            ["empty trace: missing meta header"]
        assert any("not valid JSON" in e
                   for e in validate_trace_lines(["{oops"]))
        assert any("meta header" in e for e in validate_trace_lines(
            ['{"type":"span","id":0}']))

    def test_validator_rejects_wrong_schema(self):
        bad = json.dumps({"type": "meta", "schema": "repro.obs/999",
                          "span_count": 0, "counter_count": 0,
                          "histogram_count": 0})
        assert any("unsupported schema" in e
                   for e in validate_trace_lines([bad]))

    def test_validator_rejects_orphan_parent_and_dup_ids(self):
        meta = json.dumps({"type": "meta", "schema": SCHEMA_VERSION,
                           "span_count": 2, "counter_count": 0,
                           "histogram_count": 0})
        span = {"type": "span", "id": 0, "parent": 5, "name": "x",
                "start": 0.0, "elapsed": 0.0, "attrs": {}}
        errors = validate_trace_lines(
            [meta, json.dumps(span), json.dumps({**span, "parent": None})])
        assert any("parent 5 not seen earlier" in e for e in errors)
        assert any("duplicated" in e for e in errors)

    def test_validator_rejects_non_scalar_attrs(self):
        meta = json.dumps({"type": "meta", "schema": SCHEMA_VERSION,
                           "span_count": 1, "counter_count": 0,
                           "histogram_count": 0})
        span = json.dumps({"type": "span", "id": 0, "parent": None,
                           "name": "x", "start": 0.0, "elapsed": 0.0,
                           "attrs": {"v": [1, 2]}})
        assert any("JSON scalar" in e
                   for e in validate_trace_lines([meta, span]))

    def test_validator_rejects_count_mismatch(self):
        meta = json.dumps({"type": "meta", "schema": SCHEMA_VERSION,
                           "span_count": 3, "counter_count": 0,
                           "histogram_count": 0})
        assert any("declares 3 span" in e
                   for e in validate_trace_lines([meta]))

    def test_validate_file_raises_with_preview(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"meta","schema":"nope"}\n')
        with pytest.raises(ValueError, match="invalid trace"):
            validate_trace_file(str(path))

    def test_render_tree_nests_and_shows_counters(self):
        text = render_tree(self._traced())
        lines = text.splitlines()
        assert lines[0].startswith("solve (n=4)")
        assert lines[1].startswith("  ego (v=0)")
        assert "counters: nodes=3" in lines[-1]

    def test_render_tree_elides_long_sibling_runs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("sweep"):
            for v in range(50):
                with tracer.span("ego", v=v):
                    pass
        text = render_tree(tracer, max_children=40)
        assert "... 10 more spans" in text
        assert text.count("ego") == 40

    def test_span_time_coverage(self):
        records = [
            {"id": 0, "parent": None, "name": "sweep", "start": 0.0,
             "elapsed": 10.0, "attrs": {}},
            {"id": 1, "parent": 0, "name": "ego", "start": 0.0,
             "elapsed": 6.0, "attrs": {}},
            {"id": 2, "parent": 0, "name": "ego", "start": 6.0,
             "elapsed": 3.0, "attrs": {}},
            {"id": 3, "parent": None, "name": "ego", "start": 9.0,
             "elapsed": 5.0, "attrs": {}},  # orphan: not under sweep
        ]
        assert span_time_coverage(records, "sweep", "ego") == \
            pytest.approx(0.9)
        assert span_time_coverage([], "sweep", "ego") == 1.0


class CountingSpan(tracer_module.Span):
    """Span subclass that counts constructions (the allocation guard)."""

    allocations = 0

    def __init__(self, tracer, name, attrs):
        CountingSpan.allocations += 1
        super().__init__(tracer, name, attrs)


@pytest.fixture
def counting_spans(monkeypatch):
    """Route every ``Tracer.span`` allocation through CountingSpan."""
    CountingSpan.allocations = 0
    monkeypatch.setattr(tracer_module, "Span", CountingSpan)
    return CountingSpan


class TestDisabledPathAllocations:
    def test_untraced_solve_allocates_zero_spans(
            self, counting_spans, toy_figure2):
        for engine in ("set", "bitset"):
            result = mbc_star(toy_figure2, 2, engine=engine)
            assert result.size == 6
        assert counting_spans.allocations == 0

    def test_traced_solve_does_allocate(
            self, counting_spans, toy_figure2):
        # The counterpart proving the monkeypatched guard actually
        # observes the live path.
        mbc_star(toy_figure2, 2, trace=get_tracer(True))
        assert counting_spans.allocations > 0

    def test_null_singletons_shared(self):
        assert get_tracer(False).span("x") is NULL_SPAN
        assert isinstance(get_tracer(False), NullTracer)


def sweeping_graph():
    """A random graph dense enough that MBC* reaches the ego sweep
    (on the toy fixtures the heuristic already proves optimality and
    the pipeline exits before any ego network is built)."""
    import random

    from repro.signed.graph import SignedGraph

    rng = random.Random(0)
    n = rng.randint(10, 20)
    graph = SignedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                graph.add_edge(u, v, -1 if rng.random() < 0.5 else 1)
    return graph


class TestSolverTraces:
    def _spans(self, tracer):
        return [r["name"] for r in tracer.records]

    def test_mbc_star_span_taxonomy(self, toy_figure2):
        tracer = get_tracer(True)
        result = mbc_star(toy_figure2, 2, trace=tracer)
        assert result.size == 6
        names = self._spans(tracer)
        assert names.count("mbc_star") == 1
        for phase in ("vertex_reduction", "heuristic"):
            assert phase in names
        root = [r for r in tracer.records if r["name"] == "mbc_star"][0]
        assert root["parent"] is None
        assert root["attrs"]["size"] == 6
        assert root["attrs"]["tau"] == 2

    def test_mbc_star_sweep_and_ego_spans(self):
        graph = sweeping_graph()
        tracer = get_tracer(True)
        mbc_star(graph, 1, trace=tracer)
        names = self._spans(tracer)
        assert "sweep" in names
        assert "ego" in names
        sweep_ids = {r["id"] for r in tracer.records
                     if r["name"] == "sweep"}
        for record in tracer.records:
            if record["name"] == "ego":
                assert record["parent"] in sweep_ids

    def test_trace_never_perturbs_result(self, toy_figure2):
        for engine in ("set", "bitset"):
            plain = mbc_star(toy_figure2, 2, engine=engine)
            traced = mbc_star(toy_figure2, 2, engine=engine,
                              trace=get_tracer(True))
            assert traced.vertices == plain.vertices

    def test_ambient_tracer_captures_without_trace_kwarg(
            self, toy_figure2):
        tracer = get_tracer(True)
        previous = install_tracer(tracer)
        try:
            mbc_star(toy_figure2, 2)
        finally:
            install_tracer(previous)
        assert "mbc_star" in self._spans(tracer)

    def test_explicit_trace_overrides_ambient(self, toy_figure2):
        ambient = get_tracer(True)
        explicit = get_tracer(True)
        previous = install_tracer(ambient)
        try:
            mbc_star(toy_figure2, 2, trace=explicit)
        finally:
            install_tracer(previous)
        assert "mbc_star" in self._spans(explicit)
        assert "mbc_star" not in self._spans(ambient)

    def test_pf_star_trace_records_beta(self, toy_figure2):
        tracer = get_tracer(True)
        beta = pf_star(toy_figure2, trace=tracer)
        root = [r for r in tracer.records if r["name"] == "pf_star"][0]
        assert root["attrs"]["beta"] == beta == 2

    def test_parallel_solve_merges_worker_spans(self, monkeypatch):
        # The graph is below the pool gate; force a real pool so the
        # worker spans have something to merge into.
        monkeypatch.setattr(engine_module, "MIN_POOL_TASKS", 0)
        monkeypatch.setattr(engine_module, "MIN_POOL_WORK", 0)
        graph = sweeping_graph()
        serial = mbc_star(graph, 1, engine="bitset")
        tracer = get_tracer(True)
        result = mbc_star(graph, 1, engine="bitset", parallel=2,
                          trace=tracer)
        assert result.size == serial.size
        names = self._spans(tracer)
        assert "fanout" in names
        assert "chunk" in names
        chunk_parents = {r["parent"] for r in tracer.records
                         if r["name"] == "chunk"}
        fanout_ids = {r["id"] for r in tracer.records
                      if r["name"] == "fanout"}
        assert chunk_parents <= fanout_ids

    def test_trace_is_schema_valid_jsonl(self, toy_figure2, tmp_path):
        tracer = get_tracer(True)
        mbc_star(toy_figure2, 2, trace=tracer)
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(tracer, path)
        assert validate_trace_file(path) == len(tracer.records)


class TestCliTracing:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "out.jsonl")
        assert main(["mbc-star", "dataset:bitcoin", "--tau", "2",
                     "--trace", path]) == 0
        out = capsys.readouterr().out
        assert f"trace: {path}" in out
        assert validate_trace_file(path) > 0

    def test_profile_flag_prints_tree(self, capsys):
        from repro.cli import main

        assert main(["mbc", "dataset:bitcoin", "--tau", "2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "mbc_star" in out
        assert "sweep" in out

    def test_aliases_resolve(self, capsys):
        from repro.cli import build_parser, main

        for alias in ("mbc-star", "pf-star", "gmbc-star"):
            args = build_parser().parse_args([alias, "g.txt"])
            assert args.command == alias
        assert main(["pf-star", "dataset:bitcoin"]) == 0
        assert "beta(G)" in capsys.readouterr().out

    def test_cli_restores_ambient_tracer(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "out.jsonl")
        main(["mbc", "dataset:bitcoin", "--tau", "2", "--trace", path])
        assert current_tracer() is NULL_TRACER


class TestAcceptance:
    def test_ego_spans_cover_sweep_time(self):
        """The ISSUE's acceptance metric on a bundled dataset: per-ego
        spans must account for >= 90% of the serial sweep's wall time
        (the trace may not hide where the sweep's time goes)."""
        tracer = get_tracer(True)
        graph = load("douban")
        result = mbc_star(graph, 3, trace=tracer)
        assert not result.is_empty
        coverage = span_time_coverage(tracer.records, "sweep", "ego")
        assert coverage >= 0.9
