"""Serving benchmark — request latency and throughput over HTTP.

The serve layer's acceptance criterion: on real stand-in datasets,
answering an identical repeat request from the keyed result cache
must be at least 10x faster (p50) than the cold solve of the same
graph — i.e. the cache turns solver cost into transport cost — and
the daemon must sustain concurrent clients (throughput is measured
at every concurrency in :data:`CONCURRENCIES`).

Per dataset the load generator boots a
:class:`~repro.serve.BackgroundServer`, measures

* **cold** latency: ``POST /cache/clear`` before every sample, so
  each request pays a full ``mbc_star`` solve;
* **cached** latency: one priming request, then repeats that must all
  report ``"cache": "hit"``;
* **throughput**: N concurrent clients firing cached requests
  back-to-back, wall-clocked end to end.

Standalone mode writes ``BENCH_serve.json`` at the repo root
(``python benchmarks/bench_serve.py``); CI re-validates the committed
payload against :func:`validate_payload` and re-runs a shrunken live
smoke (``REPRO_BENCH_SCALE``).  The pytest target wires the
cached-request round trip into pytest-benchmark.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.kernels import DEFAULT_ENGINE
from repro.serve import BackgroundServer, SolverService

try:
    from ._common import BENCH_SCALE, DEFAULT_TAU, bench_graph, \
        print_table, run_once
except ImportError:
    from _common import BENCH_SCALE, DEFAULT_TAU, bench_graph, \
        print_table, run_once

#: Datasets the serving criterion is measured on — chosen so the cold
#: solve is long enough (tens of ms at scale 1.0) that the 10x cached
#: floor measures the cache, not timer noise.
BENCH_DATASETS = ("douban", "yahoosong")

#: Cold solves sampled per dataset (each behind a cache clear).
COLD_SAMPLES = 5

#: Cached requests sampled per dataset.
CACHED_SAMPLES = 40

#: Client concurrencies the throughput sweep runs at.
CONCURRENCIES = (2, 8)

#: Requests issued per throughput measurement (split across clients).
THROUGHPUT_REQUESTS = 80

#: Acceptance floor: cached p50 must beat cold p50 by this factor.
MIN_CACHED_SPEEDUP = 10.0


def _post(url: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=600) as response:
        body = json.loads(response.read())
    assert isinstance(body, dict)
    return body


def _percentile(samples: "list[float]", q: float) -> float:
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def _solve_payload(dataset: str) -> dict:
    return {
        "graph": f"dataset:{dataset}@{BENCH_SCALE}",
        "problem": "mbc",
        "tau": DEFAULT_TAU,
    }


def _timed_request(url: str, payload: dict,
                   expect_cache: "str | None" = None) -> float:
    started = time.perf_counter()
    body = _post(url, "/solve", payload)
    elapsed = time.perf_counter() - started
    assert body["status"] == "optimal", body
    if expect_cache is not None:
        assert body["cache"] == expect_cache, body["cache"]
    return elapsed


def _throughput(url: str, payload: dict, concurrency: int) -> dict:
    """Wall-clock ``THROUGHPUT_REQUESTS`` cached requests split across
    ``concurrency`` persistent clients."""
    per_client = THROUGHPUT_REQUESTS // concurrency
    errors: "list[BaseException]" = []

    def client() -> None:
        try:
            for _ in range(per_client):
                _timed_request(url, payload, expect_cache="hit")
        except BaseException as exc:  # noqa: BLE001 — reraised below
            errors.append(exc)

    threads = [threading.Thread(target=client)
               for _ in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    total = per_client * concurrency
    return {
        "concurrency": concurrency,
        "requests": total,
        "seconds": round(elapsed, 6),
        "rps": round(total / elapsed, 1),
    }


def _bench_dataset(url: str, dataset: str) -> dict:
    """Measure one dataset through a live daemon; the payload row."""
    payload = _solve_payload(dataset)
    graph = bench_graph(dataset)

    cold: "list[float]" = []
    for _ in range(COLD_SAMPLES):
        _post(url, "/cache/clear", {})
        cold.append(_timed_request(url, payload, expect_cache="miss"))

    _post(url, "/cache/clear", {})
    _timed_request(url, payload, expect_cache="miss")  # prime
    cached = [_timed_request(url, payload, expect_cache="hit")
              for _ in range(CACHED_SAMPLES)]

    cold_p50 = statistics.median(cold)
    cached_p50 = statistics.median(cached)
    return {
        "dataset": dataset,
        "n": graph.num_vertices,
        "m": graph.num_edges,
        "cold_p50_ms": round(cold_p50 * 1000, 3),
        "cold_p99_ms": round(_percentile(cold, 0.99) * 1000, 3),
        "cached_p50_ms": round(cached_p50 * 1000, 3),
        "cached_p99_ms": round(_percentile(cached, 0.99) * 1000, 3),
        "cached_speedup": round(cold_p50 / cached_p50, 1),
        "throughput": [_throughput(url, payload, concurrency)
                       for concurrency in CONCURRENCIES],
    }


def collect() -> dict:
    """The whole payload: one daemon, every dataset measured live."""
    service = SolverService()
    with BackgroundServer(service) as server:
        rows = [_bench_dataset(server.url, dataset)
                for dataset in BENCH_DATASETS]
    return {
        "engine": DEFAULT_ENGINE,
        "tau": DEFAULT_TAU,
        "scale": BENCH_SCALE,
        "cold_samples": COLD_SAMPLES,
        "cached_samples": CACHED_SAMPLES,
        "concurrencies": list(CONCURRENCIES),
        "datasets": rows,
    }


def validate_payload(payload: dict) -> None:
    """Schema + acceptance check of a ``BENCH_serve.json`` payload.

    Raises ``AssertionError`` on any violation; CI runs this against
    the committed file so a drive-by edit cannot silently weaken the
    record.  The 10x cached-speedup floor applies at full scale only:
    on the shrunken CI smoke (``REPRO_BENCH_SCALE < 1``) the cold
    solve is milliseconds, so the ratio measures HTTP overhead rather
    than the cache, and the smoke just requires caching to win at
    all.
    """
    assert set(payload) == {
        "engine", "tau", "scale", "cold_samples", "cached_samples",
        "concurrencies", "datasets"}
    assert payload["tau"] >= 1
    assert len(payload["concurrencies"]) >= 2, \
        "criterion needs throughput at >= 2 client concurrencies"
    assert min(payload["concurrencies"]) >= 2
    rows = payload["datasets"]
    assert len(rows) >= 2, "criterion needs >= 2 real datasets"
    for row in rows:
        assert set(row) == {
            "dataset", "n", "m", "cold_p50_ms", "cold_p99_ms",
            "cached_p50_ms", "cached_p99_ms", "cached_speedup",
            "throughput"}
        assert row["n"] > 0 and row["m"] > 0
        assert 0 < row["cold_p50_ms"] <= row["cold_p99_ms"]
        assert 0 < row["cached_p50_ms"] <= row["cached_p99_ms"]
        floor = MIN_CACHED_SPEEDUP if payload["scale"] >= 1.0 else 1.0
        assert row["cached_speedup"] >= floor, (
            f"{row['dataset']}: cached p50 only "
            f"{row['cached_speedup']}x below cold p50 — the "
            f"{floor}x acceptance floor failed")
        measured = {t["concurrency"] for t in row["throughput"]}
        assert measured == set(payload["concurrencies"])
        for t in row["throughput"]:
            assert set(t) == {"concurrency", "requests", "seconds",
                              "rps"}
            assert t["requests"] >= t["concurrency"]
            assert t["rps"] > 0


@pytest.mark.benchmark(group="serve")
@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def test_serve_cached_round_trip(benchmark, dataset):
    """Steady state: one cached solve request over localhost HTTP."""
    service = SolverService()
    with BackgroundServer(service) as server:
        payload = _solve_payload(dataset)
        _timed_request(server.url, payload)  # prime

        def step() -> float:
            return _timed_request(server.url, payload,
                                  expect_cache="hit")

        run_once(benchmark, step)


def main() -> None:
    payload = collect()
    print_table(
        f"Serve latency (tau={DEFAULT_TAU}, "
        f"scale={BENCH_SCALE})",
        ["dataset", "n", "m", "cold p50", "cached p50", "speedup",
         *(f"rps@{c}" for c in CONCURRENCIES)],
        [[row["dataset"], row["n"], row["m"],
          f"{row['cold_p50_ms']:.1f}ms",
          f"{row['cached_p50_ms']:.2f}ms",
          f"{row['cached_speedup']:.0f}x",
          *(f"{t['rps']:.0f}" for t in row["throughput"])]
         for row in payload["datasets"]])
    validate_payload(payload)
    if "--no-json" not in sys.argv:
        out = Path(__file__).resolve().parent.parent / \
            "BENCH_serve.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
