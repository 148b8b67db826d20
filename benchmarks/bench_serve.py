"""Serving-plane benchmark: latency percentiles under user traffic.

The north star's "heavy traffic from millions of users" made
measurable: fit a streaming mini-batch model, then drive >= 1e5 seeded
open-loop arrivals through the serve path and report p50/p99/p999
query latency in *simulated* time, writing ``BENCH_serve.json`` at the
repo root:

* **latency.query_only** -- the headline artifact: tail latency of a
  pure query stream at the default page cache, with the full counter
  rollup (rows requested, SSD pages, bytes). Asserted
  byte-identical across two fresh serve runs before being recorded --
  percentiles are a pure function of the arrival seed.
* **latency.mixed_ingest** -- the same traffic with 20% streaming
  ingests folded into the centroids mid-serve (informational).
* **caching.page_cache_on_vs_off** -- gated ``speedup``: total
  simulated service time (I/O + compute) with the SAFS page cache
  disabled over the default page cache (serving keeps no row cache).
  The serving-cache claim, wall-clock-noise-free.
* **batching.batched_vs_solo** -- gated ``speedup``: per-arrival
  dispatch (max_batch=1, no window) over coalesced dispatch -- what
  sharing one DistanceWorkspace pass across concurrent queries buys.

All ratios are deterministic sim-time ratios, so
``check_bench_regression.py`` gates them without wall-clock noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
"""

from __future__ import annotations

import numpy as np

import harness

from repro.runtime import run_mm_inmemory
from repro.serve import MiniBatchMM, ServePlane
from repro.simhw import ArrivalProcess

OUT_PATH = harness.REPO_ROOT / "BENCH_serve.json"
SEED = 3
ARRIVAL_SEED = 17


def fit_model(x, k, steps):
    algo = MiniBatchMM(
        x, k, batch_size=1024, n_steps=steps, seed=SEED
    )
    fit = run_mm_inmemory(algo)
    return fit, algo


def serve_once(x, centroids, proc, **plane_kw):
    return ServePlane(x, centroids, **plane_kw).serve(proc)


def entry(res):
    """One scenario's JSON entry from a ServeResult."""
    out = res.to_dict()
    out["sim_service_ns"] = res.io_service_ns + res.compute_ns
    return out


def bench_latency(x, centroids, counts, n_arrivals, rate_qps):
    proc = ArrivalProcess(
        n_arrivals=n_arrivals, rate_qps=rate_qps,
        seed=ARRIVAL_SEED, skew=3.0,
    )
    r1 = serve_once(x, centroids, proc)
    r2 = serve_once(x, centroids, proc)
    assert r1.to_dict() == r2.to_dict(), (
        "serve latency rollup not deterministic"
    )
    assert np.array_equal(r1.latency_ns, r2.latency_ns)

    mixed = serve_once(
        x, centroids,
        ArrivalProcess(
            n_arrivals=n_arrivals, rate_qps=rate_qps,
            seed=ARRIVAL_SEED, skew=3.0, ingest_fraction=0.2,
        ),
        counts=counts.copy(),
    )
    assert mixed.n_ingested > 0
    return {"query_only": entry(r1), "mixed_ingest": entry(mixed)}


def bench_caching(x, centroids, n_arrivals, rate_qps):
    """Gated: the page cache as a serving cache."""
    proc = ArrivalProcess(
        n_arrivals=n_arrivals, rate_qps=rate_qps,
        seed=ARRIVAL_SEED, skew=5.0,
    )
    warm = serve_once(x, centroids, proc)
    cold = serve_once(x, centroids, proc, page_cache_bytes=0)
    assert np.array_equal(warm.assignments, cold.assignments), (
        "caches changed answers"
    )
    warm_ns = warm.io_service_ns + warm.compute_ns
    cold_ns = cold.io_service_ns + cold.compute_ns
    return {
        "page_cache_on_vs_off": {
            "n_arrivals": n_arrivals,
            "warm_pages_from_ssd": warm.pages_from_ssd,
            "cold_pages_from_ssd": cold.pages_from_ssd,
            "warm_sim_service_ns": warm_ns,
            "cold_sim_service_ns": cold_ns,
            "answers_identical": True,
            "speedup": cold_ns / warm_ns,
        }
    }


def bench_batching(x, centroids, n_arrivals, rate_qps):
    """Gated: coalescing concurrent queries through one workspace."""
    proc = ArrivalProcess(
        n_arrivals=n_arrivals, rate_qps=rate_qps,
        seed=ARRIVAL_SEED, skew=3.0,
    )
    batched = serve_once(x, centroids, proc)
    solo = serve_once(
        x, centroids, proc, max_batch=1, batch_window_ns=0.0
    )
    assert np.array_equal(batched.assignments, solo.assignments), (
        "batching changed answers"
    )
    batched_ns = batched.io_service_ns + batched.compute_ns
    solo_ns = solo.io_service_ns + solo.compute_ns
    return {
        "batched_vs_solo": {
            "n_arrivals": n_arrivals,
            "batched_batches": batched.n_batches,
            "solo_batches": solo.n_batches,
            "batched_sim_service_ns": batched_ns,
            "solo_sim_service_ns": solo_ns,
            "answers_identical": True,
            "speedup": solo_ns / batched_ns,
        }
    }


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, OUT_PATH, argv)

    if args.quick:
        n, d, k, steps = 4_000, 8, 8, 20
        n_arrivals, side = 20_000, 6_000
        rate_qps = 200_000.0
    else:
        n, d, k, steps = 20_000, 16, 12, 60
        n_arrivals, side = 100_000, 20_000
        rate_qps = 200_000.0

    x, _ = harness.blobs(n, d, k, seed=4, scale=6.0)
    fit, algo = fit_model(x, k, steps)

    results = {
        "meta": harness.meta(
            args.quick,
            "simulated-time latency percentiles for seeded "
            "open-loop arrivals through repro.serve; rollups "
            "asserted byte-identical across two fresh runs "
            "before recording. 'speedup' entries are "
            "deterministic sim-service-time ratios (page cache "
            "off over on; per-arrival dispatch over coalesced), so "
            "the regression gate is wall-clock-noise-free.",
            n=n, d=d, k=k, arrival_seed=ARRIVAL_SEED,
        ),
        "latency": bench_latency(
            x, fit.centroids, algo.counts, n_arrivals, rate_qps
        ),
        "caching": bench_caching(
            x, fit.centroids, side, rate_qps
        ),
        "batching": bench_batching(
            x, fit.centroids, side, rate_qps
        ),
    }

    harness.write(results, args.out)
    q = results["latency"]["query_only"]
    lat = q["latency"]
    print(
        f"  query-only      {q['n_queries']} queries in "
        f"{q['n_batches']} batches: p50={lat['p50'] / 1e3:.1f}us "
        f"p99={lat['p99'] / 1e3:.1f}us p999={lat['p999'] / 1e3:.1f}us"
    )
    m = results["latency"]["mixed_ingest"]
    print(
        f"  mixed-ingest    {m['n_ingested']} ingests folded "
        f"mid-serve, p999={m['latency']['p999'] / 1e3:.1f}us"
    )
    c = results["caching"]["page_cache_on_vs_off"]
    print(
        f"  cache on/off    {c['speedup']:.2f}x sim service "
        f"({c['warm_pages_from_ssd']} warm vs "
        f"{c['cold_pages_from_ssd']} cold SSD pages)"
    )
    b = results["batching"]["batched_vs_solo"]
    print(
        f"  batched/solo    {b['speedup']:.2f}x sim service "
        f"({b['batched_batches']} vs {b['solo_batches']} batches)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
