"""Wall-clock + simulated-time benchmark for the SEM I/O rework (PR 4).

Times the vectorized SEM cache hierarchy against its frozen pre-change
counterparts (``tests/oracles.py``) and compares knors' sync vs
async simulated I/O accounting, writing ``BENCH_sem.json`` at the repo
root:

* **page_cache** -- interleaved lookup/admit streams through the
  array-based batch LRU vs the per-page OrderedDict cache (contents,
  tallies and LRU order asserted identical first).
* **row_cache_refresh** -- the vectorized partition admission pass vs
  the per-partition Python loop (admitted sets asserted identical).
* **fetch_rows** -- the full SAFS fetch path (page resolution, batch
  cache probe, request merging, admission) vs the legacy
  list-comprehension path (every IoBatch counter asserted identical).
* **end_to_end** -- one knors run per I/O mode on the standard
  synthetic workload: assignments, centroids, iteration counts and all
  cache hit/miss/request counters asserted bit-identical; async
  simulated wall time must land strictly below sync (the Figure 6-7
  overlap story), with the in-memory knori time for reference.

Usage::

    PYTHONPATH=src python benchmarks/bench_sem.py [--quick]

``--quick`` shrinks problem sizes and repeat counts so CI can smoke-test
the harness in seconds; the committed JSON comes from a full run.
"""

from __future__ import annotations

import numpy as np

import harness

from repro import knori, knors
from repro.core import ConvergenceCriteria
from repro.sem.pagecache import PageCache
from repro.sem.rowcache import RowCache
from repro.sem.safs import Safs
from repro.simhw.ssd import OCZ_INTREPID_ARRAY
from tests.oracles import (
    LegacyPageCache,
    LegacyRowCache,
    LegacySafs,
)

OUT_PATH = harness.REPO_ROOT / "BENCH_sem.json"


# -- page cache ------------------------------------------------------


def _page_streams(n_pages, n_batches, batch, seed):
    """Sorted-unique page batches, like ``pages_of_rows`` produces."""
    rng = np.random.default_rng(seed)
    return [
        np.unique(rng.integers(n_pages, size=batch))
        for _ in range(n_batches)
    ]


def _drive_legacy_cache(cache, streams):
    for pages in streams:
        miss = [p for p in pages.tolist() if not cache.lookup(p)]
        for p in miss:
            cache.admit(p)


def _drive_batch_cache(cache, streams):
    for pages in streams:
        hit = cache.lookup_batch(pages)
        cache.admit_batch(pages[~hit])


def bench_page_cache(n_pages, n_batches, batch, capacity_pages, repeats):
    streams = _page_streams(n_pages, n_batches, batch, seed=11)
    cap = capacity_pages * 4096

    def before():
        cache = LegacyPageCache(cap, 4096)
        _drive_legacy_cache(cache, streams)
        return cache

    def after():
        cache = PageCache(cap, 4096)
        _drive_batch_cache(cache, streams)
        return cache

    cb, ca = before(), after()
    assert (cb.hits, cb.misses, len(cb)) == (ca.hits, ca.misses, len(ca))
    assert cb.pages_lru_order() == ca.pages_lru_order()
    return harness.ba(before, after, repeats) | {
        "n_pages": n_pages, "batches": n_batches,
        "batch_size": batch, "capacity_pages": capacity_pages,
        "semantics_identical": True,
    }


# -- row cache -------------------------------------------------------


def _refresh_schedule(cache, active_sets):
    """Run each active set through the cache's scheduled refreshes."""
    it = cache.update_interval
    admitted = []
    for active in active_sets:
        admitted.append(cache.refresh(it, active))
        it = cache._next_refresh
    return admitted


def bench_row_cache(n_rows, n_parts, refreshes, active, repeats):
    rng = np.random.default_rng(13)
    # Capacity divisible by partitions: the remainder-distribution fix
    # is a no-op there, so legacy and new admit identical sets.
    cap_rows = (n_rows // (2 * n_parts)) * n_parts
    active_sets = [
        np.unique(rng.integers(n_rows, size=active))
        for _ in range(refreshes)
    ]

    def before():
        cache = LegacyRowCache(cap_rows * 8, 8, n_rows,
                               n_partitions=n_parts)
        return cache, _refresh_schedule(cache, active_sets)

    def after():
        cache = RowCache(cap_rows * 8, 8, n_rows, n_partitions=n_parts)
        return cache, _refresh_schedule(cache, active_sets)

    (cb, ab), (ca, aa) = before(), after()
    assert ab == aa
    assert np.array_equal(cb._cached, ca._cached)
    return harness.ba(before, after, repeats) | {
        "n_rows": n_rows, "partitions": n_parts,
        "refreshes": refreshes, "active_rows": active,
        "semantics_identical": True,
    }


# -- fetch_rows ------------------------------------------------------


def _batch_digest(b):
    return (
        b.rows_requested, b.bytes_requested, b.pages_needed,
        b.page_cache_hits, b.pages_from_ssd, b.merged_requests,
        b.bytes_read, b.service_ns,
    )


def bench_fetch_rows(n_rows, row_bytes, iters, rows_per_iter,
                     cache_mb, repeats):
    rng = np.random.default_rng(7)
    streams = [
        np.unique(rng.choice(n_rows, size=rows_per_iter, replace=False))
        for _ in range(iters)
    ]

    def run(cls):
        safs = cls(OCZ_INTREPID_ARRAY, page_cache_bytes=cache_mb << 20)
        return [
            _batch_digest(safs.fetch_rows(rows, row_bytes, iteration=i))
            for i, rows in enumerate(streams)
        ]

    def before():
        return run(LegacySafs)

    def after():
        return run(Safs)

    assert before() == after(), "fetch_rows counters diverged"
    return harness.ba(before, after, repeats) | {
        "n_rows": n_rows, "row_bytes": row_bytes,
        "iterations": iters, "rows_per_iter": rows_per_iter,
        "page_cache_mb": cache_mb,
        "counters_identical": True,
    }


# -- end to end ------------------------------------------------------


def _io_digest(res):
    """Every per-iteration counter that must match across I/O modes."""
    return [
        (r.cache_hits, r.cache_misses, r.io_requests,
         r.bytes_requested, r.bytes_read, r.rows_active)
        for r in res.records
    ]


def bench_end_to_end(n, d, k, max_iters, repeats):
    x, c0 = harness.blobs(n, d, k, seed=4)
    crit = ConvergenceCriteria(max_iters=max_iters)

    def run_sync():
        return knors(x, k, pruning="mti", init=c0, criteria=crit,
                     io_mode="sync")

    def run_async():
        return knors(x, k, pruning="mti", init=c0, criteria=crit,
                     io_mode="async")

    rs, ra = run_sync(), run_async()
    identical = (
        np.array_equal(rs.assignment, ra.assignment)
        and np.array_equal(rs.centroids, ra.centroids)
        and rs.iterations == ra.iterations
        and _io_digest(rs) == _io_digest(ra)
    )
    assert identical, "sync and async knors runs diverged"
    assert ra.sim_seconds < rs.sim_seconds, (
        f"async sim time {ra.sim_seconds} not strictly below "
        f"sync {rs.sim_seconds}"
    )
    ri = knori(x, k, pruning="mti", init=c0, criteria=crit)

    wall = harness.ba(run_sync, run_async, repeats)
    return wall | {
        "n": n, "d": d, "k": k, "max_iters": max_iters,
        "outputs_bit_identical": identical,
        "sync_sim_s": rs.sim_seconds,
        "async_sim_s": ra.sim_seconds,
        "in_memory_sim_s": ri.sim_seconds,
        "sim_speedup": rs.sim_seconds / ra.sim_seconds,
        "async_strictly_below_sync": bool(
            ra.sim_seconds < rs.sim_seconds
        ),
    }


# -- driver ----------------------------------------------------------


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, OUT_PATH, argv)
    if args.quick:
        repeats = 2
        pc = dict(n_pages=4_000, n_batches=20, batch=1_500,
                  capacity_pages=1_000)
        rc = dict(n_rows=100_000, n_parts=16, refreshes=4,
                  active=40_000)
        fr = dict(n_rows=80_000, row_bytes=512, iters=4,
                  rows_per_iter=50_000, cache_mb=8)
        e2e = dict(n=8_000, d=16, k=8, max_iters=8)
    else:
        repeats = 5
        pc = dict(n_pages=40_000, n_batches=40, batch=15_000,
                  capacity_pages=12_000)
        rc = dict(n_rows=1_000_000, n_parts=48, refreshes=5,
                  active=400_000)
        fr = dict(n_rows=400_000, row_bytes=512, iters=6,
                  rows_per_iter=250_000, cache_mb=64)
        e2e = dict(n=40_000, d=16, k=16, max_iters=30)

    results = {
        "meta": harness.meta(
            args.quick,
            "wall-clock seconds, best-of-N; 'before' is the frozen "
            "pre-rework SEM cache stack (tests/oracles.py), "
            "'after' is the shipped batch-LRU/vectorized path; "
            "counters asserted identical before timing. End-to-end "
            "also compares simulated seconds across --sync-io / "
            "--async-io (identical numerics, async strictly "
            "faster in simulated time).",
            repeats=repeats,
        ),
        "kernels": {
            "page_cache": bench_page_cache(repeats=repeats, **pc),
            "row_cache_refresh": bench_row_cache(repeats=repeats, **rc),
            "fetch_rows": bench_fetch_rows(repeats=repeats, **fr),
        },
        "end_to_end": {
            "knors_sync_vs_async": bench_end_to_end(
                repeats=max(1, repeats - 3), **e2e
            ),
        },
    }

    harness.write(results, args.out)
    for name, r in results["kernels"].items():
        print(f"  {name:24s} {r['speedup']:.2f}x "
              f"({r['before_s']:.4f}s -> {r['after_s']:.4f}s)")
    r = results["end_to_end"]["knors_sync_vs_async"]
    print(f"  {'knors sim (sync/async)':24s} {r['sim_speedup']:.3f}x "
          f"({r['sync_sim_s']:.6f}s -> {r['async_sim_s']:.6f}s, "
          f"in-memory {r['in_memory_sim_s']:.6f}s, "
          f"bit-identical={r['outputs_bit_identical']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
