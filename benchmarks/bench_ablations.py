"""Ablations for the design choices DESIGN.md calls out.

Not a paper figure -- these isolate the individual contributions the
paper claims but does not plot separately:

1. ||Lloyd's vs naive locked two-phase parallel Lloyd's (Section 3's
   motivation).
2. Row-cache refresh interval sweep (the laziness trade-off of
   Section 6.2.2).
3. Task granularity sweep (the 8192-row minimum of Section 8.4).
4. MTI vs full Elkan TI: computation pruned vs memory paid
   (Section 4's trade-off).
5. Funnel merge vs serial merge of per-thread centroids.
"""

import pytest

from repro import ConvergenceCriteria, knori, knors
from repro.baselines import naive_parallel_lloyd
from repro.metrics import render_table
from repro.simhw import FOUR_SOCKET_XEON

from conftest import report

CRIT = ConvergenceCriteria(max_iters=15)


def test_ablation_pll_vs_naive(fr8, benchmark):
    rows = []
    for t in (8, 16, 48):
        pll = knori(fr8, 10, pruning=None, n_threads=t, seed=4,
                    criteria=CRIT)
        naive = naive_parallel_lloyd(fr8, 10, n_threads=t, seed=4,
                                     criteria=CRIT)
        rows.append(
            [
                t,
                f"{pll.sim_seconds:.4f}",
                f"{naive.sim_seconds:.4f}",
                f"{naive.sim_seconds / pll.sim_seconds:.2f}x",
            ]
        )
        assert naive.sim_seconds > pll.sim_seconds
    # The locking penalty grows with T (k fixed at 10).
    assert float(rows[-1][3][:-1]) > float(rows[0][3][:-1])
    report(
        "Ablation 1: ||Lloyd's (per-thread centroids, one barrier) vs "
        "naive locked two-phase Lloyd's (Friendster-8-like, k=10)",
        render_table(["T", "||Lloyd's s", "naive s", "naive/pll"],
                     rows),
    )
    benchmark.pedantic(
        lambda: naive_parallel_lloyd(fr8, 10, n_threads=48, seed=4,
                                     criteria=CRIT),
        rounds=1, iterations=1,
    )


def test_ablation_cache_interval(fr32, fr32_file, benchmark):
    db = fr32.size * 8
    rows = []
    results = {}
    for interval in (2, 4, 8, 12):
        res = knors(
            fr32_file, 100, seed=4,
            criteria=ConvergenceCriteria(max_iters=20),
            row_cache_bytes=db // 8, page_cache_bytes=db // 16,
            cache_update_interval=interval,
        )
        hits = sum(r.cache_hits for r in res.records)
        results[interval] = res
        rows.append(
            [
                interval,
                f"{res.total_bytes_read / 1e6:.1f}",
                hits,
                f"{res.sim_seconds:.4f}",
            ]
        )
    report(
        "Ablation 2: row-cache refresh interval I_cache "
        "(Friendster-32-like, k=100)",
        render_table(
            ["I_cache", "total read MB", "total RC hits", "sim s"],
            rows,
        )
        + "\nToo-early refreshes cache a transient activation pattern;"
        "\ntoo-late ones leave the cache cold for most of the run.",
    )
    # Some interval must beat the extremes on bytes read.
    read = {i: r.total_bytes_read for i, r in results.items()}
    assert min(read.values()) < read[2] or min(read.values()) < read[12]
    benchmark.pedantic(
        lambda: knors(
            fr32_file, 100, seed=4,
            criteria=ConvergenceCriteria(max_iters=10),
            row_cache_bytes=db // 8, page_cache_bytes=db // 16,
        ),
        rounds=1, iterations=1,
    )


def test_ablation_task_granularity(fr8, benchmark):
    rows = []
    times = {}
    for task_rows in (64, 256, 1024, 8192):
        res = knori(fr8, 100, seed=4, criteria=CRIT,
                    task_rows=task_rows, n_threads=48)
        times[task_rows] = res.sim_seconds
        busy = sum(r.busy_fraction for r in res.records) / len(
            res.records
        )
        rows.append(
            [task_rows, f"{res.sim_seconds:.4f}", f"{busy:.3f}"]
        )
    report(
        "Ablation 3: task granularity under MTI skew "
        "(Friendster-8-like, k=100, T=48)",
        render_table(["task rows", "sim s", "mean utilization"], rows)
        + "\nOversized tasks (8192 rows = 21 tasks for 48 threads) "
        "starve threads outright.",
    )
    assert times[8192] > times[256]
    benchmark.pedantic(
        lambda: knori(fr8, 100, seed=4, criteria=CRIT, task_rows=256),
        rounds=1, iterations=1,
    )


def test_ablation_mti_vs_elkan(fr8, benchmark):
    from repro.extensions import yinyang_kmeans

    rows = []
    runs = {}
    for pruning in (None, "mti", "elkan"):
        res = knori(fr8, 50, pruning=pruning, seed=4, criteria=CRIT)
        runs[pruning] = res
        rows.append(
            [
                str(pruning),
                res.total_dist_computations,
                f"{res.peak_memory_bytes / 1e6:.2f}",
                f"{res.sim_seconds:.4f}",
            ]
        )
    yy = yinyang_kmeans(fr8, 50, seed=4, criteria=CRIT)
    rows.append(
        [
            "yinyang (O(nt))",
            yy.total_dist_computations,
            f"{yy.memory_breakdown['yinyang_bounds'] / 1e6:.2f}*",
            f"{yy.sim_seconds:.4f}",
        ]
    )
    report(
        "Ablation 4: pruning strategy trade-off "
        "(Friendster-8-like, k=50)",
        render_table(
            ["pruning", "distance comps", "peak MB", "sim s"], rows
        )
        + "\nElkan prunes more but pays O(nk) memory; MTI keeps most "
        "of the pruning at O(n) -- the paper's core trade-off."
        "\n(* yinyang row shows bound-state bytes only.)",
    )
    assert (
        runs["elkan"].total_dist_computations
        <= runs["mti"].total_dist_computations
        < runs[None].total_dist_computations
    )
    assert (
        runs[None].peak_memory_bytes
        < runs["mti"].peak_memory_bytes
        < runs["elkan"].peak_memory_bytes
    )
    # MTI retains a large share of Elkan's pruning benefit.
    saved_mti = (
        runs[None].total_dist_computations
        - runs["mti"].total_dist_computations
    )
    saved_elkan = (
        runs[None].total_dist_computations
        - runs["elkan"].total_dist_computations
    )
    assert saved_mti > 0.5 * saved_elkan
    benchmark.pedantic(
        lambda: knori(fr8, 50, pruning="elkan", seed=4, criteria=CRIT),
        rounds=1, iterations=1,
    )


def test_ablation_reduction_cost(benchmark):
    """Funnel (tree) merge vs a serial merge of T partials."""
    cm = FOUR_SOCKET_XEON
    rows = []
    for t in (2, 8, 48, 96):
        tree = cm.reduction_ns(100, 32, t)
        serial = t * (100 * 32 + 100) * cm.merge_elem_ns
        rows.append(
            [t, f"{tree / 1e3:.2f}", f"{serial / 1e3:.2f}",
             f"{serial / tree:.2f}x"]
        )
        if t >= 48:
            assert tree < serial
    report(
        "Ablation 5: funnel (tree) reduction vs serial merge of "
        "per-thread centroids (k=100, d=32; sim us)",
        render_table(["T", "tree us", "serial us", "serial/tree"],
                     rows),
    )
    benchmark.pedantic(
        lambda: cm.reduction_ns(100, 32, 48), rounds=10, iterations=100
    )
