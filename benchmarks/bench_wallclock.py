"""Wall-clock before/after benchmark for the PR 3 kernel rework.

Times the interpreter-side hot paths against their frozen pre-change
counterparts (:mod:`repro.perf.legacy`) and writes the results to
``BENCH_kernels.json`` at the repo root:

* **Kernel layer** -- accumulation (flat-index bincount vs per-dim
  loop), blocked ``nearest_centroid`` (workspace vs fresh temporaries),
  the clause-1 threshold, and a full MTI pipeline (init + iterations).
* **Engine replay** -- the optimized event loop vs the verbatim
  reference loop on an identical task stream.
* **End-to-end** -- one knori run before (legacy kernels + reference
  engine loop, monkeypatched in) and after, asserted bit-identical;
  one knors and one knord run timed on the optimized path.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick]

``--quick`` shrinks problem sizes and repeat counts so CI can smoke-test
the harness in seconds; the committed JSON comes from a full run.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: on a shared host
# a two-thread GEMM runs at the pace of the busier core, which made the
# nearest_centroid timings bimodal from one process to the next.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import knord, knori, knors  # noqa: E402
from repro.core import ConvergenceCriteria  # noqa: E402
from repro.core.centroids import AccumScratch, add_block  # noqa: E402
from repro.core.distance import nearest_centroid  # noqa: E402
from repro.core.mti import mti_init, mti_iteration  # noqa: E402
from repro.core.workspace import DistanceWorkspace  # noqa: E402
from repro.perf import before_after, time_callable  # noqa: E402
from repro.perf import legacy  # noqa: E402
from repro.sched import NumaAwareScheduler  # noqa: E402
from repro.simhw import (  # noqa: E402
    BindPolicy,
    FOUR_SOCKET_XEON,
    IterationEngine,
    TaskWork,
)
from repro.simhw.engine import IterationTrace  # noqa: E402
from repro.simhw.thread import spawn_threads  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_kernels.json"


def _ba(before_fn, after_fn, repeats, loops=1):
    """Time both sides and produce the before/after JSON fragment.

    Each sample times ``loops`` back-to-back calls (the fragment reports
    seconds per call), so a sub-millisecond call is sampled over long
    enough that the sample measures the code rather than the host.
    """

    def looped(fn):
        def run():
            for _ in range(loops):
                fn()
        return run

    out = before_after(
        time_callable(looped(before_fn), label="before", repeats=repeats),
        time_callable(looped(after_fn), label="after", repeats=repeats),
    )
    if loops > 1:
        for key in ("before_s", "after_s", "before_mean_s", "after_mean_s"):
            out[key] /= loops
        out["loops"] = loops
    return out


def make_data(n: int, d: int, k: int, seed: int = 0):
    """Blobby data so MTI actually prunes and iterations do real work."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=8.0, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    c0 = x[rng.choice(n, size=k, replace=False)].copy()
    return np.ascontiguousarray(x), c0


# -- kernel microbenchmarks -----------------------------------------


def bench_accumulation(n, d, k, repeats):
    x, _ = make_data(n, d, k)
    rng = np.random.default_rng(1)
    assign = rng.integers(k, size=n).astype(np.int32)
    scratch = AccumScratch()

    def before():
        sums = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.int64)
        legacy.add_block(sums, counts, x, assign)
        return sums, counts

    def after():
        sums = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.int64)
        add_block(sums, counts, x, assign, scratch=scratch)
        return sums, counts

    sb, cb = before()
    sa, ca = after()
    assert np.array_equal(sb, sa) and np.array_equal(cb, ca)
    return _ba(before, after, repeats) | {"n": n, "d": d, "k": k}


def bench_nearest_centroid(n, d, k, repeats, loops=1):
    x, c = make_data(n, d, k)
    ws = DistanceWorkspace(k, d, block_rows=legacy.BLOCK_ROWS)

    def before():
        return legacy.nearest_centroid(x, c)

    def after():
        return nearest_centroid(x, c, workspace=ws)

    ab, mb = before()
    aa, ma = after()
    assert np.array_equal(ab, aa) and np.array_equal(mb, ma)
    return _ba(before, after, repeats, loops) | {
        "n": n, "d": d, "k": k
    }


def bench_half_min(k, d, calls, repeats):
    _, c = make_data(4 * k, d, k, seed=2)
    cc = legacy.pairwise_centroid_distances(c)
    ws = DistanceWorkspace(k, d)
    ws.ensure(c)

    def before():
        for _ in range(calls):
            legacy.half_min_inter_centroid(cc)

    def after():
        for _ in range(calls):
            ws.half_min()

    assert np.array_equal(
        legacy.half_min_inter_centroid(cc), ws.half_min()
    )
    return _ba(before, after, repeats) | {
        "k": k, "d": d, "calls_per_repeat": calls
    }


def bench_mti_pipeline(n, d, k, iters, repeats):
    x, c0 = make_data(n, d, k, seed=3)

    def run_legacy():
        centroids = c0.copy()
        state, res = legacy.mti_init(x, centroids)
        for _ in range(iters):
            prev, centroids = centroids, res.new_centroids
            res = legacy.mti_iteration(x, centroids, prev, state)
        return state, res

    def run_new():
        ws = DistanceWorkspace(k, d)
        centroids = c0.copy()
        state, res = mti_init(x, centroids, workspace=ws)
        for _ in range(iters):
            prev, centroids = centroids, res.new_centroids
            res = mti_iteration(x, centroids, prev, state, workspace=ws)
        return state, res

    st_b, res_b = run_legacy()
    st_a, res_a = run_new()
    assert np.array_equal(st_b.assignment, st_a.assignment)
    assert np.array_equal(res_b.new_centroids, res_a.new_centroids)
    assert res_b.clause2_pruned == res_a.clause2_pruned
    return _ba(run_legacy, run_new, repeats) | {
        "n": n, "d": d, "k": k, "iterations": 1 + iters
    }


# -- engine replay ---------------------------------------------------


def bench_engine_replay(n_tasks, n_threads, repeats, loops=1):
    cm = FOUR_SOCKET_XEON
    tasks = [
        TaskWork(
            task_id=i,
            n_rows=8192,
            n_dist=8192 * (1 + i % 10),
            data_bytes=8192 * 64,
            state_bytes=8192 * 16,
            home_node=i % cm.topology.n_nodes,
        )
        for i in range(n_tasks)
    ]
    engine = IterationEngine(cm, bind_policy=BindPolicy.NUMA_BIND)

    def before() -> IterationTrace:
        threads = spawn_threads(cm.topology, n_threads,
                                BindPolicy.NUMA_BIND)
        return engine.run_reference(
            NumaAwareScheduler(), tasks, threads, d=8, k=10
        )

    def after() -> IterationTrace:
        threads = spawn_threads(cm.topology, n_threads,
                                BindPolicy.NUMA_BIND)
        return engine.run(
            NumaAwareScheduler(), tasks, threads, d=8, k=10
        )

    t_b, t_a = before(), after()
    assert t_b.thread_clocks_ns == t_a.thread_clocks_ns
    assert t_b.total_ns == t_a.total_ns
    return _ba(before, after, repeats, loops) | {
        "n_tasks": n_tasks, "n_threads": n_threads
    }


# -- end-to-end ------------------------------------------------------


class _LegacyKernels:
    """Context manager swapping the drivers onto the pre-change path.

    ``repro.drivers.common`` binds the kernel functions at import, so
    rebinding its module globals (plus the engine's ``run``) replays a
    run exactly as it executed before this PR.
    """

    def __enter__(self):
        import repro.drivers.common as common

        self._common = common
        self._saved = (common.mti_init, common.mti_iteration)
        self._saved_run = IterationEngine.run

        def legacy_mti_init(x, centroids, *, workspace=None):
            return legacy.mti_init(x, centroids)

        def legacy_mti_iteration(x, c, prev, state, *, workspace=None):
            return legacy.mti_iteration(x, c, prev, state)

        common.mti_init = legacy_mti_init
        common.mti_iteration = legacy_mti_iteration
        IterationEngine.run = IterationEngine.run_reference
        return self

    def __exit__(self, *exc):
        self._common.mti_init, self._common.mti_iteration = self._saved
        IterationEngine.run = self._saved_run
        return False


def _run_digest(res):
    """Everything that must stay bit-identical across the rework."""
    return {
        "iterations": res.iterations,
        "inertia": res.inertia,
        "sim_seconds": res.sim_seconds,
        "assignment_sha": int(np.int64(res.assignment).sum()),
        "centroids_sum": float(res.centroids.sum()),
        "clause1_rows": sum(r.clause1_rows for r in res.records),
        "clause2_pruned": sum(r.clause2_pruned for r in res.records),
        "clause3_pruned": sum(r.clause3_pruned for r in res.records),
        "dist_computations": res.total_dist_computations,
    }


def _identical(a, b) -> bool:
    return (
        np.array_equal(a.assignment, b.assignment)
        and np.array_equal(a.centroids, b.centroids)
        and a.inertia == b.inertia
        and a.iterations == b.iterations
        and [r.sim_ns for r in a.records] == [r.sim_ns for r in b.records]
        and [r.clause1_rows for r in a.records]
        == [r.clause1_rows for r in b.records]
        and [r.clause2_pruned for r in a.records]
        == [r.clause2_pruned for r in b.records]
        and [r.clause3_pruned for r in a.records]
        == [r.clause3_pruned for r in b.records]
    )


def bench_end_to_end(n, d, k, max_iters, repeats):
    x, c0 = make_data(n, d, k, seed=4)
    crit = ConvergenceCriteria(max_iters=max_iters)

    def run_knori():
        return knori(x, k, pruning="mti", init=c0, criteria=crit)

    def run_knori_before():
        with _LegacyKernels():
            return knori(x, k, pruning="mti", init=c0, criteria=crit)

    res_after = run_knori()
    res_before = run_knori_before()
    identical = _identical(res_before, res_after)
    assert identical, "legacy and optimized knori runs diverged"

    knori_times = _ba(run_knori_before, run_knori, repeats)

    knors_t = time_callable(
        lambda: knors(x, k, pruning="mti", init=c0, criteria=crit),
        label="knors", repeats=max(1, repeats - 1),
    )
    knord_t = time_callable(
        lambda: knord(x, k, n_machines=2, pruning="mti", init=c0,
                      criteria=crit),
        label="knord", repeats=max(1, repeats - 1),
    )
    return {
        "knori": knori_times | {
            "n": n, "d": d, "k": k, "max_iters": max_iters,
            "outputs_bit_identical": identical,
            "digest": _run_digest(res_after),
        },
        "knors": knors_t.as_dict(),
        "knord": knord_t.as_dict(),
    }


# -- driver ----------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true",
        help="small sizes / few repeats (CI smoke test)",
    )
    ap.add_argument(
        "--out", type=Path, default=OUT_PATH,
        help=f"output JSON path (default: {OUT_PATH})",
    )
    args = ap.parse_args(argv)

    if args.quick:
        repeats = 2
        acc = dict(n=20_000, d=16, k=32)
        # The two gated entries whose single call takes about a
        # millisecond or less sample many calls, best of many: at
        # best-of-2 single calls their speedups swung by 40-60% on a
        # shared 2-core host.
        nc = dict(n=20_000, d=16, k=32, repeats=9, loops=3)
        hm = dict(k=64, d=16, calls=50)
        mti = dict(n=10_000, d=8, k=16, iters=3)
        eng = dict(n_tasks=64, n_threads=16, repeats=9, loops=40)
        e2e = dict(n=6_000, d=8, k=8, max_iters=6)
    else:
        repeats = 5
        acc = dict(n=100_000, d=32, k=64)
        nc = dict(n=100_000, d=32, k=64, repeats=repeats)
        hm = dict(k=64, d=32, calls=200)
        mti = dict(n=60_000, d=16, k=32, iters=5)
        eng = dict(n_tasks=512, n_threads=48, repeats=repeats)
        e2e = dict(n=40_000, d=16, k=16, max_iters=10)

    results = {
        "meta": {
            "quick": args.quick,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "note": (
                "wall-clock seconds, best-of-N; 'before' is the frozen "
                "pre-rework kernel (repro.perf.legacy) or the engine's "
                "reference loop, 'after' is the shipped code; outputs "
                "asserted bit-identical before timing"
            ),
        },
        "kernels": {
            "accumulation": bench_accumulation(repeats=repeats, **acc),
            "nearest_centroid": bench_nearest_centroid(**nc),
            "half_min_inter_centroid": bench_half_min(
                repeats=repeats, **hm
            ),
            "mti_pipeline": bench_mti_pipeline(repeats=repeats, **mti),
        },
        "engine": {
            "replay": bench_engine_replay(**eng),
        },
        "end_to_end": bench_end_to_end(repeats=repeats, **e2e),
    }

    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name, r in results["kernels"].items():
        print(f"  {name:28s} {r['speedup']:.2f}x "
              f"({r['before_s']:.4f}s -> {r['after_s']:.4f}s)")
    r = results["engine"]["replay"]
    print(f"  {'engine replay':28s} {r['speedup']:.2f}x "
          f"({r['before_s']:.4f}s -> {r['after_s']:.4f}s)")
    r = results["end_to_end"]["knori"]
    print(f"  {'knori end-to-end':28s} {r['speedup']:.2f}x "
          f"({r['before_s']:.4f}s -> {r['after_s']:.4f}s, "
          f"bit-identical={r['outputs_bit_identical']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
