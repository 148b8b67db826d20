"""Cross-algorithm benchmark for the MM plane (PR 6, Figure 9 analog).

Runs every registered MM algorithm (k-means, GMM, spherical,
semisupervised, yinyang) through all three backends, asserts the
models are **bit-identical** across InMemory / Sem / Distributed
first, then records the deterministic simulated-time profile of each
substrate, writing ``BENCH_extensions.json`` at the repo root:

* **algorithms.<name>** -- one entry per algorithm: simulated seconds
  on each backend (informational; at bench sizes a single 4-socket
  NUMA box beats 4 networked c4.8xlarge machines, exactly the paper's
  "NUMA first" argument).
* **scaling.kmeans_1_vs_4_machines** -- the gated Figure 11 shape:
  distributed ``speedup`` of 4 machines over 1 machine of the same
  type at a size where compute amortizes the allreduce.
* **pruning.yinyang_vs_lloyd** -- simulated-time ``speedup`` of the
  yinyang triangle-inequality port over unpruned Lloyd's on the same
  in-memory substrate (the Figure 8/9 pruning story surviving the MM
  generalization).

All speedups are ratios of *simulated* time, so they are exactly
reproducible run-to-run and ``check_bench_regression.py`` gates them
without wall-clock noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_extensions.py [--quick]

``--quick`` shrinks problem sizes so CI can smoke-test the harness in
seconds; the committed JSON comes from a full run.
"""

from __future__ import annotations

import numpy as np

import harness

from repro import ConvergenceCriteria
from repro.extensions import MM_ALGORITHMS, make_mm_algorithm
from repro.runtime import (
    KmeansMM,
    run_mm_distributed,
    run_mm_inmemory,
    run_mm_sem,
)

OUT_PATH = harness.REPO_ROOT / "BENCH_extensions.json"
N_MACHINES = 4
SEED = 3


def make_data(n: int, d: int, k: int, seed: int = 4):
    """Blobby data so pruning bites and every algorithm iterates."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(k, d))
    x = centers[rng.integers(k, size=n)] + rng.normal(size=(n, d))
    labels = np.full(n, -1)
    labels[:: max(1, n // (4 * k))] = rng.integers(k, size=len(
        labels[:: max(1, n // (4 * k))]
    ))
    return np.ascontiguousarray(x), labels


def _algo_kwargs(name: str, max_iters: int) -> dict:
    if name == "gmm":
        return {"seed": SEED, "max_iters": max_iters}
    return {
        "seed": SEED,
        "criteria": ConvergenceCriteria(max_iters=max_iters),
    }


def bench_algorithm(name, x, labels, k, max_iters):
    """Run one algorithm on all three backends, assert bit-identity,
    return its deterministic sim-time entry."""
    lab = labels if name == "semisupervised" else None
    kwargs = _algo_kwargs(name, max_iters)

    def build():
        return make_mm_algorithm(name, x, k, labels=lab, **kwargs)

    ri = run_mm_inmemory(build())
    rs = run_mm_sem(build())
    rd = run_mm_distributed(build(), n_machines=N_MACHINES)

    for other in (rs, rd):
        assert np.array_equal(ri.centroids, other.centroids), name
        assert np.array_equal(ri.assignment, other.assignment), name
        assert other.iterations == ri.iterations, name
    assert ri.iterations > 1, f"{name} finished without iterating"

    return {
        "n": x.shape[0], "d": x.shape[1], "k": k,
        "iterations": ri.iterations,
        "bit_identical_across_backends": True,
        "inmemory_sim_s": ri.sim_seconds,
        "sem_sim_s": rs.sim_seconds,
        "distributed_sim_s": rd.sim_seconds,
        "n_machines": N_MACHINES,
    }


def bench_scaling(x, k, max_iters):
    """Distributed scaling, Figure 11's definition: N machines vs one
    machine of the same type."""
    kwargs = _algo_kwargs("kmeans", max_iters)

    def build():
        return make_mm_algorithm("kmeans", x, k, **kwargs)

    r1 = run_mm_distributed(build(), n_machines=1)
    r4 = run_mm_distributed(build(), n_machines=N_MACHINES)
    assert np.array_equal(r1.centroids, r4.centroids)
    assert r1.iterations == r4.iterations
    return {
        "n": x.shape[0], "d": x.shape[1], "k": k,
        "iterations": r4.iterations,
        "bit_identical_across_fleet_sizes": True,
        "one_machine_sim_s": r1.sim_seconds,
        "four_machine_sim_s": r4.sim_seconds,
        "speedup": r1.sim_seconds / r4.sim_seconds,
    }


def bench_pruning(x, k, max_iters):
    """Yinyang's TI pruning vs unpruned Lloyd's, same substrate."""
    crit = ConvergenceCriteria(max_iters=max_iters)
    rl = run_mm_inmemory(
        KmeansMM(x, k, pruning=None, init="random", seed=SEED,
                 criteria=crit)
    )
    ry = run_mm_inmemory(
        make_mm_algorithm("yinyang", x, k, init="random", seed=SEED,
                          criteria=crit)
    )
    # Same init mode and seed => same trajectory; pruning must not
    # change the answer, only the cost.
    assert np.array_equal(rl.assignment, ry.assignment)
    assert rl.iterations == ry.iterations
    pruned = sum(r.clause1_rows for r in ry.records)
    assert pruned > 0, "yinyang never pruned a row"
    return {
        "n": x.shape[0], "d": x.shape[1], "k": k,
        "iterations": ry.iterations,
        "assignments_identical": True,
        "rows_globally_filtered": int(pruned),
        "lloyd_sim_s": rl.sim_seconds,
        "yinyang_sim_s": ry.sim_seconds,
        "speedup": rl.sim_seconds / ry.sim_seconds,
    }


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, OUT_PATH, argv)

    if args.quick:
        n, d, k, max_iters = 3_000, 8, 8, 12
        sn, sit = 200_000, 6
        pn, pk, pit = 4_000, 16, 15
    else:
        n, d, k, max_iters = 20_000, 16, 12, 30
        sn, sit = 400_000, 12
        pn, pk, pit = 30_000, 24, 30

    x, labels = make_data(n, d, k)
    sx, _ = make_data(sn, 16, k, seed=6)
    px, _ = make_data(pn, d, pk, seed=9)

    results = {
        "meta": harness.meta(
            args.quick,
            "simulated seconds per backend for every MM-plane "
            "algorithm; bit-identity across InMemory/Sem/"
            "Distributed asserted before timing. 'speedup' "
            "entries are deterministic sim-time ratios "
            "(distributed 1-machine over 4-machine for the "
            "scaling entry; unpruned Lloyd's over yinyang for "
            "the pruning entry), so the regression gate is "
            "wall-clock-noise-free.",
        ),
        "algorithms": {
            name: bench_algorithm(name, x, labels, k, max_iters)
            for name in sorted(MM_ALGORITHMS)
        },
        "scaling": {
            "kmeans_1_vs_4_machines": bench_scaling(sx, k, sit),
        },
        "pruning": {
            "yinyang_vs_lloyd": bench_pruning(px, pk, pit),
        },
    }

    harness.write(results, args.out)
    for name, r in results["algorithms"].items():
        print(
            f"  {name:16s} {r['iterations']:3d} iters  "
            f"inmem {r['inmemory_sim_s']:.4f}s  "
            f"sem {r['sem_sim_s']:.4f}s  "
            f"dist {r['distributed_sim_s']:.4f}s"
        )
    s = results["scaling"]["kmeans_1_vs_4_machines"]
    print(
        f"  {'kmeans scaling':16s} {s['iterations']:3d} iters  "
        f"{s['speedup']:.2f}x on {N_MACHINES} machines "
        f"(n={s['n']})"
    )
    p = results["pruning"]["yinyang_vs_lloyd"]
    print(
        f"  {'yinyang_vs_lloyd':16s} {p['iterations']:3d} iters  "
        f"{p['speedup']:.2f}x over unpruned Lloyd's "
        f"({p['rows_globally_filtered']} rows filtered)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
