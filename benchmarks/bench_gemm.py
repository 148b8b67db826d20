"""Kernel-strategy and allreduce-schedule benchmark.

Two halves, written to ``BENCH_gemm.json`` at the repo root:

* **Kernels** -- wall-clock ``nearest_centroid`` with
  ``kernel="blocked"`` (the bit-exact reference) vs ``kernel="gemm"``
  (norm-caching GEMM expansion, winner-only clamp+sqrt) at
  k in {10, 64, 256}, each through a workspace exactly as the drivers
  deploy them. Assignments are asserted identical and the squared
  distances checked against the pinned :data:`GEMM_ULP_BOUND` before
  any timing.
* **Allreduce** -- the tree-vs-rect schedule charge from the network
  model. These are *simulated* nanoseconds (deterministic, immune to
  runner noise): the per-payload ratio sweep locates the crossover
  where the rectangular schedule's fewer full-payload rounds stop
  paying for themselves against the ring's pipelined chunks.

Usage::

    PYTHONPATH=src python benchmarks/bench_gemm.py [--quick]

``--quick`` shrinks sizes/repeats for the CI smoke job; the committed
JSON comes from a full run.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: on a loaded
# host a multi-threaded GEMM runs at the pace of the busier core, and
# the kernel ratios collapse towards 1.00x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import harness  # noqa: E402

from repro.core.distance import (  # noqa: E402
    GEMM_ULP_BOUND,
    nearest_centroid,
    row_norms,
)
from repro.core.workspace import DistanceWorkspace  # noqa: E402
from repro.dist import SimComm, TEN_GBE, rect_grid  # noqa: E402

OUT_PATH = harness.REPO_ROOT / "BENCH_gemm.json"


# -- kernel strategies ------------------------------------------------


def bench_kernel(n, d, k, repeats):
    x, c = harness.blobs(n, d, k, seed=k)
    ws_blocked = DistanceWorkspace(k, d, kernel="blocked")
    ws_gemm = DistanceWorkspace(k, d, kernel="gemm")

    def before():
        return nearest_centroid(x, c, workspace=ws_blocked)

    def after():
        return nearest_centroid(x, c, workspace=ws_gemm)

    ab, db = before()
    ag, dg = after()
    assert np.array_equal(ab, ag), "strategies disagreed on assignments"
    x_sq = row_norms(x)
    c_sq = row_norms(c)
    tol = GEMM_ULP_BOUND * np.spacing(x_sq + c_sq[ab]) + 2 * np.spacing(
        db**2
    )
    assert np.all(np.abs(db**2 - dg**2) <= tol), "ULP bound violated"
    return harness.ba(before, after, repeats) | {"n": n, "d": d, "k": k}


# -- allreduce schedules ----------------------------------------------


def bench_allreduce(p, k, d, sweep_exponents):
    """Deterministic tree-vs-rect charges from the network model."""
    comm = SimComm(p, TEN_GBE)
    r, c = rect_grid(p)
    rounds = SimComm._rect_rounds(r, c)

    payload = 8 * k * d  # one float64 centroid accumulator
    tree_ns = comm.allreduce_ns(payload, mode="tree")
    rect_ns = comm.allreduce_ns(payload, mode="rect")

    sweep = []
    crossover = None
    for e in sweep_exponents:
        nbytes = 2**e
        t = comm.allreduce_ns(nbytes, mode="tree")
        rc = comm.allreduce_ns(nbytes, mode="rect")
        if crossover is None and rc >= t:
            crossover = nbytes
        sweep.append({
            "payload_bytes": nbytes,
            "tree_ns": t,
            "rect_ns": rc,
            "rect_over_tree": rc / t,
        })
    return {
        "centroid_payload": {
            "p": p, "k": k, "d": d,
            "payload_bytes": payload,
            "grid": [r, c],
            "rect_rounds": rounds,
            "tree_ns": tree_ns,
            "rect_ns": rect_ns,
            # Deterministic sim-time ratio; gated like a speedup.
            "speedup": tree_ns / rect_ns,
        },
        "crossover": {
            "p": p,
            "first_payload_where_tree_wins": crossover,
            "sweep": sweep,
        },
    }


# -- driver ----------------------------------------------------------


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, OUT_PATH, argv)
    if args.quick:
        repeats = 2
        sizes = [dict(n=20_000, d=16, k=10),
                 dict(n=20_000, d=16, k=64),
                 dict(n=8_000, d=16, k=256)]
    else:
        repeats = 5
        sizes = [dict(n=200_000, d=32, k=10),
                 dict(n=200_000, d=32, k=64),
                 dict(n=100_000, d=32, k=256)]

    results = {
        "meta": harness.meta(
            args.quick,
            "kernels: wall-clock seconds, best-of-N; 'before' is "
            "kernel='blocked' (bit-exact reference), 'after' is "
            "kernel='gemm'; assignments asserted identical and "
            "distances ULP-checked before timing. allreduce: "
            "deterministic simulated ns from the 10 GbE network "
            "model, no wall clock involved.",
            repeats=repeats,
        ),
        "kernels": {
            f"nearest_centroid_k{s['k']}": bench_kernel(
                repeats=repeats, **s
            )
            for s in sizes
        },
        "allreduce": bench_allreduce(
            p=16, k=64, d=32, sweep_exponents=range(6, 28)
        ),
    }

    harness.write(results, args.out)
    for name, r in results["kernels"].items():
        print(f"  {name:24s} {r['speedup']:.2f}x "
              f"({r['before_s']:.4f}s -> {r['after_s']:.4f}s)")
    ar = results["allreduce"]["centroid_payload"]
    print(f"  {'allreduce k=64 d=32':24s} {ar['speedup']:.2f}x "
          f"(tree {ar['tree_ns']:.0f}ns -> rect {ar['rect_ns']:.0f}ns)")
    cx = results["allreduce"]["crossover"]
    print(f"  tree reclaims the win at "
          f"{cx['first_payload_where_tree_wins']} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
