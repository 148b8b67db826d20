"""Memory-manager plane benchmark.

Three sections, written to ``BENCH_mem.json`` at the repo root:

* **churn** -- wall-clock alloc+write+free cycles of the three hot
  allocation patterns (per-iteration partial-centroid blocks, the
  allreduce staging ladder, and varying-size distance-buffer batches)
  under the numpy manager (fresh allocations each cycle) vs the arena
  manager (size-class pools). ``np.zeros`` is lazy calloc, so every
  cycle *writes* the full buffer on both sides -- the numbers measure
  real allocate-and-touch cost, not mmap bookkeeping.
* **budget** -- deterministic peak-resident-bytes vs byte-cap curve
  and the simulated spill-time-vs-cap sweep for a knori hot loop,
  with bit-identity asserted against the numpy-manager run at every
  cap. Simulated ns, immune to runner noise; informational.
* **tracemalloc** -- peak interpreter bytes of a quick knori run,
  gated separately by ``check_mem_peak.py`` (fails CI if it grows
  more than 20% over the committed baseline).

Usage::

    PYTHONPATH=src python benchmarks/bench_mem.py [--quick]

``--quick`` shrinks sizes/repeats for the CI smoke job; the committed
JSON comes from a full run.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

import harness

from repro.core import ConvergenceCriteria
from repro.drivers.knori import knori
from repro.mem import (
    ArenaManager,
    BudgetedManager,
    NumpyManager,
)

OUT_PATH = harness.REPO_ROOT / "BENCH_mem.json"


# -- allocation churn -------------------------------------------------


def _churn_cycle(mem, shapes, cycles):
    """One timed body: alloc + full write + free, ``cycles`` times."""
    for _ in range(cycles):
        bufs = [
            mem.alloc(s, np.float64, tag="bench/churn") for s in shapes
        ]
        for b in bufs:
            b.fill(1.0)  # touch every byte (np.zeros is lazy calloc)
        for b in bufs:
            mem.free(b)


def bench_partials(k, d, n_threads, cycles, repeats):
    """knord/pll's per-iteration pattern: one (k, d) sums block and a
    (k,) counts block per thread, freed after the funnel merge."""
    shapes = [(k, d)] * n_threads + [(k,)] * n_threads
    numpy_m, arena_m = NumpyManager(), ArenaManager()

    def before():
        _churn_cycle(numpy_m, shapes, cycles)

    def after():
        _churn_cycle(arena_m, shapes, cycles)

    after()  # prime the pool: steady state is what iterations 2+ see
    out = harness.ba(before, after, repeats)
    out |= {"k": k, "d": d, "n_threads": n_threads, "cycles": cycles,
            "arena_backing_allocs": arena_m.counters().backing_allocs}
    return out


def bench_staging(k, d, p, cycles, repeats):
    """The allreduce staging ladder: p staged contributions, pairwise
    in-place adds, every rung freed on the way up."""
    shape = (k, d)
    src = [np.full(shape, float(i + 1)) for i in range(p)]

    def ladder(mem):
        for _ in range(cycles):
            level = []
            for a in src:
                buf = mem.alloc(shape, np.float64, tag="bench/stage")
                np.copyto(buf, a, casting="unsafe")
                level.append(buf)
            while len(level) > 1:
                nxt = []
                for i in range(0, len(level) - 1, 2):
                    np.add(level[i], level[i + 1], out=level[i])
                    mem.free(level[i + 1])
                    nxt.append(level[i])
                if len(level) % 2 == 1:
                    nxt.append(level[-1])
                level = nxt
            mem.free(level[0])

    numpy_m, arena_m = NumpyManager(), ArenaManager()

    def before():
        ladder(numpy_m)

    def after():
        ladder(arena_m)

    after()
    return harness.ba(before, after, repeats) | {
        "k": k, "d": d, "p": p, "cycles": cycles,
    }


def bench_varying_batches(k, batches, repeats):
    """The serve/knors fetch pattern: distance buffers for batches of
    varying row counts. Fresh allocation pays every batch; the
    capacity-preserving ``ensure_capacity`` grow-guard pays once."""
    arena_m = ArenaManager()

    def before():
        for m in batches:
            buf = np.empty((m, k))
            buf.fill(1.0)

    def after():
        buf = None
        for m in batches:
            buf = arena_m.ensure_capacity(
                buf, (m, k), np.float64, tag="bench/dist"
            )
            buf[:m].fill(1.0)

    after()
    return harness.ba(before, after, repeats) | {
        "k": k, "n_batches": len(batches),
        "max_rows": int(max(batches)),
    }


# -- budget curve -----------------------------------------------------


def bench_budget_curve(n, d, k, iters, fractions):
    """Peak resident bytes and simulated spill time vs byte cap, with
    bit-identity asserted against the numpy-manager reference."""
    x, _ = harness.blobs(n, d, k)
    crit = ConvergenceCriteria(max_iters=iters)
    ref = knori(x, k, seed=1, criteria=crit)

    free_m = ArenaManager()
    knori(x, k, seed=1, criteria=crit, mem=free_m)
    uncapped = free_m.counters().peak_bytes
    largest = max(
        b.size_class for b in free_m._live.values()
    ) if free_m._live else 0

    points = []
    for frac in fractions:
        cap = max(int(uncapped * frac), largest)
        m = BudgetedManager(cap)
        got = knori(x, k, seed=1, criteria=crit, mem=m)
        assert np.array_equal(ref.centroids, got.centroids), (
            f"budget cap {cap} changed the centroids"
        )
        assert ref.inertia == got.inertia
        c = m.counters()
        assert c.peak_bytes <= cap, "resident peak exceeded the cap"
        points.append({
            "cap_fraction": frac,
            "cap_bytes": cap,
            "peak_resident_bytes": c.peak_bytes,
            "spill_count": c.spill_count,
            "spill_bytes": c.spill_bytes,
            "spill_ns": c.spill_ns,
        })
    return {
        "n": n, "d": d, "k": k, "iters": iters,
        "uncapped_peak_bytes": uncapped,
        "largest_block_bytes": largest,
        "bit_identical_at_every_cap": True,
        "points": points,
    }


# -- interpreter peak -------------------------------------------------


def bench_tracemalloc(n, d, k, iters):
    """Peak interpreter bytes of one knori run (CI smoke gate)."""
    x, _ = harness.blobs(n, d, k)
    tracemalloc.start()
    knori(x, k, seed=1,
          criteria=ConvergenceCriteria(max_iters=iters))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"n": n, "d": d, "k": k, "iters": iters,
            "peak_bytes": int(peak)}


# -- driver ----------------------------------------------------------


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, OUT_PATH, argv)

    # Block sizes sit above the allocator's mmap threshold (~128 KiB):
    # that is the regime where fresh allocation pays page faults every
    # cycle and pooling wins. Sub-threshold blocks are pool-neutral
    # (malloc already recycles them) and are not what the gate tracks.
    if args.quick:
        repeats = 3
        partials = dict(k=128, d=256, n_threads=8, cycles=20)
        staging = dict(k=64, d=1024, p=16, cycles=10)
        batch_rng = np.random.default_rng(9)
        batches = batch_rng.integers(1024, 16384, size=60)
        budget = dict(n=4000, d=16, k=10, iters=4,
                      fractions=[1.0, 0.8, 0.6, 0.5])
        tm = dict(n=4000, d=16, k=10, iters=4)
    else:
        repeats = 5
        partials = dict(k=128, d=256, n_threads=48, cycles=60)
        staging = dict(k=64, d=1024, p=64, cycles=30)
        batch_rng = np.random.default_rng(9)
        batches = batch_rng.integers(4096, 65536, size=300)
        budget = dict(n=50_000, d=32, k=16, iters=6,
                      fractions=[1.0, 0.8, 0.6, 0.5, 0.4])
        tm = dict(n=50_000, d=32, k=16, iters=6)

    results = {
        "meta": harness.meta(
            args.quick,
            "churn: wall-clock seconds, best-of-N; 'before' is "
            "the numpy manager (fresh allocation every cycle), "
            "'after' is the arena manager (size-class pools). "
            "Every cycle writes the full buffer on both sides. "
            "budget: deterministic simulated spill charges; "
            "results asserted bit-identical at every cap. "
            "tracemalloc: peak interpreter bytes, gated by "
            "check_mem_peak.py at +20%.",
            repeats=repeats,
        ),
        "churn": {
            "partials": bench_partials(repeats=repeats, **partials),
            "allreduce_staging": bench_staging(
                repeats=repeats, **staging
            ),
            "varying_batches": bench_varying_batches(
                k=16, batches=batches, repeats=repeats
            ),
        },
        "budget": bench_budget_curve(**budget),
        "tracemalloc": bench_tracemalloc(**tm),
    }

    harness.write(results, args.out)
    for name, r in results["churn"].items():
        print(f"  churn/{name:20s} {r['speedup']:.2f}x "
              f"({r['before_s']:.4f}s -> {r['after_s']:.4f}s)")
    b = results["budget"]
    for p in b["points"]:
        print(f"  cap {p['cap_fraction']:.0%}: resident "
              f"{p['peak_resident_bytes'] / 1e6:.2f} MB, "
              f"{p['spill_count']} spills, "
              f"{p['spill_ns'] / 1e6:.3f} ms simulated")
    print(f"  tracemalloc peak "
          f"{results['tracemalloc']['peak_bytes'] / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
