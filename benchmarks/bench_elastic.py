"""Elastic-plane benchmark: what notice, autoscaling and fair share buy.

Three sections, written to ``BENCH_elastic.json`` at the repo root.
Everything here is **simulated time** -- deterministic, immune to
runner noise -- and every run is asserted bit-identical to its fixed,
event-free twin before any timing is reported.

* **preemption** -- semi-external knors hit by a spot preemption, with
  notice vs without. The metric is *executed* simulated work (every
  iteration boundary the engine ran, including ones a recovery later
  replayed -- the final record stream hides redone work by design).
  With notice the victim flushes a checkpoint inside the grace window
  and recovery resumes at the next iteration; with zero notice it
  replays from the last periodic checkpoint (here: from scratch).
  ``speedup`` = zero-notice executed time / noticed executed time.
* **autoscale** -- knord under a leave-heavy membership plan (spot
  churn drains shards onto survivors, doubling some machines' load)
  with and without the feedback autoscaler. Requested capacity lands
  only after the policy's simulated provisioning latency, then the
  joiners take the doubled shards back. ``speedup`` = fixed-fleet
  total simulated time / autoscaled total simulated time.
* **fair_share** -- informational (no gate): two tenants at 3:1
  weights interleaved over one simulated cluster; reports the grant
  interleaving, its determinism across a re-run, and the observed
  boundary ratio inside the window where both tenants were active.

Usage::

    PYTHONPATH=src python benchmarks/bench_elastic.py [--quick]

``--quick`` shrinks sizes for the CI smoke job; the committed JSON
comes from a full run. Gate: ``check_bench_regression.py`` against
``benchmarks/baselines/BENCH_elastic.quick.json``.
"""

from __future__ import annotations

import tempfile

import numpy as np

import harness

from repro.core import ConvergenceCriteria
from repro.drivers.knord import knord, knord_loop
from repro.drivers.knors import knors
from repro.elastic import (
    Autoscaler,
    AutoscalerPolicy,
    FairShareScheduler,
    MembershipEvent,
    MembershipPlan,
    TenantJob,
    TenantSpec,
)
from repro.runtime import RunObserver
from repro.simhw import run_cost_usd

OUT_PATH = harness.REPO_ROOT / "BENCH_elastic.json"


class ExecutedWork(RunObserver):
    """Totals every boundary the engine actually ran.

    Recovery rewinds the record list, so the final stream hides
    replayed iterations; ``on_iteration_end`` fires once per executed
    boundary and sees them all.
    """

    def __init__(self) -> None:
        self.boundaries = 0
        self.sim_ns = 0.0

    def on_iteration_end(self, iteration, record):
        self.boundaries += 1
        self.sim_ns += record.sim_ns


def make_data(n, d, seed=0):
    # Unstructured noise converges slowly, leaving room for the
    # elastic events to land mid-run.
    return np.random.default_rng(seed).normal(size=(n, d))


# -- preemption: notice vs zero notice --------------------------------


def bench_preemption(n, d, k, max_iters, preempt_at, notice):
    x = make_data(n, d)
    crit = ConvergenceCriteria(max_iters=max_iters)

    def run(plan):
        work = ExecutedWork()
        with tempfile.TemporaryDirectory() as td:
            result = knors(
                x, k, seed=1, criteria=crit,
                checkpoint_dir=td, checkpoint_interval=10 * max_iters,
                membership=plan, observers=[work],
            )
        return result, work

    clean, _ = run(None)
    zero, zero_work = run(MembershipPlan.from_schedule(
        [MembershipEvent("preempt", preempt_at, notice=0)]
    ))
    noticed, noticed_work = run(MembershipPlan.from_schedule(
        [MembershipEvent("preempt", preempt_at, notice=notice)]
    ))
    for res in (zero, noticed):
        assert np.array_equal(clean.centroids, res.centroids), (
            "preemption changed the clustering"
        )
        assert np.array_equal(clean.assignment, res.assignment)
    return {
        "n": n, "d": d, "k": k, "max_iters": max_iters,
        "preempt_at": preempt_at, "notice": notice,
        "committed_iters": noticed.iterations,
        "zero_notice_boundaries": zero_work.boundaries,
        "noticed_boundaries": noticed_work.boundaries,
        "before_s": zero_work.sim_ns / 1e9,
        "after_s": noticed_work.sim_ns / 1e9,
        "speedup": zero_work.sim_ns / noticed_work.sim_ns,
        "bit_identical": True,
    }


# -- autoscale: spot churn with and without the feedback loop ---------


def bench_autoscale(n, d, k, n_machines, max_iters, leave_at):
    x = make_data(n, d)
    crit = ConvergenceCriteria(max_iters=max_iters)

    def churn_plan():
        # Stateful: a fresh instance per run.
        return MembershipPlan.from_schedule([
            MembershipEvent("leave", leave_at, machine=n_machines - 1),
            MembershipEvent("leave", leave_at, machine=n_machines - 2),
        ])

    clean = knord(x, k, n_machines=n_machines, seed=1, criteria=crit)
    balanced_iter_s = float(
        np.mean([r.sim_ns for r in clean.records])
    ) / 1e9

    fixed = knord(
        x, k, n_machines=n_machines, seed=1, criteria=crit,
        membership=churn_plan(),
    )
    policy = AutoscalerPolicy(
        target_iter_s=1.2 * balanced_iter_s,
        provision_s=3.0 * balanced_iter_s,
        cooldown_iters=2, warmup_iters=2, step=2,
        max_machines=n_machines,
    )
    scaler = Autoscaler(policy)
    scaled = knord(
        x, k, n_machines=n_machines, seed=1, criteria=crit,
        membership=churn_plan(), autoscaler=scaler,
    )
    for res in (fixed, scaled):
        assert np.array_equal(clean.centroids, res.centroids), (
            "churn/autoscale changed the clustering"
        )
    fixed_s = sum(r.sim_ns for r in fixed.records) / 1e9
    scaled_s = sum(r.sim_ns for r in scaled.records) / 1e9
    machine_hours = {
        label: sum(
            r.sim_ns / 1e9 * r.machines_alive for r in res.records
        ) / 3600.0
        for label, res in (("fixed", fixed), ("autoscaled", scaled))
    }
    return {
        "n": n, "d": d, "k": k, "n_machines": n_machines,
        "max_iters": max_iters, "leave_at": leave_at,
        "balanced_iter_s": balanced_iter_s,
        "target_iter_s": policy.target_iter_s,
        "provision_s": policy.provision_s,
        "scale_decisions": len(scaler.decisions),
        "before_s": fixed_s,
        "after_s": scaled_s,
        "speedup": fixed_s / scaled_s,
        "cost": {
            label: {
                "machine_hours": hours,
                "on_demand_usd": run_cost_usd(
                    hours * 3600.0, 1
                ),
                "spot_usd": run_cost_usd(hours * 3600.0, 1, spot=True),
            }
            for label, hours in machine_hours.items()
        },
        "bit_identical": True,
    }


# -- fair share: deterministic 3:1 interleave -------------------------


def bench_fair_share(n, d, k, n_machines, max_iters):
    x = make_data(n, d)
    crit = ConvergenceCriteria(max_iters=max_iters)
    specs = [
        TenantSpec("prod", weight=3.0),
        TenantSpec("batch", weight=1.0),
    ]

    def run_once():
        jobs = []
        for spec in specs:
            loop, _ = knord_loop(
                x, k, n_machines=n_machines, seed=1, criteria=crit
            )
            jobs.append(TenantJob(spec, loop))
        scheduler = FairShareScheduler(jobs)
        outcomes = scheduler.run()
        return scheduler.grants, outcomes

    grants, outcomes = run_once()
    grants2, _ = run_once()
    # The window where both tenants are still active is where the
    # weights bind; after one finishes, the other gets every slot.
    last = {name: max(
        i for i, (g, _) in enumerate(grants) if g == name
    ) for name in ("prod", "batch")}
    window = min(last.values()) + 1
    in_window = [g for g, _ in grants[:window]]
    prod_share = in_window.count("prod") / window
    return {
        "n": n, "d": d, "k": k, "n_machines": n_machines,
        "weights": {s.name: s.weight for s in specs},
        "boundaries": {
            name: o.boundaries for name, o in outcomes.items()
        },
        "sim_s": {
            name: o.sim_ns / 1e9 for name, o in outcomes.items()
        },
        "contended_window": window,
        "prod_share_in_window": prod_share,
        "deterministic_interleave": grants == grants2,
    }


# -- driver ----------------------------------------------------------


def main(argv=None) -> int:
    args = harness.parse_args(__doc__, OUT_PATH, argv)

    # The autoscale workload must be compute-dominated: with tiny
    # shards the allreduce latency dwarfs per-machine compute and
    # losing ranks makes iterations *faster*, so nothing triggers.
    if args.quick:
        preempt = dict(n=2000, d=8, k=6, max_iters=12,
                       preempt_at=6, notice=2)
        autoscale = dict(n=24000, d=32, k=12, n_machines=6,
                         max_iters=24, leave_at=2)
        fair = dict(n=1500, d=8, k=5, n_machines=4, max_iters=10)
    else:
        preempt = dict(n=12000, d=16, k=10, max_iters=20,
                       preempt_at=12, notice=2)
        autoscale = dict(n=48000, d=32, k=16, n_machines=8,
                         max_iters=30, leave_at=3)
        fair = dict(n=8000, d=16, k=8, n_machines=6, max_iters=15)

    results = {
        "meta": harness.meta(
            args.quick,
            "All sections are deterministic simulated time; every "
            "elastic run is asserted bit-identical to its "
            "event-free twin first. preemption/autoscale carry "
            "gated speedups; fair_share is informational.",
        ),
        "preemption": bench_preemption(**preempt),
        "autoscale": bench_autoscale(**autoscale),
        "fair_share": bench_fair_share(**fair),
    }

    harness.write(results, args.out)
    p = results["preemption"]
    print(f"  preemption: notice saves "
          f"{p['zero_notice_boundaries'] - p['noticed_boundaries']} "
          f"replayed boundaries -> {p['speedup']:.2f}x")
    a = results["autoscale"]
    print(f"  autoscale:  churned fleet {a['before_s']:.4f}s -> "
          f"{a['after_s']:.4f}s with scaler ({a['speedup']:.2f}x, "
          f"{a['scale_decisions']} decisions)")
    f = results["fair_share"]
    print(f"  fair share: prod got {f['prod_share_in_window']:.0%} of "
          f"the contended window (weights 3:1), deterministic="
          f"{f['deterministic_interleave']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
