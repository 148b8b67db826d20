"""Bring your own algorithm to the NUMA substrate (Section 9's goal).

Run:  python examples/custom_algorithm.py

The paper's future-work endgame is a generalized framework where users
"implement custom algorithms and benefit from our NUMA and external
memory optimizations". Here that interface is the MM plane
(:mod:`repro.runtime.mm`): implement :class:`MMAlgorithm` and
:func:`run_mm` runs it in memory, semi-externally or distributed.
This example does that twice:

1. runs EM for a Gaussian mixture via the built-in :class:`GmmMM`;
2. defines a brand-new algorithm -- per-cluster trimmed k-means, which
   ignores the farthest 5% of points when updating centroids -- and
   runs it on the same three substrates without writing any driver
   code.
"""

import numpy as np

from repro.core.distance import nearest_centroid
from repro.core.init import init_centroids
from repro.data import rand_multivariate
from repro.extensions.gmm import GmmMM
from repro.runtime.mm import MMStep, run_mm

BACKENDS = ("inmemory", "sem", "distributed")


class TrimmedKmeans:
    """k-means that trims the farthest fraction of points per update.

    Rows in the trimmed tail still pay assignment compute but are
    excluded from the centroid means -- a simple robust-clustering
    variant, here only to show the :class:`MMAlgorithm` contract.

    The trimmed mean is not additive across row subsets (the cutoff is
    a global quantile), so ``majorize`` computes the update over all
    rows and returns an empty payload, and ``minimize`` is a no-op --
    the same pattern as :class:`~repro.runtime.mm.KmeansMM`.
    """

    name = "trimmed-kmeans"

    def __init__(self, x, k, *, trim=0.05, seed=0, max_iters=50):
        self.x = np.asarray(x, dtype=np.float64)
        self.n_rows, self.d = self.x.shape
        self.k = k
        self.trim = trim
        self.max_iters = max_iters
        self.reduction_slots = k
        self.state_bytes_per_row = 12  # assignment + distance
        self._c0 = init_centroids(self.x, k, "kmeans++", seed=seed)
        self.reset()

    def reset(self):
        self.centroids = self._c0.copy()
        self.assignment = np.full(self.n_rows, -1, dtype=np.int32)
        self.iteration = 0
        self._changed = -1

    def majorize(self):
        assign, dist = nearest_centroid(self.x, self.centroids)
        keep = dist <= np.quantile(dist, 1.0 - self.trim)
        new = self.centroids.copy()
        for c in range(self.k):
            members = self.x[keep & (assign == c)]
            if members.shape[0]:
                new[c] = members.mean(axis=0)
        self._changed = int((assign != self.assignment).sum())
        self.assignment = assign
        self.centroids = new
        self.iteration += 1
        return MMStep(
            dist_per_row=np.full(self.n_rows, self.k, dtype=np.int64),
            needs_data=np.ones(self.n_rows, dtype=bool),
            n_changed=self._changed,
            payload={},
        )

    def minimize(self, payload):
        """No-op: ``majorize`` already installed the trimmed means."""

    def converged(self):
        return self._changed == 0

    def export_state(self):
        return {
            "iteration": self.iteration,
            "centroids": self.centroids,
            "assignment": self.assignment,
        }

    def restore_state(self, snap):
        self.iteration = int(snap["iteration"])
        self.centroids = np.array(snap["centroids"], dtype=np.float64)
        self.assignment = np.array(snap["assignment"], dtype=np.int32)
        self._changed = -1

    @property
    def model_array(self):
        return self.centroids

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        _, dist = nearest_centroid(self.x, self.centroids)
        return loop_result.as_run_result(
            algorithm=f"mm-{self.name}",
            centroids=self.centroids,
            assignment=self.assignment.copy(),
            inertia=float(dist.sum()),
            memory_breakdown=memory_breakdown,
            params={"k": self.k, "trim": self.trim,
                    **(extra_params or {})},
        )


def describe(backend, res):
    read_mb = sum(r.bytes_read for r in res.records) / 1e6
    net_mb = sum(r.network_bytes for r in res.records) / 1e6
    return (
        f"   {backend:>11}: {res.iterations} iters, "
        f"converged={res.converged}, sim {res.sim_seconds:.4f}s, "
        f"{read_mb:.0f} MB read from SSD, {net_mb:.3f} MB on the wire"
    )


def main() -> None:
    x = rand_multivariate(60_000, 8, n_components=5, seed=3)
    # Inject 2% gross outliers for the trimmed variant to shrug off.
    rng = np.random.default_rng(0)
    out_idx = rng.choice(x.shape[0], x.shape[0] // 50, replace=False)
    x[out_idx] += rng.normal(scale=50.0, size=(out_idx.size, 8))

    print("1) EM for a 5-component GMM (GmmMM):")
    for backend in BACKENDS:
        res = run_mm(GmmMM(x, 5, seed=1, max_iters=20), backend)
        print(
            describe(backend, res)
            + f", mean log-likelihood {res.params['log_likelihood']:.3f}"
        )

    print("\n2) custom TrimmedKmeans:")
    models = []
    for backend in BACKENDS:
        res = run_mm(TrimmedKmeans(x, 5, trim=0.05, seed=1), backend)
        models.append(res.centroids)
        print(describe(backend, res))
    assert all(np.array_equal(models[0], m) for m in models[1:])
    print(
        "\nSame algorithm class, three substrates, identical models, "
        "zero driver code -- the Section 9 generalized-framework "
        "claim, demonstrated."
    )


if __name__ == "__main__":
    main()
