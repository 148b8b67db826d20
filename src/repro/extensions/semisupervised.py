"""Semi-supervised k-means++ (Yoder & Priebe, 2016).

A Section 9 extension target. A subset of points carries class labels
in ``0..k-1``; unlabeled points carry ``-1``. Two changes to standard
k-means++/Lloyd's:

* **seeding** -- each labeled class seeds its cluster at the labeled
  mean; the remaining clusters (classes with no labels) are seeded by
  the usual D^2-weighted draw against the already-placed seeds;
* **iteration** -- labeled points keep their label's cluster, so they
  anchor the centroid they voted for; only unlabeled points move.
"""

from __future__ import annotations

import numpy as np

from repro.core.centroids import flat_sums
from repro.core.convergence import ConvergenceCriteria
from repro.core.distance import euclidean, nearest_centroid
from repro.drivers.common import check_rows_finite, check_x_k, reject_rows
from repro.errors import ConvergenceError, DatasetError
from repro.metrics import RunResult
from repro.runtime.mm import MMStep, run_mm_inmemory


def _validate_labels(x: np.ndarray, k: int, labels) -> np.ndarray:
    """Check ``labels`` row by row; returns them as int64."""
    labels = np.asarray(labels)
    if labels.shape != (x.shape[0],):
        raise DatasetError(
            f"labels shape {labels.shape} != ({x.shape[0]},)"
        )
    if labels.dtype.kind not in "iuf":
        raise DatasetError(
            f"labels must be integers, got dtype {labels.dtype}"
        )
    valid = (labels == -1) | (
        (labels >= 0) & (labels < k) & (labels == np.round(labels))
    )
    reject_rows(
        ~valid, "semisupervised",
        f"labels are neither -1 nor an integer in [0, {k})",
    )
    labels = labels.astype(np.int64)
    if not (labels >= 0).any():
        raise ConvergenceError(
            "semisupervised_kmeanspp needs at least one labeled point"
        )
    return labels


def _seed_centroids(
    x: np.ndarray, k: int, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Labeled class means first, then D^2-weighted draws for the
    clusters no label covers."""
    n, d = x.shape
    centroids = np.zeros((k, d))
    seeded = np.zeros(k, dtype=bool)
    for c in range(k):
        members = x[labels == c]
        if members.shape[0]:
            centroids[c] = members.mean(axis=0)
            seeded[c] = True
    # D^2 draw for unseeded clusters against everything placed so far.
    placed = centroids[seeded]
    if placed.shape[0] == 0:  # unreachable given _validate_labels
        raise ConvergenceError("no labeled seeds")
    d2 = euclidean(x, placed).min(axis=1) ** 2
    for c in np.nonzero(~seeded)[0]:
        total = d2.sum()
        idx = (
            int(rng.choice(n, p=d2 / total))
            if total > 0
            else int(rng.integers(0, n))
        )
        centroids[c] = x[idx]
        new_d = euclidean(x, x[idx : idx + 1])[:, 0] ** 2
        np.minimum(d2, new_d, out=d2)
    return centroids


def semisupervised_kmeanspp(
    x: np.ndarray,
    k: int,
    labels: np.ndarray,
    *,
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
) -> RunResult:
    """Seeded k-means with label anchoring (:class:`SemisupervisedMM`
    on the in-memory substrate).

    Parameters
    ----------
    labels:
        Length-n int array: a class in ``[0, k)`` for labeled points,
        ``-1`` for unlabeled ones. At least one point must be labeled;
        fully-labeled input degenerates to computing class means.
    """
    return run_mm_inmemory(
        SemisupervisedMM(x, k, labels, seed=seed, criteria=criteria)
    )


class SemisupervisedMM:
    """Seeded, label-anchored k-means as an MM algorithm.

    *Majorize*: nearest-centroid assignment with anchored labels plus
    per-cluster sums/counts (the additive accumulator). *Minimize*:
    divide on the non-empty clusters. This is the only implementation:
    :func:`semisupervised_kmeanspp` runs it in memory,
    ``run_algorithm("semisupervised", ...)`` on any backend.
    """

    name = "semisupervised"

    def __init__(
        self,
        x: np.ndarray,
        k: int,
        labels: np.ndarray,
        *,
        seed: int = 0,
        criteria: ConvergenceCriteria | None = None,
    ) -> None:
        x = np.asarray(x, dtype=np.float64)
        k = check_x_k(x, k)
        check_rows_finite(x, self.name)
        labels = _validate_labels(x, k, labels)
        self.x = x
        self.labels = labels
        self.n_rows, self.d = x.shape
        self.k = k
        self.crit = criteria or ConvergenceCriteria()
        self.max_iters = self.crit.max_iters
        self.anchored = labels >= 0
        rng = np.random.default_rng(seed)
        self._centroids0 = _seed_centroids(x, k, labels, rng)
        self.reduction_slots = k
        self.state_bytes_per_row = 12  # int32 assignment + f64 mindist
        self.reset()

    def reset(self) -> None:
        self.centroids = self._centroids0.copy()
        self.assignment = np.full(self.n_rows, -1, dtype=np.int32)
        self.mindist = np.zeros(self.n_rows)
        self.iteration = 0
        self._last_n_changed: int | None = None

    def majorize(self) -> MMStep:
        n, k = self.n_rows, self.k
        new_assign, self.mindist = nearest_centroid(
            self.x, self.centroids
        )
        new_assign[self.anchored] = self.labels[self.anchored]
        n_changed = int(
            np.count_nonzero(new_assign != self.assignment)
        )
        self.assignment = new_assign
        self._last_n_changed = n_changed
        counts = np.bincount(self.assignment, minlength=k)
        return MMStep(
            dist_per_row=np.full(n, k, dtype=np.int32),
            needs_data=np.ones(n, dtype=bool),
            n_changed=n_changed,
            payload={
                "sums": flat_sums(self.x, self.assignment, k),
                "counts": counts.astype(np.float64),
            },
        )

    def minimize(self, payload: dict[str, np.ndarray]) -> None:
        sums, counts = payload["sums"], payload["counts"]
        centroids = self.centroids.copy()
        nz = counts > 0
        # Exact-integer f64 counts: the divide is bit-identical to an
        # int64-count divide.
        centroids[nz] = sums[nz] / counts[nz, None]
        self.centroids = centroids
        self.iteration += 1

    def converged(self) -> bool:
        if self._last_n_changed is None:
            return False
        return self.crit.converged(self.n_rows, self._last_n_changed)

    def export_state(self) -> dict:
        return {
            "iteration": self.iteration,
            "centroids": self.centroids,
            "assignment": self.assignment,
            "mindist": self.mindist,
        }

    def restore_state(self, snap: dict) -> None:
        self.iteration = int(snap["iteration"])
        self.centroids = np.array(snap["centroids"], dtype=np.float64)
        self.assignment = np.array(snap["assignment"], dtype=np.int32)
        self.mindist = np.array(snap["mindist"], dtype=np.float64)
        self._last_n_changed = None

    @property
    def model_array(self) -> np.ndarray:
        return self.centroids

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        return loop_result.as_run_result(
            algorithm="mm-semisupervised",
            centroids=self.centroids,
            assignment=self.assignment.copy(),
            inertia=float(
                (self.mindist[~self.anchored] ** 2).sum()
            ),
            memory_breakdown=memory_breakdown,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "n_labeled": int(self.anchored.sum()),
                "algorithm": self.name,
                **(extra_params or {}),
            },
        )
