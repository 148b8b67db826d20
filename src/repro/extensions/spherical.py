"""Spherical k-means: cosine-similarity clustering on the unit sphere.

The first Section 9 extension target (Hornik et al., JSS 2012). Rows
are L2-normalized; a point belongs to the centroid with the largest
dot product; centroids are the normalized means of their members.
Maximizing total cosine similarity is equivalent to Lloyd's on the
sphere, so the same super-phase structure (and a dot-product analogue
of per-thread accumulation) applies.
"""

from __future__ import annotations

import numpy as np

from repro.core.centroids import flat_sums
from repro.core.convergence import ConvergenceCriteria
from repro.core.init import init_centroids
from repro.drivers.common import check_rows_finite, check_x_k
from repro.errors import DatasetError
from repro.metrics import RunResult
from repro.runtime.mm import MMStep, run_mm_inmemory


def _normalize_rows(x: np.ndarray, name: str) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if np.any(norms == 0):
        raise DatasetError(
            f"{name} contains zero vectors; spherical k-means is "
            "undefined for them"
        )
    return x / norms[:, None]


def spherical_kmeans(
    x: np.ndarray,
    k: int,
    *,
    init: str | np.ndarray = "kmeans++",
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
) -> RunResult:
    """Cluster directions: k-means under cosine similarity
    (:class:`SphericalMM` on the in-memory substrate).

    Returns a :class:`RunResult` whose ``inertia`` field holds the
    *negative total cosine similarity* (so that, like Euclidean
    inertia, smaller is better and it is non-increasing).
    """
    return run_mm_inmemory(
        SphericalMM(x, k, init=init, seed=seed, criteria=criteria)
    )


class SphericalMM:
    """Spherical k-means as an MM algorithm.

    *Majorize*: dot-product assignment plus per-cluster direction sums
    (the additive accumulator). *Minimize*: renormalize the sums onto
    the unit sphere. This is the only implementation:
    :func:`spherical_kmeans` runs it in memory,
    ``run_algorithm("spherical", ...)`` on any backend.
    """

    name = "spherical"

    def __init__(
        self,
        x: np.ndarray,
        k: int,
        *,
        init: str | np.ndarray = "kmeans++",
        seed: int = 0,
        criteria: ConvergenceCriteria | None = None,
    ) -> None:
        x = np.asarray(x, dtype=np.float64)
        k = check_x_k(x, k)
        check_rows_finite(x, self.name)
        self.crit = criteria or ConvergenceCriteria()
        self.max_iters = self.crit.max_iters
        self.xn = _normalize_rows(x, "x")
        self.n_rows, self.d = self.xn.shape
        self.k = k
        if isinstance(init, np.ndarray):
            c0 = np.array(init, dtype=np.float64, copy=True)
            if c0.shape != (k, self.d):
                raise DatasetError(
                    f"init centroids shape {c0.shape} != ({k}, {self.d})"
                )
        else:
            c0 = init_centroids(self.xn, k, init, seed=seed)
        self._centroids0 = _normalize_rows(c0, "init")
        self.reduction_slots = k
        self.state_bytes_per_row = 12  # int32 assignment + f64 sim
        self.reset()

    def reset(self) -> None:
        self.centroids = self._centroids0.copy()
        self.assignment = np.full(self.n_rows, -1, dtype=np.int32)
        self.sims = np.zeros(self.n_rows)
        self.iteration = 0
        self._last_n_changed: int | None = None

    def majorize(self) -> MMStep:
        n, k = self.n_rows, self.k
        dots = self.xn @ self.centroids.T
        new_assign = np.argmax(dots, axis=1).astype(np.int32)
        self.sims = dots[np.arange(n), new_assign]
        n_changed = int(
            np.count_nonzero(new_assign != self.assignment)
        )
        self.assignment = new_assign
        self._last_n_changed = n_changed
        return MMStep(
            dist_per_row=np.full(n, k, dtype=np.int32),
            needs_data=np.ones(n, dtype=bool),
            n_changed=n_changed,
            payload={"sums": flat_sums(self.xn, self.assignment, k)},
        )

    def minimize(self, payload: dict[str, np.ndarray]) -> None:
        sums = payload["sums"]
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
        centroids = self.centroids.copy()
        nonzero = norms > 1e-12
        centroids[nonzero] = sums[nonzero] / norms[nonzero, None]
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
            "sims": self.sims,
        }

    def restore_state(self, snap: dict) -> None:
        self.iteration = int(snap["iteration"])
        self.centroids = np.array(snap["centroids"], dtype=np.float64)
        self.assignment = np.array(snap["assignment"], dtype=np.int32)
        self.sims = np.array(snap["sims"], dtype=np.float64)
        self._last_n_changed = None

    @property
    def model_array(self) -> np.ndarray:
        return self.centroids

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        return loop_result.as_run_result(
            algorithm="mm-spherical",
            centroids=self.centroids,
            assignment=self.assignment.copy(),
            inertia=float(-self.sims.sum()),
            memory_breakdown=memory_breakdown,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "metric": "cosine", "algorithm": self.name,
                **(extra_params or {}),
            },
        )
