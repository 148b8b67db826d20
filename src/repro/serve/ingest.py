"""Streaming ingest: mini-batch k-means as a first-class MM algorithm.

This is the only mini-batch implementation: the
:func:`~repro.baselines.minibatch.minibatch_kmeans` baseline runs it
in memory. Each ``majorize`` samples one seeded mini-batch, assigns it
with the shared :class:`~repro.core.workspace.DistanceWorkspace`, and
folds it into the centroids with Sculley's per-center learning rates
via the vectorized :func:`repro.baselines.minibatch.minibatch_update`.
The numerics are global and sequential -- one RNG stream, one centroid
array -- so the model is bit-identical across the InMemory / Sem /
Distributed backends by construction.

What the substrates add is the hardware story: ``needs_data`` is the
sampled batch, so the SEM backend fetches *only the arriving rows*
each step -- exactly the I/O shape of a streaming ingest path -- and
the RNG state rides inside checkpoint format v4 (the PCG64 state dict
is JSON-safe), so a crash-restored run resumes the sample stream
mid-sequence and stays bit-identical to the uninterrupted one.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.minibatch import minibatch_update
from repro.core.centroids import flat_sums
from repro.core.distance import nearest_centroid, rows_to_centroids
from repro.core.workspace import DistanceWorkspace
from repro.errors import ConfigError
from repro.metrics import RunResult
from repro.runtime.mm import MMStep

DEFAULT_N_STEPS = 100


class MiniBatchMM:
    """Sculley mini-batch k-means on the MM plane.

    ``majorize`` both advances the model and installs it (the KmeansMM
    precedent), exposing the batch's per-cluster sums/counts as the
    accumulator payload so the distributed allreduce prices the same
    traffic a sharded implementation would move. ``minimize`` is a
    no-op. The step budget comes from ``n_steps`` (or
    ``criteria.max_iters`` when driven through the generic CLI path);
    like the baseline, the run never reports convergence -- SGD runs
    its budget.
    """

    name = "minibatch"

    def __init__(
        self,
        x: np.ndarray,
        k: int,
        *,
        batch_size: int = 1024,
        n_steps: int | None = None,
        init: str | np.ndarray = "random",
        seed: int = 0,
        criteria: Any = None,
        kernel: str = "blocked",
    ) -> None:
        from repro.drivers.common import (
            check_rows_finite,
            check_x_k,
            resolve_init,
        )

        x = np.asarray(x, dtype=np.float64)
        k = check_x_k(x, k)
        check_rows_finite(x, self.name)
        n, d = x.shape
        if batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if n_steps is None:
            n_steps = (
                criteria.max_iters if criteria is not None
                else DEFAULT_N_STEPS
            )
        if n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
        self.x = x
        self.k = k
        self.n_rows = n
        self.d = d
        self.batch_size = batch_size
        self.n_steps = n_steps
        self.max_iters = n_steps
        self.seed = seed
        self.reduction_slots = k
        self.state_bytes_per_row = 4  # int32 last-seen assignment
        self._centroids0 = resolve_init(x, k, init, seed)
        self._workspace = DistanceWorkspace(k, d, kernel=kernel)
        self.kernel = self._workspace.kernel
        self.centroids = self._centroids0.copy()
        self.counts = np.zeros(k, dtype=np.int64)
        self.assignment = np.full(n, -1, dtype=np.int32)
        self._rng = np.random.default_rng(seed)
        self._step = 0

    def majorize(self) -> MMStep:
        n, k = self.n_rows, self.k
        batch_idx = self._rng.integers(
            0, n, size=min(self.batch_size, n)
        )
        batch = self.x[batch_idx]
        assign, _ = nearest_centroid(
            batch, self.centroids, workspace=self._workspace
        )
        changed = int(
            np.count_nonzero(self.assignment[batch_idx] != assign)
        )
        self.assignment[batch_idx] = assign
        payload = {
            "sums": flat_sums(batch, assign, k),
            "counts": np.bincount(assign, minlength=k).astype(
                np.float64
            ),
        }
        # The workspace caches ||c||^2 by array identity, so the fold
        # goes into a fresh array rather than mutating in place.
        new_centroids = self.centroids.copy()
        minibatch_update(new_centroids, self.counts, batch, assign)
        self.centroids = new_centroids
        self._step += 1
        return MMStep(
            dist_per_row=np.bincount(batch_idx, minlength=n) * k,
            needs_data=np.bincount(batch_idx, minlength=n) > 0,
            n_changed=changed,
            payload=payload,
        )

    def minimize(self, payload: dict[str, np.ndarray]) -> None:
        """No-op: ``majorize`` already folded the batch (the Sculley
        recurrence is order-dependent, so the fold stays sequential);
        the payload priced the collective."""

    def converged(self) -> bool:
        return False  # SGD-style: runs for the step budget

    def reset(self) -> None:
        self.centroids = self._centroids0.copy()
        self.counts[:] = 0
        self.assignment[:] = -1
        self._rng = np.random.default_rng(self.seed)
        self._step = 0

    def export_state(self) -> dict:
        return {
            "iteration": self._step,
            "centroids": self.centroids.copy(),
            "counts": self.counts.copy(),
            "assignment": self.assignment.copy(),
            "rng": self._rng.bit_generator.state,
        }

    def restore_state(self, snap: dict) -> None:
        self.centroids = np.array(snap["centroids"], dtype=np.float64)
        self.counts = np.array(snap["counts"], dtype=np.int64)
        self.assignment = np.array(snap["assignment"], dtype=np.int32)
        self._rng = np.random.default_rng()
        self._rng.bit_generator.state = snap["rng"]
        self._step = int(snap["iteration"])

    @property
    def model_array(self) -> np.ndarray:
        return self.centroids

    def result(
        self,
        loop_result: Any,
        *,
        memory_breakdown: dict[str, int] | None = None,
        extra_params: dict | None = None,
    ) -> RunResult:
        final_assign, _ = nearest_centroid(
            self.x, self.centroids, workspace=self._workspace
        )
        dist = rows_to_centroids(self.x, self.centroids, final_assign)
        return loop_result.as_run_result(
            algorithm="mm-minibatch",
            centroids=self.centroids,
            assignment=final_assign,
            inertia=float((dist**2).sum()),
            memory_breakdown=memory_breakdown,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "batch_size": self.batch_size,
                "n_steps": self.n_steps, "algorithm": self.name,
                **(extra_params or {}),
            },
        )
