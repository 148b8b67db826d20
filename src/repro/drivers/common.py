"""Shared driver plumbing: scheduler lookup, pruning loops, accounting."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core import (
    ConvergenceCriteria,
    elkan_init,
    elkan_iteration,
    full_iteration,
    init_centroids,
    mti_init,
    mti_iteration,
)
from repro.core.distance import BLOCK_BYTES, row_norms, rows_to_centroids
from repro.core.empty import check_empty_cluster_policy
from repro.core.mti import MtiStep, mti_epilogue, mti_prologue
from repro.core.workspace import DistanceWorkspace
from repro.errors import (
    ConfigError,
    ConvergenceError,
    DatasetError,
    EmptyClusterError,
)
from repro.sched import (
    FifoScheduler,
    NumaAwareScheduler,
    StaticScheduler,
)

SCHEDULERS = {
    "numa_aware": NumaAwareScheduler,
    "fifo": FifoScheduler,
    "static": StaticScheduler,
}

#: Accepted values for the ``pruning`` driver parameter.
PRUNING_MODES = ("mti", "elkan", None)


def make_scheduler(name: str):
    """Instantiate a scheduler by its Figure 5 name."""
    if name not in SCHEDULERS:
        raise ConfigError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name]()


def check_pruning(pruning: str | None) -> str | None:
    """Validate a ``pruning`` argument and pass it through."""
    if pruning not in PRUNING_MODES:
        raise ConfigError(
            f"pruning must be one of {PRUNING_MODES}, got {pruning!r}"
        )
    return pruning


def check_k(k, name: str = "k") -> int:
    """Validate a count's type (numpy integers accepted)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {name}={k!r}")
    return int(k)


def check_x_k(x: np.ndarray, k) -> int:
    """The ``(x, k)`` contract every MM algorithm shares: ``x`` is a
    2-D matrix of n rows and ``k`` an integer in ``[1, n]``.

    A non-integer ``k`` raises :class:`ConfigError`, a non-2-D ``x`` or
    ``k > n`` :class:`DatasetError`, ``k < 1``
    :class:`ConvergenceError`. Returns ``k`` as a Python int.
    """
    k = check_k(k)
    if x.ndim != 2:
        raise DatasetError(f"x must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if k > n:
        raise DatasetError(
            f"k={k} clusters cannot exceed the n={n} data rows"
        )
    if k < 1:
        raise ConvergenceError(f"k={k} invalid for n={n}")
    return k


def _rows_phrase(bad: np.ndarray, what: str, *,
                 row_ids: np.ndarray | None = None) -> str | None:
    """``"3 <what> (rows [...])"`` naming the first eight rows the mask
    ``bad`` flags, or ``None`` when it flags none (see
    :func:`reject_rows` for ``row_ids``)."""
    rows = np.flatnonzero(bad)
    if rows.size == 0:
        return None
    if row_ids is not None:
        rows = np.unique(np.asarray(row_ids)[rows])
    more = f" (+{rows.size - 8} more)" if rows.size > 8 else ""
    return f"{rows.size} {what} (rows {rows[:8].tolist()}{more})"


def reject_rows(bad: np.ndarray, name: str, what: str,
                hint: str = "", *,
                row_ids: np.ndarray | None = None) -> None:
    """Raise :class:`DatasetError` when the row mask ``bad`` flags any
    row, naming the first eight: ``"<name>: 3 <what> (rows [...])"``.
    ``bad`` covers every row, or the rows ``row_ids`` (a gathered
    batch; each distinct id is named once)."""
    phrase = _rows_phrase(bad, what, row_ids=row_ids)
    if phrase is not None:
        raise DatasetError(f"{name}: {phrase}{hint}")


def check_rows_finite(x: np.ndarray, name: str) -> None:
    """Reject NaN/inf cells, naming the offending rows (the loader's
    contract: a non-finite cell poisons every distance it touches)."""
    reject_rows(
        ~np.isfinite(x).all(axis=1), name, "rows contain NaN/inf",
        "; clean the data before fitting",
    )


def check_row_dist_finite(
    x: np.ndarray, row_dist: np.ndarray, name: str, *,
    row_ids: np.ndarray | None = None,
) -> None:
    """:func:`check_rows_finite` without a pass over ``x``, plus rows
    whose squared norm overflows.

    ``row_dist`` is each row's distance to its nearest centroid from a
    full assignment pass. A NaN/inf cell makes every distance of its
    row non-finite, and so does a row of finite cells whose squared
    norm ``|x|^2`` overflows float64 (the distance kernels expand
    ``|x - c|^2`` through it). So only rows with a non-finite distance
    can be bad; just those are read back (in blocks, so a memmapped
    ``x`` is never copied whole), checked cell by cell and then for an
    overflowing norm, and one error names both kinds. A row that only
    looks bad -- a non-finite centroid makes every distance NaN -- is
    not named. When ``x`` holds rows gathered from the global ids
    ``row_ids``, the error names global row ids.
    """
    suspect = np.flatnonzero(~np.isfinite(row_dist))
    if suspect.size == 0:
        return
    cells = np.zeros(x.shape[0], dtype=bool)
    norms = np.zeros(x.shape[0], dtype=bool)
    rows = max(1, BLOCK_BYTES // (8 * x.shape[1]))
    for lo in range(0, suspect.size, rows):
        idx = suspect[lo:lo + rows]
        xb = np.asarray(x[idx], dtype=np.float64)
        finite = np.isfinite(xb).all(axis=1)
        cells[idx] = ~finite
        with np.errstate(over="ignore", invalid="ignore"):
            norms[idx] = finite & ~np.isfinite(row_norms(xb))
    phrases = [
        phrase for phrase in (
            _rows_phrase(cells, "rows contain NaN/inf", row_ids=row_ids),
            _rows_phrase(
                norms, "rows have a squared norm that overflows float64",
                row_ids=row_ids,
            ),
        ) if phrase is not None
    ]
    if phrases:
        raise DatasetError(
            f"{name}: {'; '.join(phrases)}; clean the data before fitting"
        )


@dataclass
class IterationNumerics:
    """Uniform view over full/MTI/Elkan per-iteration outputs."""

    new_centroids: np.ndarray
    n_changed: int
    dist_per_row: np.ndarray
    needs_data: np.ndarray
    clause1_rows: int
    clause2_pruned: int
    clause3_pruned: int
    motion: np.ndarray | None
    #: Per-cluster sums/counts behind ``new_centroids`` (the MM
    #: payload): the funnel merge when unpruned, the pruned modes'
    #: incrementally maintained accumulators otherwise.
    sums: np.ndarray
    counts: np.ndarray
    #: Each row's distance to its assigned centroid, where the step
    #: measured every row against every centroid (every unpruned step,
    #: a pruned mode's iteration 0); ``None`` otherwise. The pruned
    #: modes hand out their live bound array: read it before the next
    #: step loosens it.
    row_dist: np.ndarray | None = None


class NumericsLoop:
    """Stateful iterator over k-means iterations for one pruning mode.

    Hides the init/iterate asymmetry of the pruned algorithms so the
    drivers contain only hardware-related logic.
    """

    def __init__(
        self,
        x: np.ndarray,
        centroids0: np.ndarray,
        pruning: str | None,
        *,
        n_partitions: int = 1,
        empty_cluster: str = "drop",
        kernel: str = "blocked",
    ) -> None:
        self.x = x
        self.pruning = check_pruning(pruning)
        self.empty_cluster = check_empty_cluster_policy(empty_cluster)
        if empty_cluster == "reseed" and self.pruning is not None:
            raise ConfigError(
                "empty_cluster='reseed' teleports centroids, which "
                "invalidates the pruned algorithms' bound structures; "
                "use pruning=None or empty_cluster in ('drop', 'error')"
            )
        self.n_partitions = n_partitions
        self._centroids0 = np.array(
            centroids0, dtype=np.float64, copy=True
        )
        self.centroids = self._centroids0.copy()
        self.prev_centroids = self.centroids.copy()
        self._state = None
        self._assignment: np.ndarray | None = None
        self.iteration = 0
        # Per-iteration kernel cache (centroid norms, pairwise matrix,
        # block buffers); with kernel="blocked" a pure optimization
        # (bit-identical results), with kernel="gemm" ULP-equivalent
        # distances and identical assignments (see repro.core.distance).
        self._workspace = DistanceWorkspace(
            self._centroids0.shape[0], self._centroids0.shape[1],
            kernel=kernel,
        )
        self.kernel = self._workspace.kernel

    def reset(self) -> None:
        """Rewind to iteration 0 with the initial centroids.

        Crash recovery's from-scratch rerun (no checkpoint available):
        the numerics are deterministic, so a reset loop replays the
        exact same iteration sequence.
        """
        self.centroids = self._centroids0.copy()
        self.prev_centroids = self.centroids.copy()
        self._state = None
        self._assignment = None
        self.iteration = 0

    @property
    def assignment(self) -> np.ndarray:
        if self.pruning is None:
            assert self._assignment is not None
            return self._assignment
        assert self._state is not None
        return self._state.assignment

    def begin(self) -> MtiStep | None:
        """The calling-thread prologue of the next step, when that
        step is an MTI iteration (:func:`~repro.core.mti.mti_prologue`);
        ``None`` for any other step. Hand its block pass to
        :func:`~repro.core.mti.run_shared_pass`, then the prologue to
        :meth:`step`."""
        if self.pruning != "mti" or self.iteration == 0:
            return None
        return mti_prologue(
            self.x, self.centroids, self.prev_centroids, self._state,
            workspace=self._workspace,
        )

    def step(self, begun: MtiStep | None = None) -> IterationNumerics:
        """Advance one iteration and return its exact outputs.

        ``begun`` is this step's :meth:`begin`, its block pass already
        run: the step then only finishes the iteration.
        """
        # Only a pruned iteration after the first skips rows: the
        # other steps measure every row and report no clauses.
        clauses, motion = (0, 0, 0), None
        if self.pruning is None:
            res = full_iteration(
                self.x,
                self.centroids,
                self._assignment,
                n_partitions=self.n_partitions,
                workspace=self._workspace,
                empty_cluster=self.empty_cluster,
            )
            self._assignment = res.assignment
            sums, counts, row_dist = res.sums, res.counts, res.mindist
        else:
            if self.iteration == 0:
                init_fn = mti_init if self.pruning == "mti" else elkan_init
                self._state, res = init_fn(
                    self.x, self.centroids, workspace=self._workspace
                )
                row_dist = self._state.ub
            else:
                if begun is not None:
                    res = mti_epilogue(begun)
                else:
                    iter_fn = (
                        mti_iteration if self.pruning == "mti"
                        else elkan_iteration
                    )
                    res = iter_fn(
                        self.x, self.centroids, self.prev_centroids,
                        self._state, workspace=self._workspace,
                    )
                # MtiIterationResult and ElkanIterationResult share the
                # normalized clause field names.
                clauses = (
                    res.clause1_rows, res.clause2_pruned,
                    res.clause3_pruned,
                )
                motion, row_dist = res.motion, None
            sums, counts = self._state.sums, self._state.counts
        out = IterationNumerics(
            new_centroids=res.new_centroids,
            n_changed=res.n_changed,
            dist_per_row=res.dist_per_row,
            needs_data=res.needs_data,
            clause1_rows=clauses[0],
            clause2_pruned=clauses[1],
            clause3_pruned=clauses[2],
            motion=motion,
            sums=sums,
            counts=counts,
            row_dist=row_dist,
        )
        if self.pruning is not None and self.empty_cluster == "error":
            counts = self._state.counts
            if not (counts > 0).all():
                empty = np.nonzero(counts == 0)[0]
                raise EmptyClusterError(
                    f"clusters {empty.tolist()} lost all members at "
                    f"iteration {self.iteration} (empty_cluster='error')"
                )
        self.prev_centroids = self.centroids
        self.centroids = out.new_centroids
        self.iteration += 1
        return out

    def partial_sums_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cluster (sums, counts) over this loop's rows.

        The distributed backend reduces these across shards; the
        pruned algorithms maintain them incrementally while the
        unpruned path recomputes from the assignment (both via
        ``bincount``, so a 1-shard reduction is bit-identical to the
        whole-data centroid update).
        """
        if self.pruning is not None:
            assert self._state is not None
            return self._state.sums, self._state.counts
        from repro.core.centroids import cluster_sums

        k = self.centroids.shape[0]
        partial = cluster_sums(
            self.x, self.assignment, k, scratch=self._workspace.accum
        )
        return partial.sums, partial.counts

    def inertia(self) -> float:
        """k-means objective at the current assignment/centroids.

        The distances are taken in blocks of rows, so a float32 or
        memmapped ``x`` is widened to float64 one small block at a
        time; each row's distance is its own, and the sum runs over all
        of them. A block holds two ``(rows, d)`` float64 arrays, its
        widened rows and their gathered centroids, so it takes half the
        rows of the ``BLOCK_BYTES`` budget to stay within it.
        """
        n, d = self.x.shape
        assign = self.assignment
        dist = np.empty(n)
        rows = max(1, BLOCK_BYTES // (16 * d))
        for lo in range(0, n, rows):
            hi = lo + rows
            dist[lo:hi] = rows_to_centroids(
                np.asarray(self.x[lo:hi], dtype=np.float64),
                self.centroids, assign[lo:hi],
            )
        return float((dist**2).sum())

    # -- checkpoint support (knors fault tolerance) ----------------

    def export_state(self) -> dict:
        """Snapshot of the loop's resumable state (mti / unpruned)."""
        if self.pruning == "elkan":
            raise ConfigError(
                "checkpointing is not offered for the Elkan baseline"
            )
        snap: dict = {
            "iteration": self.iteration,
            "centroids": self.centroids.copy(),
            "prev_centroids": self.prev_centroids.copy(),
        }
        if self.pruning == "mti" and self._state is not None:
            snap.update(
                assignment=self._state.assignment.copy(),
                ub=self._state.ub.copy(),
                sums=self._state.sums.copy(),
                counts=self._state.counts.copy(),
            )
        elif self._assignment is not None:
            snap["assignment"] = self._assignment.copy()
        return snap

    def restore_state(self, snap: dict) -> None:
        """Resume from an :meth:`export_state` snapshot."""
        from repro.core.mti import MtiState

        # The MTI bounds and the persistent sums/counts travel together:
        # resuming without any one of them would corrupt the pruned
        # centroid update.
        required = ["iteration", "centroids", "prev_centroids", "assignment"]
        if self.pruning == "mti":
            required += ["ub", "sums", "counts"]
        missing = [key for key in required if snap.get(key) is None]
        if missing:
            raise ConfigError(
                f"snapshot lacks {missing} for pruning={self.pruning!r}"
            )
        self.iteration = int(snap["iteration"])
        self.centroids = np.array(snap["centroids"], copy=True)
        self.prev_centroids = np.array(snap["prev_centroids"], copy=True)
        if self.pruning == "mti":
            self._state = MtiState(
                assignment=np.array(
                    snap["assignment"], dtype=np.int32, copy=True
                ),
                ub=np.array(snap["ub"], copy=True),
                sums=np.array(snap["sums"], copy=True),
                counts=np.array(
                    snap["counts"], dtype=np.int64, copy=True
                ),
            )
        elif self.pruning is None:
            self._assignment = np.array(
                snap["assignment"], dtype=np.int32, copy=True
            )


def resolve_init(
    x: np.ndarray,
    k: int,
    init: str | np.ndarray,
    seed: int,
) -> np.ndarray:
    """Initial centroids from a method name or an explicit array."""
    if isinstance(init, np.ndarray):
        c = np.array(init, dtype=np.float64, copy=True)
        if c.shape != (k, x.shape[1]):
            raise ConfigError(
                f"init centroids shape {c.shape} != ({k}, {x.shape[1]})"
            )
        if not np.isfinite(c).all():
            bad = np.flatnonzero(~np.isfinite(c).all(axis=1))
            raise ConfigError(
                f"init centroids {bad.tolist()} contain NaN/inf"
            )
        return c
    return init_centroids(x, k, init, seed=seed)


def default_criteria(
    criteria: ConvergenceCriteria | None,
) -> ConvergenceCriteria:
    """The drivers' default stopping rules when none are given."""
    return criteria or ConvergenceCriteria()
