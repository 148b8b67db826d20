"""Yinyang k-means (Ding et al., ICML 2015) -- the O(nt) competitor.

Related Work positions Yinyang between the two pruning designs this
library ships: it keeps one lower bound per *group* of centroids
(t groups, t = k/10 is "generally optimal"), so memory is O(nt) --
more than MTI's O(n), far less than Elkan's O(nk) -- and its group
filter prunes more than MTI's clause 2/3 while maintaining fewer
bounds than Elkan. The paper's criticism stands for both Yinyang and
Elkan: the bound matrix still grows with n asymptotically.

Exactness contract: like MTI and Elkan, assignments equal unpruned
Lloyd's bit-for-bit (ties aside), enforced by the test suite.

Implementation notes
--------------------
* Centroids are grouped once at initialization by a small Lloyd run
  over the centroids themselves (the standard formulation).
* Per iteration: the **global filter** skips a point when its loosened
  upper bound stays below every group lower bound; the **group
  filter** then evaluates only the groups whose lower bound dipped
  under the (tightened) upper bound.
* ``lb[i, g]`` lower-bounds the distance from point i to every
  centroid of group g *except* i's assigned centroid, maintained via
  min/second-min bookkeeping when a group is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.centroids import flat_sums
from repro.core.convergence import ConvergenceCriteria
from repro.core.distance import euclidean, rows_to_centroids
from repro.core.init import init_centroids
from repro.core.lloyd import lloyd
from repro.drivers.common import check_k, check_rows_finite, check_x_k
from repro.errors import DatasetError
from repro.metrics import RunResult
from repro.runtime.mm import MMStep, run_mm_inmemory


@dataclass
class YinyangState:
    """Persistent O(nt) pruning state."""

    assignment: np.ndarray  # (n,) int32
    ub: np.ndarray  # (n,)
    lb: np.ndarray  # (n, t) group lower bounds
    group_of: np.ndarray  # (k,) centroid -> group
    groups: list[np.ndarray]  # group -> centroid ids
    sums: np.ndarray  # (k, d)
    counts: np.ndarray  # (k,)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def t(self) -> int:
        return self.lb.shape[1]


@dataclass
class YinyangIterationResult:
    """Outcome and pruning statistics of one Yinyang iteration."""
    new_centroids: np.ndarray
    n_changed: int
    dist_per_row: np.ndarray
    motion: np.ndarray
    global_filtered: int = 0
    computed: int = 0


def _group_centroids(centroids: np.ndarray, t: int, seed: int) -> np.ndarray:
    """Cluster the centroids into t groups (standard Yinyang setup)."""
    k = centroids.shape[0]
    if t >= k:
        return np.arange(k)
    res = lloyd(
        centroids, t, init="kmeans++", seed=seed,
        criteria=ConvergenceCriteria(max_iters=5),
    )
    return res.assignment.astype(np.int64)


def yinyang_init(
    x: np.ndarray, centroids: np.ndarray, *, t: int | None = None,
    seed: int = 0,
) -> tuple[YinyangState, YinyangIterationResult]:
    """Iteration 0: full pass seeding assignments and group bounds."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = centroids.shape[0]
    if t is None:
        t = max(1, k // 10)
    if not 1 <= t <= k:
        raise DatasetError(f"t={t} must be in [1, k={k}]")

    group_of = _group_centroids(centroids, t, seed)
    groups = [np.nonzero(group_of == g)[0] for g in range(t)]
    # Drop empty groups (possible when centroid-clustering collapses).
    groups = [g for g in groups if g.size]
    t = len(groups)
    group_of = np.empty(k, dtype=np.int64)
    for gi, members in enumerate(groups):
        group_of[members] = gi

    dist = euclidean(x, centroids)
    assign = np.argmin(dist, axis=1).astype(np.int32)
    ub = dist[np.arange(n), assign].copy()
    masked = dist.copy()
    masked[np.arange(n), assign] = np.inf
    lb = np.empty((n, t))
    for gi, members in enumerate(groups):
        lb[:, gi] = masked[:, members].min(axis=1)

    sums = flat_sums(x, assign, k)
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    state = YinyangState(
        assignment=assign, ub=ub, lb=lb, group_of=group_of,
        groups=groups, sums=sums, counts=counts,
    )
    new_centroids = centroids.copy()
    nz = counts > 0
    new_centroids[nz] = sums[nz] / counts[nz, None]
    return state, YinyangIterationResult(
        new_centroids=new_centroids,
        n_changed=n,
        dist_per_row=np.full(n, k, dtype=np.int32),
        motion=np.zeros(k),
        computed=n * k,
    )


def yinyang_iteration(
    x: np.ndarray,
    centroids: np.ndarray,
    prev_centroids: np.ndarray,
    state: YinyangState,
) -> YinyangIterationResult:
    """One Yinyang-pruned iteration; mutates ``state`` in place."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = centroids.shape[0]
    if state.n != n:
        raise DatasetError(f"state tracks {state.n} rows, data has {n}")
    t = state.t

    motion = rows_to_centroids(centroids, prev_centroids, np.arange(k))
    group_motion = np.array(
        [motion[members].max() for members in state.groups]
    )
    state.ub += motion[state.assignment]
    state.lb -= group_motion[None, :]

    assign = state.assignment
    old_assign = assign.copy()
    dist_per_row = np.zeros(n, dtype=np.int32)

    lb_min = state.lb.min(axis=1)
    maybe = np.nonzero(state.ub > lb_min)[0]
    computed = 0
    if maybe.size:
        # Tighten and re-apply the global filter.
        tight = rows_to_centroids(x[maybe], centroids, assign[maybe])
        computed += int(maybe.size)
        dist_per_row[maybe] += 1
        state.ub[maybe] = tight
        still = maybe[tight > lb_min[maybe]]

        if still.size:
            m = still.size
            xs = x[still]
            bs = assign[still].copy()
            ubs = state.ub[still].copy()
            lbs = state.lb[still]  # copy (fancy indexing)
            need = lbs < ubs[:, None]  # group filter

            best = bs.copy()
            bestdist = ubs.copy()
            min1 = np.full((m, t), np.inf)
            arg1 = np.full((m, t), -1, dtype=np.int64)
            min2 = np.full((m, t), np.inf)

            for gi, members in enumerate(state.groups):
                rows = np.nonzero(need[:, gi])[0]
                if rows.size == 0:
                    continue
                dmat = euclidean(xs[rows], centroids[members])
                computed += dmat.size
                dist_per_row[still[rows]] += members.size
                order = np.argsort(dmat, axis=1)
                m1 = dmat[np.arange(rows.size), order[:, 0]]
                min1[rows, gi] = m1
                arg1[rows, gi] = members[order[:, 0]]
                if members.size > 1:
                    min2[rows, gi] = dmat[
                        np.arange(rows.size), order[:, 1]
                    ]
                improve = m1 < bestdist[rows]
                best[rows[improve]] = members[
                    order[improve, 0]
                ].astype(np.int32)
                bestdist[rows[improve]] = m1[improve]

            # Refresh evaluated groups' lower bounds, excluding the
            # (possibly new) assigned centroid.
            for gi in range(t):
                rows = np.nonzero(need[:, gi])[0]
                if rows.size == 0:
                    continue
                exclude_best = arg1[rows, gi] == best[rows]
                lbs[rows, gi] = np.where(
                    exclude_best, min2[rows, gi], min1[rows, gi]
                )

            # A reassigned point's OLD centroid re-enters its group's
            # "others" set: that group's bound must drop to the old
            # assigned distance (the tightened ub) or it would overstate
            # the bound and the next group filter could wrongly skip a
            # move back (Ding et al.'s lb update rule).
            moved = np.nonzero(best != bs)[0]
            if moved.size:
                old_groups = state.group_of[bs[moved]]
                np.minimum.at(
                    lbs, (moved, old_groups), ubs[moved]
                )

            state.lb[still] = lbs
            state.ub[still] = bestdist
            assign[still] = best

    changed = np.nonzero(assign != old_assign)[0]
    n_changed = int(changed.size)
    if n_changed:
        xc = x[changed]
        frm = old_assign[changed]
        to = assign[changed]
        state.sums -= flat_sums(xc, frm, k)
        state.sums += flat_sums(xc, to, k)
        state.counts -= np.bincount(frm, minlength=k)
        state.counts += np.bincount(to, minlength=k)

    new_centroids = centroids.copy()
    nz = state.counts > 0
    new_centroids[nz] = state.sums[nz] / state.counts[nz, None]

    return YinyangIterationResult(
        new_centroids=new_centroids,
        n_changed=n_changed,
        dist_per_row=dist_per_row,
        motion=motion,
        global_filtered=int(n - maybe.size),
        computed=computed,
    )


def yinyang_kmeans(
    x: np.ndarray,
    k: int,
    *,
    t: int | None = None,
    init: str | np.ndarray = "random",
    seed: int = 0,
    criteria: ConvergenceCriteria | None = None,
) -> RunResult:
    """Run Yinyang k-means to convergence (exact, O(nt) memory):
    :class:`YinyangMM` on the in-memory substrate."""
    return run_mm_inmemory(
        YinyangMM(x, k, t=t, init=init, seed=seed, criteria=criteria)
    )


class YinyangMM:
    """Yinyang k-means as an MM algorithm.

    Iteration 0 is the seeding pass (:func:`yinyang_init`, every row
    touched); later iterations run the pruned
    :func:`yinyang_iteration`, whose ``dist_per_row`` feeds straight
    into the hardware plane -- and whose zero rows become real I/O
    savings on the SEM backend via ``needs_data``. The accumulator
    payload is the incrementally-maintained per-cluster sums/counts.
    This is the only Yinyang run: :func:`yinyang_kmeans` runs it in
    memory, ``run_algorithm("yinyang", ...)`` on any backend.
    """

    name = "yinyang"

    def __init__(
        self,
        x: np.ndarray,
        k: int,
        *,
        t: int | None = None,
        init: str | np.ndarray = "random",
        seed: int = 0,
        criteria: ConvergenceCriteria | None = None,
    ) -> None:
        x = np.asarray(x, dtype=np.float64)
        k = check_x_k(x, k)
        if t is not None:
            t = check_k(t, "t")
        check_rows_finite(x, self.name)
        self.x = x
        self.n_rows, self.d = x.shape
        self.k = k
        self.t_requested = t
        self.seed = seed
        self.crit = criteria or ConvergenceCriteria()
        self.max_iters = self.crit.max_iters
        if isinstance(init, np.ndarray):
            self._centroids0 = np.array(init, dtype=np.float64,
                                        copy=True)
        else:
            self._centroids0 = init_centroids(x, k, init, seed=seed)
        self.reduction_slots = k
        # Bounds matrix + ub + assignment; refined to the actual t
        # after iteration 0 (empty groups may collapse).
        t_est = t if t is not None else max(1, k // 10)
        self.state_bytes_per_row = 4 + 8 * (1 + t_est)
        self.reset()

    def reset(self) -> None:
        self.state: YinyangState | None = None
        self.prev = self._centroids0
        self.cur = self._centroids0.copy()
        self.iteration = 0
        self._last: YinyangIterationResult | None = None

    def majorize(self) -> MMStep:
        n = self.n_rows
        if self.state is None:
            self.state, r = yinyang_init(
                self.x, self.cur, t=self.t_requested, seed=self.seed,
            )
            self.state_bytes_per_row = 4 + 8 * (1 + self.state.t)
            needs_data = np.ones(n, dtype=bool)
        else:
            r = yinyang_iteration(
                self.x, self.cur, self.prev, self.state
            )
            needs_data = r.dist_per_row > 0
        self.prev, self.cur = self.cur, r.new_centroids
        self._last = r
        self.iteration += 1
        return MMStep(
            dist_per_row=r.dist_per_row,
            needs_data=needs_data,
            n_changed=r.n_changed,
            payload={
                "sums": self.state.sums.copy(),
                "counts": self.state.counts.astype(np.float64),
            },
            motion=r.motion,
            clause1_rows=r.global_filtered,
        )

    def minimize(self, payload: dict[str, np.ndarray]) -> None:
        """No-op: :func:`yinyang_iteration` installs the centroids
        from the same sums/counts (bit-identical divide)."""

    def converged(self) -> bool:
        # The seeding pass never converges: convergence is checked
        # from the first pruned iteration onward.
        if self._last is None or self.iteration <= 1:
            return False
        return self.crit.converged(
            self.n_rows, self._last.n_changed, self._last.motion
        )

    def export_state(self) -> dict:
        if self.state is None:
            raise DatasetError(
                "yinyang state not initialized; nothing to export"
            )
        return {
            "iteration": self.iteration,
            "cur": self.cur,
            "prev": self.prev,
            "assignment": self.state.assignment,
            "ub": self.state.ub,
            "lb": self.state.lb,
            "group_of": self.state.group_of,
            "sums": self.state.sums,
            "counts": self.state.counts,
        }

    def restore_state(self, snap: dict) -> None:
        self.iteration = int(snap["iteration"])
        self.cur = np.array(snap["cur"], dtype=np.float64)
        self.prev = np.array(snap["prev"], dtype=np.float64)
        lb = np.array(snap["lb"], dtype=np.float64)
        group_of = np.array(snap["group_of"], dtype=np.int64)
        t = lb.shape[1]
        groups = [np.nonzero(group_of == g)[0] for g in range(t)]
        self.state = YinyangState(
            assignment=np.array(snap["assignment"], dtype=np.int32),
            ub=np.array(snap["ub"], dtype=np.float64),
            lb=lb,
            group_of=group_of,
            groups=groups,
            sums=np.array(snap["sums"], dtype=np.float64),
            counts=np.array(snap["counts"], dtype=np.int64),
        )
        self.state_bytes_per_row = 4 + 8 * (1 + t)
        self._last = None

    @property
    def model_array(self) -> np.ndarray:
        return self.cur

    def result(self, loop_result, *, memory_breakdown=None,
               extra_params=None):
        assert self.state is not None
        dist = rows_to_centroids(self.x, self.cur,
                                 self.state.assignment)
        breakdown = dict(memory_breakdown or {})
        breakdown["yinyang_bounds"] = (
            self.state.lb.nbytes + self.state.ub.nbytes
        )
        return loop_result.as_run_result(
            algorithm="mm-yinyang",
            centroids=self.cur,
            assignment=self.state.assignment.copy(),
            inertia=float((dist**2).sum()),
            memory_breakdown=breakdown,
            params={
                "n": self.n_rows, "d": self.d, "k": self.k,
                "t": self.state.t, "algorithm": self.name,
                **(extra_params or {}),
            },
        )
